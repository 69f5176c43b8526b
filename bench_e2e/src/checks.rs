//! Correctness checks made apart from the program: every output is
//! compared against the world's [`GroundTruth`], which the benchmark
//! builds itself from the same seed and scale, or against a property the
//! method must have. Nothing is compared against a saved copy of an
//! earlier run's output.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use daas_cluster::{Clustering, Family};
use daas_detector::Dataset;
use daas_measure::VictimReport;
use daas_obs::json::Value;
use daas_world::{GroundTruth, World};
use eth_types::Address;
use serde::Deserialize;
use webscan::{ScanReport, Verdict};

use crate::util::{field, num};

/// Role flags, matching the daemon's `roles` names.
pub const CONTRACT: u8 = 1;
pub const OPERATOR: u8 = 2;
pub const AFFILIATE: u8 = 4;

/// One check's verdict.
pub struct Check {
    pub name: &'static str,
    pub result: Result<(), String>,
}

fn check(name: &'static str, problems: Vec<String>) -> Check {
    let result = match problems.len() {
        0 => Ok(()),
        n => Err(format!("{n} problem(s), first: {}", problems[0])),
    };
    Check { name, result }
}

/// Folds one round's check verdicts into the run's: a check passes only if
/// it passed in every round.
pub fn merge_checks(into: &mut Vec<Check>, new: Vec<Check>) {
    for c in new {
        match into.iter_mut().find(|x| x.name == c.name) {
            Some(existing) if existing.result.is_ok() => existing.result = c.result,
            Some(_) => {}
            None => into.push(c),
        }
    }
}

/// A detected family, as either path reports it.
#[derive(Clone)]
pub struct FamilyView {
    pub name: String,
    pub operators: Vec<Address>,
    pub contracts: Vec<Address>,
    pub affiliates: Vec<Address>,
}

/// The batch-comparable result of a run: the dataset's role and
/// transaction sets, the families and the loss totals.
#[derive(Clone)]
pub struct Artifact {
    pub contracts: BTreeSet<Address>,
    pub operators: BTreeSet<Address>,
    pub affiliates: BTreeSet<Address>,
    pub ps_txs: BTreeSet<u64>,
    pub families: Vec<FamilyView>,
    pub victims: usize,
    pub total_usd: f64,
}

impl Artifact {
    /// From the in-process batch pipeline.
    pub fn from_batch(dataset: &Dataset, clustering: &Clustering, victims: usize, total_usd: f64) -> Self {
        Artifact {
            contracts: dataset.contracts.clone(),
            operators: dataset.operators.clone(),
            affiliates: dataset.affiliates.clone(),
            ps_txs: dataset.ps_txs.iter().map(|&t| t as u64).collect(),
            families: clustering.families.iter().map(|f| FamilyView::from(&**f)).collect(),
            victims,
            total_usd,
        }
    }

    /// From the daemon's raw `artifact` reply line.
    pub fn from_reply(line: &str) -> Result<Self, String> {
        let reply: ArtifactReply = serde_json::from_str(line).map_err(|e| format!("artifact reply: {e}"))?;
        let a = reply.artifact;
        Ok(Artifact {
            contracts: a.contracts.into_iter().collect(),
            operators: a.operators.into_iter().collect(),
            affiliates: a.affiliates.into_iter().collect(),
            ps_txs: a.ps_txs.into_iter().collect(),
            families: a.clustering.families.iter().map(|f| FamilyView::from(&**f)).collect(),
            victims: a.reports.victims.victims,
            total_usd: a.reports.victims.total_usd,
        })
    }
}

impl From<&Family> for FamilyView {
    fn from(f: &Family) -> Self {
        FamilyView {
            name: f.name.clone(),
            operators: f.operators.clone(),
            contracts: f.contracts.clone(),
            affiliates: f.affiliates.clone(),
        }
    }
}

/// The parts of the `artifact` reply the checks read (unknown fields
/// are skipped).
#[derive(Deserialize)]
struct ArtifactReply {
    artifact: ArtifactBody,
}

#[derive(Deserialize)]
struct ArtifactBody {
    contracts: Vec<Address>,
    operators: Vec<Address>,
    affiliates: Vec<Address>,
    ps_txs: Vec<u64>,
    clustering: Clustering,
    reports: ReportsPart,
}

#[derive(Deserialize)]
struct ReportsPart {
    victims: VictimReport,
}

/// A `family` reply: the epoch and the family holding the address.
#[derive(Deserialize)]
pub struct FamilyReply {
    pub epoch: u64,
    pub family: Option<Family>,
}

/// The ground truth, indexed for the checks.
pub struct Truth {
    pub contracts: BTreeSet<Address>,
    pub operators: BTreeSet<Address>,
    pub affiliates: BTreeSet<Address>,
    pub ps_txs: BTreeSet<u64>,
    /// Contract or operator → its family.
    pub family_of: HashMap<Address, usize>,
    /// Per family: its affiliates.
    pub family_affiliates: Vec<HashSet<Address>>,
    /// Per family: `display_name()` (the label when there is one).
    pub names: Vec<String>,
    pub total_usd: f64,
    pub victims: Vec<Address>,
    /// DaaS account → its true roles.
    pub roles: HashMap<Address, u8>,
    /// DaaS account → the first profit-sharing transaction involving it.
    pub evidence: HashMap<Address, u64>,
    /// Victim → its incidents as (profit-sharing tx, USD), by tx.
    pub victim_incidents: HashMap<Address, Vec<(u64, f64)>>,
}

impl Truth {
    pub fn new(truth: &GroundTruth) -> Self {
        let mut family_of = HashMap::new();
        let mut contract_operator = HashMap::new();
        let mut roles: HashMap<Address, u8> = HashMap::new();
        for (fi, fam) in truth.families.iter().enumerate() {
            for c in &fam.contracts {
                family_of.insert(c.address, fi);
                contract_operator.insert(c.address, c.operator);
            }
            for &o in &fam.operators {
                family_of.insert(o, fi);
            }
        }
        let mut evidence: HashMap<Address, u64> = HashMap::new();
        let mut victim_incidents: HashMap<Address, Vec<(u64, f64)>> = HashMap::new();
        let mut total_usd = 0.0;
        for inc in &truth.incidents {
            let tx = inc.ps_tx as u64;
            let operator = contract_operator.get(&inc.contract).copied();
            for (addr, role) in [(Some(inc.contract), CONTRACT), (Some(inc.affiliate), AFFILIATE), (operator, OPERATOR)] {
                if let Some(addr) = addr {
                    *roles.entry(addr).or_insert(0) |= role;
                    let first = evidence.entry(addr).or_insert(tx);
                    *first = (*first).min(tx);
                }
            }
            victim_incidents.entry(inc.victim).or_default().push((tx, inc.loss_usd));
            total_usd += inc.loss_usd;
        }
        for list in victim_incidents.values_mut() {
            list.sort_by_key(|&(tx, _)| tx);
        }
        Truth {
            contracts: truth.all_contracts().into_iter().collect(),
            operators: truth.all_operators().into_iter().collect(),
            affiliates: truth.all_affiliates().into_iter().collect(),
            ps_txs: truth.ps_tx_ids().into_iter().map(|t| t as u64).collect(),
            family_of,
            family_affiliates: truth.families.iter().map(|f| f.affiliates.iter().copied().collect()).collect(),
            names: truth.families.iter().map(|f| f.display_name()).collect(),
            total_usd,
            victims: truth.all_victims(),
            roles,
            evidence,
            victim_incidents,
        }
    }

    /// (incidents, USD) a victim had below a transaction watermark.
    pub fn victim_below(&self, victim: &Address, watermark: u64) -> (usize, f64) {
        let Some(list) = self.victim_incidents.get(victim) else { return (0, 0.0) };
        let below = list.partition_point(|&(tx, _)| tx < watermark);
        (below, list[..below].iter().map(|&(_, usd)| usd).sum())
    }
}

fn set_diff<T: Ord + Copy + std::fmt::Debug>(what: &str, got: &BTreeSet<T>, want: &BTreeSet<T>, out: &mut Vec<String>) {
    let missing: Vec<_> = want.difference(got).collect();
    let extra: Vec<_> = got.difference(want).collect();
    if !missing.is_empty() || !extra.is_empty() {
        out.push(format!(
            "{what}: {} missing (e.g. {:?}), {} not in ground truth (e.g. {:?})",
            missing.len(),
            missing.first(),
            extra.len(),
            extra.first()
        ));
    }
}

/// The dataset, family, name, affiliate and loss checks on one artifact.
pub fn artifact_checks(a: &Artifact, t: &Truth) -> Vec<Check> {
    let mut dataset = Vec::new();
    set_diff("contracts", &a.contracts, &t.contracts, &mut dataset);
    set_diff("operators", &a.operators, &t.operators, &mut dataset);
    set_diff("affiliates", &a.affiliates, &t.affiliates, &mut dataset);
    set_diff("profit-sharing txs", &a.ps_txs, &t.ps_txs, &mut dataset);

    // Purity: each family's contracts and operators come from exactly
    // one true family, and no true family is spread over two.
    let mut purity = Vec::new();
    let mut names = Vec::new();
    let mut affiliates = Vec::new();
    let mut owner: HashMap<usize, usize> = HashMap::new();
    for (di, fam) in a.families.iter().enumerate() {
        let truths: BTreeSet<Option<usize>> =
            fam.contracts.iter().chain(&fam.operators).map(|m| t.family_of.get(m).copied()).collect();
        let ti = match truths.iter().collect::<Vec<_>>().as_slice() {
            [Some(ti)] => *ti,
            _ => {
                purity.push(format!("family {:?} draws on true families {truths:?}", fam.name));
                continue;
            }
        };
        if let Some(prev) = owner.insert(ti, di) {
            purity.push(format!("true family {} split over detected families {prev} and {di}", t.names[ti]));
        }
        if fam.name != t.names[ti] {
            names.push(format!("family named {:?}, ground truth {:?}", fam.name, t.names[ti]));
        }
        if let Some(stray) = fam.affiliates.iter().find(|x| !t.family_affiliates[ti].contains(x)) {
            affiliates.push(format!("family {:?} lists affiliate {stray} of another family", fam.name));
        }
    }
    let mut losses = Vec::new();
    let rel = (a.total_usd - t.total_usd).abs() / t.total_usd.max(f64::MIN_POSITIVE);
    if rel > 1e-8 {
        losses.push(format!("total USD {} vs ground truth {} (relative error {rel:.2e})", a.total_usd, t.total_usd));
    }
    if a.victims != t.victims.len() {
        losses.push(format!("{} distinct victims vs ground truth {}", a.victims, t.victims.len()));
    }
    vec![
        check("dataset", dataset),
        check("family_purity", purity),
        check("family_names", names),
        check("affiliates", affiliates),
        check("losses", losses),
    ]
}

/// Confirmed website verdicts: (domain, attributed family).
pub fn confirmed_sites(report: &ScanReport) -> Vec<(String, String)> {
    report
        .outcomes
        .iter()
        .filter_map(|o| match &o.verdict {
            Verdict::Phishing { family } => Some((o.domain.clone(), family.clone())),
            _ => None,
        })
        .collect()
}

/// Every confirmed domain is a true drainer site of the attributed family.
pub fn website_check(confirmed: &[(String, String)], world: &World, t: &Truth) -> Check {
    let by_domain: HashMap<&str, usize> =
        world.sites.sites.iter().enumerate().map(|(i, s)| (s.domain.as_str(), i)).collect();
    let mut problems = Vec::new();
    if confirmed.is_empty() {
        problems.push("no site confirmed".to_string());
    }
    for (domain, family) in confirmed {
        match by_domain.get(domain.as_str()).and_then(|&i| world.sites.truth[i].family) {
            Some(fi) if t.names[fi] == *family => {}
            Some(fi) => problems.push(format!("{domain} attributed to {family:?}, ground truth {:?}", t.names[fi])),
            None => problems.push(format!("{domain} confirmed but is not a drainer site")),
        }
    }
    check("website", problems)
}

/// One `risk` answer.
#[derive(Clone)]
pub struct RiskAnswer {
    pub epoch: u64,
    pub address: Address,
    pub is_daas: bool,
    pub roles: u8,
    /// Drawn as a random address (never a chain account).
    pub benign: bool,
}

/// One `victim` answer.
#[derive(Clone)]
pub struct VictimAnswer {
    pub epoch: u64,
    pub address: Address,
    pub incidents: usize,
    pub usd: f64,
}

/// Everything the live checks read: each epoch's watermark (from the
/// `ingest` replies) and the answers given at each epoch.
#[derive(Default, Clone)]
pub struct LiveLog {
    pub watermarks: BTreeMap<u64, u64>,
    pub risk: Vec<RiskAnswer>,
    pub victims: Vec<VictimAnswer>,
    /// `family` answers: (epoch, queried address, returned family).
    pub families: Vec<(u64, Address, Option<FamilyView>)>,
    /// `status` and `stats` USD totals by epoch, in arrival order.
    pub totals: Vec<(u64, f64)>,
    /// Victim answers given after the whole stream was in.
    pub final_victims: Vec<VictimAnswer>,
}

impl LiveLog {
    /// Records the epoch and watermark a reply names (`ingest`,
    /// `status`); returns the watermark. Every pass over one world must
    /// agree on each epoch's watermark.
    pub fn watermark(&mut self, reply: &Value) -> Result<u64, String> {
        let epoch = num(reply, "epoch").ok_or("reply without epoch")? as u64;
        let watermark = num(reply, "watermark").ok_or("reply without watermark")? as u64;
        match self.watermarks.insert(epoch, watermark) {
            Some(before) if before != watermark => {
                Err(format!("epoch {epoch} named watermark {before}, now {watermark}"))
            }
            _ => Ok(watermark),
        }
    }
}

/// Parses a `risk` reply's role names into flags.
pub fn role_flags(reply: &Value) -> u8 {
    let mut roles = 0;
    for r in field(reply, "roles").and_then(|v| v.as_arr()).unwrap_or(&[]) {
        roles |= match r.as_str() {
            Some("contract") => CONTRACT,
            Some("operator") => OPERATOR,
            Some("affiliate") => AFFILIATE,
            _ => 0x80,
        };
    }
    roles
}

/// A flagged address stays flagged in every later epoch, and the USD
/// total (`status` and `stats`) never decreases.
pub fn monotonicity_check(log: &LiveLog) -> Check {
    let mut monotone = Vec::new();
    let mut by_address: HashMap<Address, Vec<(u64, bool)>> = HashMap::new();
    for r in &log.risk {
        by_address.entry(r.address).or_default().push((r.epoch, r.is_daas));
    }
    for (address, mut seen) in by_address {
        seen.sort();
        if let Some(first) = seen.iter().position(|&(_, flagged)| flagged) {
            if let Some(&(epoch, _)) = seen[first..].iter().find(|&&(_, flagged)| !flagged) {
                monotone.push(format!("{address} unflagged again at epoch {epoch}"));
            }
        }
    }
    let mut totals = log.totals.clone();
    totals.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    for pair in totals.windows(2) {
        if pair[1].1 < pair[0].1 {
            monotone.push(format!("total USD fell from {} to {} at epoch {}", pair[0].1, pair[1].1, pair[1].0));
        }
    }
    check("monotonicity", monotone)
}

/// A daemon's stream position: (epoch, blocks ingested, watermark).
pub type Position = (u64, u64, u64);

/// The restored daemon resumes where the checkpoint was taken. `before`
/// is the last `status` before the checkpoint, `saved` the `checkpoint`
/// reply's (epoch, watermark), which must repeat it, and `resumed` the
/// restored daemon's first `status`: the same blocks and watermark, at
/// the checkpointed epoch + 1 (restoring publishes one epoch).
pub fn restore_check(before: Position, saved: (u64, u64), resumed: Position) -> Check {
    let mut problems = Vec::new();
    if saved != (before.0, before.2) {
        problems.push(format!("checkpoint reply at (epoch, watermark) {saved:?}, last status before it at {before:?}"));
    }
    if resumed != (saved.0 + 1, before.1, saved.1) {
        problems.push(format!(
            "checkpoint at epoch {}, {} blocks, watermark {}; restored at (epoch, blocks, watermark) {resumed:?}",
            saved.0, before.1, saved.1
        ));
    }
    check("restore", problems)
}

/// How far a measured victim loss may sit from the ground-truth sum:
/// the measurement values each incident to the micro-dollar, so up to
/// $0.000001 per incident, plus float rounding.
fn usd_tolerance(incidents: usize, usd: f64) -> f64 {
    1e-6 * incidents as f64 + 1e-9 * usd
}

/// The live-answer, monotonicity, victim and benign-address checks.
pub fn live_checks(log: &LiveLog, t: &Truth) -> Vec<Check> {
    let watermark = |epoch: u64| log.watermarks.get(&epoch).copied();
    let mut answers = Vec::new();
    let mut benign = Vec::new();
    for r in &log.risk {
        if !r.is_daas {
            continue;
        }
        if r.benign {
            benign.push(format!("random address {} flagged at epoch {}", r.address, r.epoch));
            continue;
        }
        let Some(w) = watermark(r.epoch) else {
            answers.push(format!("answer at epoch {} whose watermark no ingest reply named", r.epoch));
            continue;
        };
        match (t.roles.get(&r.address), t.evidence.get(&r.address)) {
            (Some(&roles), Some(&first)) => {
                if r.roles & !roles != 0 || r.roles == 0 {
                    answers.push(format!("{} flagged with roles {:#x}, true roles {roles:#x}", r.address, r.roles));
                }
                if first >= w {
                    answers.push(format!(
                        "{} flagged at epoch {} (watermark {w}) before its first profit-sharing tx {first}",
                        r.address, r.epoch
                    ));
                }
            }
            _ => answers.push(format!("{} flagged but is no DaaS account", r.address)),
        }
    }
    for (epoch, address, family) in &log.families {
        let Some(fam) = family else { continue };
        let members: Vec<&Address> = fam.contracts.iter().chain(&fam.operators).collect();
        let truths: BTreeSet<Option<usize>> = members.iter().map(|m| t.family_of.get(m).copied()).collect();
        let holds = fam.contracts.contains(address) || fam.operators.contains(address) || fam.affiliates.contains(address);
        if truths.len() != 1 || truths.contains(&None) || !holds {
            answers.push(format!("family answer for {address} at epoch {epoch} is not one true family holding it"));
        }
    }

    let mut victims = Vec::new();
    for v in &log.victims {
        let Some(w) = watermark(v.epoch) else {
            victims.push(format!("victim answer at unknown epoch {}", v.epoch));
            continue;
        };
        let (n, usd) = t.victim_below(&v.address, w);
        if v.incidents > n || v.usd > usd + usd_tolerance(n, usd) {
            victims.push(format!(
                "{} at epoch {}: {} incidents / ${} vs at most {n} / ${usd} below watermark {w}",
                v.address, v.epoch, v.incidents, v.usd
            ));
        }
    }
    if log.final_victims.is_empty() {
        victims.push("no end-of-stream victim answers".to_string());
    }
    for v in &log.final_victims {
        let (n, usd) = t.victim_below(&v.address, u64::MAX);
        if v.incidents != n || (v.usd - usd).abs() > usd_tolerance(n, usd) {
            victims.push(format!("{} at stream end: {} incidents / ${} vs {n} / ${usd}", v.address, v.incidents, v.usd));
        }
    }
    vec![
        check("live_answers", answers),
        monotonicity_check(log),
        check("victim_answers", victims),
        check("benign_addresses", benign),
    ]
}
