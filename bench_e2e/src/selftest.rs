//! `--self-test`: proves the checks can fail and the workloads run.
//!
//! 1. The metric catalogue matches `BENCHMARK.json`.
//! 2. For each check, a deliberately corrupted copy of real (or
//!    ground-truth-built) output makes exactly that check fail, while the
//!    clean copy passes.
//! 3. A micro-scale smoke of all three workloads, untraced and traced,
//!    passes every check and prints every metric.

use std::process::ExitCode;

use daas_cli::{run_pipeline, run_website_pipeline};
use daas_detector::SnowballConfig;
use daas_measure::MeasureConfig;
use daas_world::WorldConfig;
use eth_types::Address;

use crate::checks::{
    artifact_checks, confirmed_sites, live_checks, restore_check, website_check, Artifact, Check, LiveLog, RiskAnswer,
    Truth, VictimAnswer,
};
use crate::util::field;
use crate::{metrics, run_workload, RunOpts, WORKLOADS};

struct Tally {
    failures: usize,
}

impl Tally {
    fn expect(&mut self, what: &str, ok: bool, detail: &str) {
        if ok {
            println!("self-test ok   {what}");
        } else {
            println!("self-test FAIL {what}: {detail}");
            self.failures += 1;
        }
    }

    /// `checks` must fail `name` and pass every other check.
    fn only_fails(&mut self, corruption: &str, checks: &[Check], name: &str) {
        let failed: Vec<&str> = checks.iter().filter(|c| c.result.is_err()).map(|c| c.name).collect();
        self.expect(&format!("{corruption} fails {name}"), failed == [name], &format!("failing checks: {failed:?}"));
    }
}

pub fn run() -> ExitCode {
    let mut t = Tally { failures: 0 };
    catalogue(&mut t);
    if let Err(e) = corruptions(&mut t) {
        t.expect("corruption fixtures", false, &e);
    }
    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = RunOpts { seed: 11, seconds: 1, trace, smoke: true };
            let o = run_workload(workload, &opts);
            let source = if trace { &o.layers } else { &o.e2e };
            let names: Vec<String> = if trace {
                metrics::per_layer().into_iter().map(|(n, _)| n).collect()
            } else {
                metrics::END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
            };
            let missing: Vec<&String> = names.iter().filter(|n| !source.get(*n).is_some_and(|v| v.is_finite())).collect();
            let failed: Vec<String> =
                o.checks.iter().filter_map(|c| c.result.as_ref().err().map(|e| format!("{}: {e}", c.name))).collect();
            t.expect(
                &format!("smoke {workload} trace={}", trace as u8),
                o.correct() && missing.is_empty() && o.attempted > 0 && o.failed == 0 && !o.checks.is_empty(),
                &format!("error {:?}, failed checks {failed:?}, missing metrics {missing:?}", o.error),
            );
        }
    }
    if t.failures == 0 {
        println!("self-test: PASS");
        ExitCode::SUCCESS
    } else {
        println!("self-test: {} FAILED", t.failures);
        ExitCode::FAILURE
    }
}

/// The catalogue in the code and the metrics `BENCHMARK.json` declares
/// must be the same names with the same units.
fn catalogue(t: &mut Tally) {
    let text = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => text,
        Err(e) => return t.expect("BENCHMARK.json readable", false, &e.to_string()),
    };
    let doc = match daas_obs::json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => return t.expect("BENCHMARK.json parses", false, &e),
    };
    let listed = |key: &str, field_name: &str| -> Vec<(String, String)> {
        field(&doc, key)
            .and_then(|v| v.as_arr())
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                let get = |k: &str| field(m, k).and_then(|v| v.as_str()).unwrap_or_default().to_string();
                (get("name"), get(field_name))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = metrics::END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    t.expect("end_to_end matches the catalogue", listed("end_to_end", "unit") == e2e, "names or units differ");
    let layers: Vec<(String, String)> = metrics::per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    t.expect("per_layer matches the catalogue", listed("per_layer", "unit") == layers, "names or units differ");
    let workloads: Vec<String> = listed("workloads", "why").into_iter().map(|(n, _)| n).collect();
    t.expect("workloads match", workloads == WORKLOADS, &format!("{workloads:?}"));
}

fn corruptions(t: &mut Tally) -> Result<(), String> {
    let config = WorldConfig::micro(7);
    let pipeline = run_pipeline(&config, &SnowballConfig::default())?;
    let web = run_website_pipeline(&pipeline.world, 0.8);
    let measured = pipeline.measured(&MeasureConfig::default());
    let truth = Truth::new(&pipeline.world.truth);
    let v = &measured.reports.victims;
    let clean = Artifact::from_batch(&pipeline.dataset, &pipeline.clustering, v.victims, v.total_usd);
    let all_pass = |checks: &[Check]| checks.iter().all(|c| c.result.is_ok());
    t.expect("clean artifact passes", all_pass(&artifact_checks(&clean, &truth)), "a check failed on clean output");
    if clean.families.len() < 2 || clean.contracts.is_empty() {
        return Err("micro world too small for the corruptions".into());
    }

    let mut a = clean.clone();
    let first = *a.contracts.iter().next().expect("non-empty");
    a.contracts.remove(&first);
    t.only_fails("one contract dropped", &artifact_checks(&a, &truth), "dataset");

    let mut a = clean.clone();
    a.total_usd += 1.0;
    t.only_fails("one victim's USD nudged", &artifact_checks(&a, &truth), "losses");

    let mut a = clean.clone();
    let second = a.families.remove(1);
    a.families[0].contracts.extend(second.contracts);
    a.families[0].operators.extend(second.operators);
    a.families[0].affiliates.extend(second.affiliates);
    let checks = artifact_checks(&a, &truth);
    t.expect(
        "two families merged fails family_purity",
        checks.iter().any(|c| c.name == "family_purity" && c.result.is_err()),
        "purity passed",
    );

    let mut a = clean.clone();
    a.families[0].name.push_str(" (renamed)");
    t.only_fails("one family renamed", &artifact_checks(&a, &truth), "family_names");

    let mut a = clean.clone();
    let foreign = a.families[1].affiliates.iter().find(|x| !a.families[0].affiliates.contains(x)).copied();
    a.families[0].affiliates.push(foreign.unwrap_or_else(|| Address::from_key_seed(b"stray")));
    t.only_fails("one foreign affiliate", &artifact_checks(&a, &truth), "affiliates");

    let sites = confirmed_sites(&web.report);
    let world = &pipeline.world;
    t.expect("clean website verdicts pass", website_check(&sites, world, &truth).result.is_ok(), "website failed");
    let benign = world.sites.sites.iter().zip(&world.sites.truth).find(|(_, st)| st.family.is_none());
    if let Some((site, _)) = benign {
        let mut bad = sites.clone();
        bad.push((site.domain.clone(), truth.names[0].clone()));
        t.expect("one benign domain confirmed fails website", website_check(&bad, world, &truth).result.is_err(), "passed");
    }

    // Restore: a daemon resumed at the checkpointed blocks and watermark,
    // one epoch on, passes; each coordinate shifted by one fails.
    let (before, saved) = ((10, 3_600, 5_000), (10, 5_000));
    let with_restore = |resumed| {
        let mut checks = artifact_checks(&clean, &truth);
        checks.push(restore_check(before, saved, resumed));
        checks
    };
    t.expect("clean restore passes", all_pass(&with_restore((11, 3_600, 5_000))), "a check failed");
    for (what, resumed) in [("epoch", (12, 3_600, 5_000)), ("block", (11, 3_601, 5_000)), ("watermark", (11, 3_600, 5_001))] {
        t.only_fails(&format!("restored {what} shifted by one"), &with_restore(resumed), "restore");
    }

    // Live answers, built from the ground truth: a clean log passes,
    // each corruption fails its own check.
    let mut daas: Vec<(&Address, &u64)> = truth.evidence.iter().collect();
    daas.sort();
    let (&late, &late_evidence) = *daas.iter().max_by_key(|(_, e)| **e).expect("some account");
    let end = truth.ps_txs.iter().max().copied().unwrap_or(0) + 1;
    let mut log = LiveLog::default();
    log.watermarks.insert(1, late_evidence);
    log.watermarks.insert(2, end);
    for (&address, _) in daas.iter().take(50) {
        log.risk.push(RiskAnswer { epoch: 2, address, is_daas: true, roles: truth.roles[&address], benign: false });
    }
    log.risk.push(RiskAnswer { epoch: 1, address: late, is_daas: false, roles: 0, benign: false });
    log.risk.push(RiskAnswer { epoch: 2, address: Address::from_key_seed(b"nobody"), is_daas: false, roles: 0, benign: true });
    for victim in truth.victims.iter().take(50) {
        let (incidents, usd) = truth.victim_below(victim, end);
        log.final_victims.push(VictimAnswer { epoch: 2, address: *victim, incidents, usd });
        let (incidents, usd) = truth.victim_below(victim, late_evidence);
        log.victims.push(VictimAnswer { epoch: 1, address: *victim, incidents, usd });
    }
    let family = clean.families[0].clone();
    log.families.push((2, family.contracts[0], Some(family)));
    log.totals = vec![(1, 1.0), (2, 2.0)];
    t.expect("clean live log passes", all_pass(&live_checks(&log, &truth)), "a live check failed");

    let mut l = log.clone();
    l.risk.push(RiskAnswer { epoch: 1, address: late, is_daas: true, roles: truth.roles[&late], benign: false });
    t.only_fails("one address flagged before its evidence", &live_checks(&l, &truth), "live_answers");

    let mut l = log.clone();
    let mut merged = clean.families[0].clone();
    merged.contracts.extend(&clean.families[1].contracts);
    l.families.push((2, merged.contracts[0], Some(merged)));
    t.only_fails("a family answer holding two true families", &live_checks(&l, &truth), "live_answers");

    let mut l = log.clone();
    let flagged = l.risk[0].address;
    l.watermarks.insert(3, end);
    l.risk.push(RiskAnswer { epoch: 3, address: flagged, is_daas: false, roles: 0, benign: false });
    t.only_fails("a flagged address unflagged later", &live_checks(&l, &truth), "monotonicity");

    let mut l = log.clone();
    l.final_victims[0].usd += 0.01;
    t.only_fails("one victim's USD nudged (live)", &live_checks(&l, &truth), "victim_answers");

    let mut l = log.clone();
    let benign_answer = l.risk.iter_mut().find(|r| r.benign).expect("benign answer");
    benign_answer.is_daas = true;
    t.only_fails("one random address flagged", &live_checks(&l, &truth), "benign_addresses");
    Ok(())
}
