//! The open-loop query generator shared by the daemon workloads: a
//! seeded query mix, sent on a fixed schedule over one connection, each
//! request timed from when it was due.

use std::time::{Duration, Instant};

use daas_obs::json::Value;
use daas_world::World;
use eth_types::Address;

use crate::checks::{role_flags, FamilyReply, FamilyView, LiveLog, RiskAnswer, Truth, VictimAnswer};
use crate::daemon::Conn;
use crate::util::{field, ms, num, parse_ok, Rng};

/// What a query asked, for reading its reply back.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `risk` on an address; `benign` when it was drawn at random.
    Risk { benign: bool },
    Victim,
    Family,
    Stats,
}

impl Kind {
    pub fn is_risk(self) -> bool {
        matches!(self, Kind::Risk { .. })
    }
}

/// One planned query.
pub struct Planned {
    pub kind: Kind,
    pub address: Option<Address>,
    pub line: String,
}

/// One answered query.
pub struct Answered {
    pub kind: Kind,
    pub address: Option<Address>,
    /// From when it was due to its reply, ms.
    pub latency_ms: f64,
    /// How late the generator sent it, ms.
    pub late_ms: f64,
    pub reply: String,
}

/// The address pools queries draw from, in chain or sorted order, so a
/// seed fixes the mix.
pub struct Pools {
    /// Ground-truth DaaS accounts (contracts, operators, affiliates).
    pub daas: Vec<Address>,
    /// Ground-truth victims.
    pub victims: Vec<Address>,
    /// Random addresses no chain account holds.
    pub benign: Vec<Address>,
    /// Per `ingest` window of the daemon's default size: the recipients
    /// (`to`) of its transactions, in chain order.
    pub recipients: Vec<Vec<Address>>,
}

impl Pools {
    pub fn new(truth: &Truth, world: &World, window_blocks: usize, seed: u64) -> Self {
        let mut daas: Vec<Address> = truth.roles.keys().copied().collect();
        daas.sort();
        let mut rng = Rng::new(seed ^ 0xb0b);
        let benign = (0..1024).map(|_| Address::from_key_seed(&rng.next_u64().to_le_bytes())).collect();
        let store = world.chain.transactions();
        let recipients = world
            .chain
            .blocks()
            .chunks(window_blocks)
            .map(|window| {
                let txs = window.iter().flat_map(|b| b.first_tx..b.first_tx + b.tx_count);
                txs.filter_map(|tx| store.view(tx as _).to()).collect()
            })
            .collect();
        Pools { daas, victims: truth.victims.clone(), benign, recipients }
    }

    /// A recipient of a transaction in `window`, or in the latest earlier
    /// window that has one, or, before any window has one, in the first
    /// window that does.
    pub fn recipient(&self, window: usize, rng: &mut Rng) -> Address {
        let last = window.min(self.recipients.len() - 1);
        let w = self.recipients[..=last]
            .iter()
            .rposition(|r| !r.is_empty())
            .or_else(|| self.recipients.iter().position(|r| !r.is_empty()))
            .expect("the chain has a transaction with a recipient");
        self.recipients[w][rng.below(self.recipients[w].len())]
    }
}

/// Shares of the query mix, in percent; `stats` takes the rest.
const RISK_RECIPIENT: usize = 85;
const RISK_RANDOM: usize = 5;
const VICTIM: usize = 4;
const FAMILY: usize = 3;

/// The query mix. `risk` follows wallet-guard's pre-signing check
/// (`LiveGuardClient::check_recipient`): query `j` asks about the
/// recipient of a transaction, drawn uniformly, from `window_of(j)`,
/// the window whose `ingest` was due last when the query is due. The
/// rest are assumed shares: `risk` on random addresses (for the benign
/// check), `victim` on a ground-truth victim, `family` by a DaaS
/// account's address, `stats`.
pub fn plan(pools: &Pools, rng: &mut Rng, n: usize, window_of: impl Fn(usize) -> usize) -> Vec<Planned> {
    (0..n)
        .map(|j| {
            let roll = rng.below(100);
            let (kind, address) = if roll < RISK_RECIPIENT {
                (Kind::Risk { benign: false }, Some(pools.recipient(window_of(j), rng)))
            } else if roll < RISK_RECIPIENT + RISK_RANDOM {
                (Kind::Risk { benign: true }, Some(pools.benign[rng.below(pools.benign.len())]))
            } else if roll < RISK_RECIPIENT + RISK_RANDOM + VICTIM {
                (Kind::Victim, Some(pools.victims[rng.below(pools.victims.len())]))
            } else if roll < RISK_RECIPIENT + RISK_RANDOM + VICTIM + FAMILY {
                (Kind::Family, Some(pools.daas[rng.below(pools.daas.len())]))
            } else {
                (Kind::Stats, None)
            };
            Planned { kind, address, line: request_line(kind, address) }
        })
        .collect()
}

pub fn request_line(kind: Kind, address: Option<Address>) -> String {
    let addr = address.map(|a| a.to_string()).unwrap_or_default();
    match kind {
        Kind::Risk { .. } => format!("{{\"cmd\":\"risk\",\"address\":\"{addr}\"}}"),
        Kind::Victim => format!("{{\"cmd\":\"victim\",\"address\":\"{addr}\"}}"),
        Kind::Family => format!("{{\"cmd\":\"family\",\"address\":\"{addr}\"}}"),
        Kind::Stats => "{\"cmd\":\"stats\"}".to_string(),
    }
}

/// Sleeps until `due`: a coarse sleep, then a short spin, so the send
/// lands on its slot instead of a timer-slack later.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Sends the planned queries, query `j` due at `start + j * period`.
/// Stops at the first failed request (a hang counts after the read
/// timeout) and returns what was answered plus that error.
pub fn run_queries(conn: &mut Conn, start: Instant, period: Duration, planned: &[Planned]) -> (Vec<Answered>, Option<String>) {
    let mut answered = Vec::with_capacity(planned.len());
    for (j, q) in planned.iter().enumerate() {
        let due = start + period * j as u32;
        wait_until(due);
        let sent = Instant::now();
        match conn.request_raw(&q.line) {
            Ok(reply) => answered.push(Answered {
                kind: q.kind,
                address: q.address,
                latency_ms: ms(Instant::now() - due),
                late_ms: ms(sent - due),
                reply,
            }),
            Err(e) => return (answered, Some(e)),
        }
    }
    (answered, None)
}

/// Reads answered queries into the live log (`final_answers` marks
/// victim answers given after the stream ended).
pub fn record(answered: &[Answered], log: &mut LiveLog, final_answers: bool) -> Result<(), String> {
    for a in answered {
        if a.kind == Kind::Family {
            // Family replies carry whole member lists: typed parse.
            let reply: FamilyReply = serde_json::from_str(&a.reply).map_err(|e| format!("family reply: {e}"))?;
            let family = reply.family.as_ref().map(FamilyView::from);
            log.families.push((reply.epoch, a.address.expect("family has an address"), family));
            continue;
        }
        let v: Value = parse_ok(&a.reply)?;
        let epoch = num(&v, "epoch").ok_or("reply without epoch")? as u64;
        match a.kind {
            Kind::Risk { benign } => log.risk.push(RiskAnswer {
                epoch,
                address: a.address.expect("risk has an address"),
                is_daas: crate::util::flag(&v, "is_daas"),
                roles: role_flags(&v),
                benign,
            }),
            Kind::Victim => {
                let answer = VictimAnswer {
                    epoch,
                    address: a.address.expect("victim has an address"),
                    incidents: num(&v, "incidents").ok_or("victim reply without incidents")? as usize,
                    usd: num(&v, "usd").ok_or("victim reply without usd")?,
                };
                if final_answers {
                    log.final_victims.push(answer);
                } else {
                    log.victims.push(answer);
                }
            }
            Kind::Family => unreachable!("parsed above"),
            Kind::Stats => {
                let stats = field(&v, "stats").ok_or("stats reply without stats")?;
                log.totals.push((epoch, num(stats, "total_usd").ok_or("stats without total_usd")?));
            }
        }
    }
    Ok(())
}
