//! `live-serve`: a `daas-serve` daemon at reduced scale with its default
//! 64-block windows. One connection feeds `ingest` windows on a fixed
//! open-loop schedule (plus a `status` after each); a second sends the
//! query mix at a fixed rate. Every request is timed from when it was
//! due. After each pass a probe daemon times the first queries on fresh
//! epochs with no other traffic. Batch code is never used.

use std::path::Path;
use std::time::{Duration, Instant};

use daas_world::{World, WorldConfig};

use crate::checks::{artifact_checks, live_checks, Artifact, LiveLog, Truth};
use crate::daemon::{build_daas_serve, obs_args, world_args, Conn, Daemon};
use crate::loadgen::{plan, record, request_line, run_queries, wait_until, Answered, Kind, Pools};
use crate::recorder::{write_trace, Recorded};
use crate::util::{median, ms, num, quantile, Rng};
use crate::{Outcome, RunOpts};

/// World scale: a tenth of the paper's chain (~245 windows of 64 blocks
/// per pass).
const SCALE: f64 = 0.1;
/// One `ingest` window is due every 20 ms (50 windows/s).
const WINDOW_PERIOD: Duration = Duration::from_millis(20);
/// One query is due every 2 ms (500 queries/s).
const QUERY_PERIOD: Duration = Duration::from_millis(2);
/// Nominal seconds of one pass (boot + stream + artifact, then the
/// probe); the run makes `seconds / ROUND_S` passes, at least one.
const ROUND_S: u64 = 4;
/// Boots measured for `setup_s`, at least (passes count as boots).
const SETUP_SAMPLES: u64 = 3;
/// Victims asked about once the stream is in, per pass.
const FINAL_VICTIMS: usize = 100;
/// The daemon's default window, for planning the schedule.
const DEFAULT_WINDOW_BLOCKS: u64 = 64;

/// What one pass measured.
#[derive(Default)]
pub struct Pass {
    pub setup_s: f64,
    pub publish_ms: Vec<f64>,
    /// Per window: from sending `ingest` to its reply, ms.
    pub service_ms: Vec<f64>,
    pub txs: f64,
    pub status_rtt_ms: Vec<f64>,
    pub answered: Vec<Answered>,
    pub artifact_s: f64,
    pub rss_mb: f64,
    pub late_ms_max: f64,
    pub windows: u64,
    pub ps_txs: f64,
}

/// What the workload needs from the ground-truth world.
pub struct TruthWorld {
    pub truth: Truth,
    pub pools: Pools,
    pub build_ms: f64,
    pub txs: f64,
    pub arena_mb: f64,
    pub classify_all_ms: f64,
}

/// Builds the same world the daemon builds (same seed and scale) and
/// keeps what the checks and the query mix need.
pub fn truth_world(config: &WorldConfig, traced: bool) -> Result<TruthWorld, String> {
    let t = Instant::now();
    let world = World::build(config)?;
    let build_ms = ms(t.elapsed());
    let truth = Truth::new(&world.truth);
    let store = world.chain.transactions();
    let bytes: usize = store.column_bytes().iter().map(|(_, b)| b).sum();
    let mut classify_all_ms = 0.0;
    if traced {
        let cfg = daas_detector::ClassifierConfig::default();
        let t = Instant::now();
        let hits = store.iter().filter(|tx| daas_detector::classify_tx(*tx, &cfg).is_some()).count();
        classify_all_ms = ms(t.elapsed());
        std::hint::black_box(hits);
    }
    Ok(TruthWorld {
        pools: Pools::new(&truth, &world, DEFAULT_WINDOW_BLOCKS as usize, config.seed),
        truth,
        build_ms,
        txs: store.len() as f64,
        arena_mb: bytes as f64 / (1u64 << 20) as f64,
        classify_all_ms,
    })
}

/// Spawns a daemon and waits for its first `status` reply; returns the
/// daemon, its connection, the spawn-to-reply time and that reply.
pub fn boot(bin: &Path, args: &[String]) -> Result<(Daemon, Conn, f64, daas_obs::json::Value), String> {
    let mut daemon = Daemon::spawn(bin, args)?;
    let mut conn = daemon.connect()?;
    let status = conn.request("{\"cmd\":\"status\"}")?;
    let setup_s = daemon.spawned.elapsed().as_secs_f64();
    Ok((daemon, conn, setup_s, status))
}

pub fn run(opts: &RunOpts) -> Outcome {
    let scale = if opts.smoke { 0.005 } else { SCALE };
    let mut out = Outcome { scale, ..Outcome::default() };
    if let Err(e) = run_inner(opts, scale, &mut out) {
        out.failed += 1;
        out.error = Some(e);
    }
    out
}

fn run_inner(opts: &RunOpts, scale: f64, out: &mut Outcome) -> Result<(), String> {
    let bin = build_daas_serve()?;
    let config = WorldConfig { scale, ..WorldConfig::paper_scale(opts.seed) };
    let tw = truth_world(&config, opts.trace)?;
    let args = world_args(opts.seed, scale);
    let passes = (opts.seconds / ROUND_S).max(1);
    let mut rng = Rng::new(opts.seed);
    let mut log = LiveLog::default();
    let mut results = Vec::new();
    let mut probes: [Vec<f64>; 6] = Default::default();
    for _ in 0..passes {
        results.push(pass(&bin, &args, &tw, &mut rng, &mut log, out)?);
        probe_snapshots(&bin, &args, &mut log, &tw, &mut probes, out)?;
    }
    let mut setups: Vec<f64> = results.iter().map(|p| p.setup_s).collect();
    for _ in passes..SETUP_SAMPLES {
        let (daemon, mut conn, setup_s, _) = boot(&bin, &args)?;
        out.attempted += 2;
        daemon.shutdown(&mut conn)?;
        setups.push(setup_s);
    }
    // Per probe: the first `risk`, `victim` and `stats` on a fresh epoch.
    let first_lookup_s: Vec<f64> = (0..probes[0].len()).map(|i| (probes[0][i] + probes[2][i] + probes[4][i]) / 1e3).collect();

    let publish: Vec<f64> = results.iter().flat_map(|p| p.publish_ms.iter().copied()).collect();
    let latency = |pick: fn(Kind) -> bool| -> Vec<f64> {
        results.iter().flat_map(|p| p.answered.iter()).filter(|a| pick(a.kind)).map(|a| a.latency_ms).collect()
    };
    let risk = latency(Kind::is_risk);
    let lookup = latency(|k| !k.is_risk());
    let service_ms: Vec<f64> = results.iter().flat_map(|p| p.service_ms.iter().copied()).collect();
    let service_s: f64 = service_ms.iter().sum::<f64>() / 1e3;
    let txs: f64 = results.iter().map(|p| p.txs).sum();
    let artifact_s = median(&results.iter().map(|p| p.artifact_s).collect::<Vec<_>>());
    out.e2e.insert("setup_s".into(), median(&setups));
    out.e2e.insert("peak_rss_mb".into(), results.iter().map(|p| p.rss_mb).fold(0.0, f64::max));
    // Windows are ~1 ms of work, so a mean over their service times
    // mostly measures scheduler stalls: use the median window.
    let windows = publish.len() as f64;
    out.e2e.insert("tx_per_s".into(), txs / windows / (median(&service_ms) / 1e3));
    out.e2e.insert("result_s".into(), median(&first_lookup_s));
    out.e2e.insert("verdict_ms.p50".into(), quantile(&publish, 0.5));
    out.named("window_publish_ms.p50", quantile(&publish, 0.5), "ms");
    out.named("window_publish_ms.p99", quantile(&publish, 0.99), "ms");
    out.named("verdict_ms.p99", quantile(&publish, 0.99), "ms");
    out.named("risk_ms.p50", quantile(&risk, 0.5), "ms");
    out.named("risk_ms.p99", quantile(&risk, 0.99), "ms");
    out.named("lookup_ms.p50", quantile(&lookup, 0.5), "ms");
    out.named("lookup_ms.p99", quantile(&lookup, 0.99), "ms");
    out.named("first_lookup_s", median(&first_lookup_s), "s");
    out.named("artifact_s", artifact_s, "s");
    out.named("windows", publish.len() as f64, "count");
    out.named("queries", risk.len() as f64 + lookup.len() as f64, "count");
    out.named("risk_queries", risk.len() as f64, "count");
    out.named("lookup_queries", lookup.len() as f64, "count");
    out.named("passes", passes as f64, "count");

    if opts.trace {
        for (name, _) in crate::metrics::per_layer() {
            out.layers.insert(name, 0.0);
        }
        daas_obs::set_enabled(true);
        let _ = daas_obs::drain();
        let (obs, metrics, trace) = obs_args("live");
        let traced_args: Vec<String> = args.iter().cloned().chain(obs).collect();
        let traced = pass(&bin, &traced_args, &tw, &mut rng, &mut log, out);
        daas_obs::set_enabled(false);
        let own = daas_obs::drain();
        let traced = traced?;
        let recorded = Recorded::from_files(&metrics, &trace)?;
        recorded.fill_world(&mut out.layers);
        recorded.fill_layers(&mut out.layers);
        let l = &mut out.layers;
        l.insert("world.build_ms".into(), tw.build_ms);
        l.insert("chain.txs".into(), tw.txs);
        l.insert("chain.arena_mb".into(), tw.arena_mb);
        l.insert("detector.classify_all_ms".into(), tw.classify_all_ms);
        l.insert("detector.ps_txs".into(), traced.ps_txs);
        for (slot, name) in PROBES.iter().enumerate() {
            l.insert(format!("snapshot.{name}"), median(&probes[slot]));
        }
        let base = service_s / passes as f64;
        l.insert("obs.overhead_base_s".into(), base);
        let traced_s = traced.service_ms.iter().sum::<f64>() / 1e3;
        l.insert("obs.overhead_pct".into(), 100.0 * (traced_s - base) / base);
        let statuses: Vec<f64> = results.iter().chain([&traced]).flat_map(|p| p.status_rtt_ms.iter().copied()).collect();
        l.insert("server.status_rtt_ms".into(), median(&statuses));
        let all = results.iter().chain([&traced]);
        l.insert("loadgen.late_ms.max".into(), all.clone().map(|p| p.late_ms_max).fold(0.0, f64::max));
        l.insert("loadgen.windows".into(), all.clone().map(|p| p.windows as f64).sum());
        l.insert("loadgen.queries".into(), all.map(|p| p.answered.len() as f64).sum());
        write_trace(Path::new(".bench_run/trace-live-serve.jsonl"), &own, &[("traced-pass".into(), trace.clone())])?;
        crate::daemon::remove_obs_files(&metrics, &trace);
    }
    out.checks.extend(live_checks(&log, &tw.truth));
    Ok(())
}

/// One pass: boot, stream every window with the query mix beside it,
/// ask about victims once the stream is in, fetch the artifact, read
/// the daemon's peak RSS, shut down; then check the artifact.
fn pass(bin: &Path, args: &[String], tw: &TruthWorld, rng: &mut Rng, log: &mut LiveLog, out: &mut Outcome) -> Result<Pass, String> {
    let _span = daas_obs::span!("bench.pass");
    let (mut daemon, mut control, setup_s, status) = boot(bin, args)?;
    let mut p = Pass { setup_s, ..Pass::default() };
    log.watermark(&status)?;
    let total_blocks = num(&status, "total_blocks").ok_or("status without total_blocks")? as u64;
    let windows = total_blocks.div_ceil(DEFAULT_WINDOW_BLOCKS) + 1;
    let n_queries = (windows as u128 * WINDOW_PERIOD.as_nanos() / QUERY_PERIOD.as_nanos()) as usize;
    let window_of = |j: usize| (j as u128 * QUERY_PERIOD.as_nanos() / WINDOW_PERIOD.as_nanos()) as usize;
    let planned = plan(&tw.pools, rng, n_queries, window_of);
    let mut queries = daemon.connect()?;

    let start = Instant::now() + Duration::from_millis(20);
    let (ingest, (answered, query_err)) = std::thread::scope(|s| {
        let q = s.spawn(|| run_queries(&mut queries, start, QUERY_PERIOD, &planned));
        let ingest = ingest_stream(&mut control, start, log, &mut p);
        (ingest, q.join().unwrap_or_else(|_| (Vec::new(), Some("query thread panicked".into()))))
    });
    out.attempted += answered.len() as u64 + 2 * p.windows;
    p.late_ms_max = answered.iter().map(|a| a.late_ms).fold(p.late_ms_max, f64::max);
    ingest?;
    if let Some(e) = query_err {
        return Err(e);
    }
    record(&answered, log, false)?;
    p.answered = answered;

    // The stream is in: victims' answers must now match exactly.
    let finals: Vec<_> = (0..FINAL_VICTIMS)
        .map(|_| {
            let v = tw.pools.victims[rng.below(tw.pools.victims.len())];
            crate::loadgen::Planned { kind: Kind::Victim, address: Some(v), line: request_line(Kind::Victim, Some(v)) }
        })
        .collect();
    let (final_answers, err) = run_queries(&mut queries, Instant::now(), Duration::ZERO, &finals);
    out.attempted += final_answers.len() as u64;
    if let Some(e) = err {
        return Err(e);
    }
    record(&final_answers, log, true)?;

    let t = Instant::now();
    let reply = {
        let _s = daas_obs::span!("bench.artifact");
        control.request_raw("{\"cmd\":\"artifact\"}")?
    };
    p.artifact_s = t.elapsed().as_secs_f64();
    p.rss_mb = daemon.peak_rss_mb();
    out.attempted += 3;
    drop(queries);
    daemon.shutdown(&mut control)?;
    let artifact = Artifact::from_reply(&reply)?;
    p.ps_txs = artifact.ps_txs.len() as f64;
    crate::checks::merge_checks(&mut out.checks, artifact_checks(&artifact, &tw.truth));
    Ok(p)
}

/// Feeds every window on its schedule, window `i` due at
/// `start + i * WINDOW_PERIOD`, with a `status` after each.
fn ingest_stream(conn: &mut Conn, start: Instant, log: &mut LiveLog, p: &mut Pass) -> Result<(), String> {
    for i in 0u32.. {
        let due = start + WINDOW_PERIOD * i;
        wait_until(due);
        let sent = Instant::now();
        p.late_ms_max = p.late_ms_max.max(ms(sent - due));
        let reply = {
            let _s = daas_obs::span!("bench.ingest", window = i);
            conn.request("{\"cmd\":\"ingest\"}")?
        };
        let done_at = Instant::now();
        p.windows += 1;
        p.publish_ms.push(ms(done_at - due));
        p.service_ms.push(ms(done_at - sent));
        p.txs = log.watermark(&reply)? as f64;

        let t = Instant::now();
        let status = conn.request("{\"cmd\":\"status\"}")?;
        p.status_rtt_ms.push(ms(t.elapsed()));
        log.totals.push((
            num(&status, "epoch").ok_or("status without epoch")? as u64,
            num(&status, "total_usd").ok_or("status without total_usd")?,
        ));
        if crate::util::flag(&reply, "done") {
            return Ok(());
        }
    }
    unreachable!("the window loop only ends at the stream's end")
}

/// What each probe asks, in order, named as the `snapshot.*` metrics.
const PROBES: [&str; 6] = ["risk_first_ms", "risk_warm_ms", "victim_first_ms", "victim_warm_ms", "stats_first_ms", "family_ms"];

/// Per-epoch cost of the reader-side indices: on a daemon of its own,
/// after every `PROBE_EVERY`-th window ingested back-to-back (no other
/// traffic), the first and a repeated `risk` (on a recipient of that
/// window) and `victim`, the first `stats` and a `family` on that epoch,
/// each timed as a round trip. Adds the samples in [`PROBES`] order.
fn probe_snapshots(
    bin: &Path,
    args: &[String],
    log: &mut LiveLog,
    tw: &TruthWorld,
    samples: &mut [Vec<f64>; 6],
    out: &mut Outcome,
) -> Result<(), String> {
    const PROBE_EVERY: usize = 10;
    let _span = daas_obs::span!("bench.probe");
    let (daemon, mut conn, _, status) = boot(bin, args)?;
    out.attempted += 1;
    log.watermark(&status)?;
    let mut rng = Rng::new(7);
    for i in 0.. {
        let reply = conn.request("{\"cmd\":\"ingest\"}")?;
        out.attempted += 1;
        log.watermark(&reply)?;
        if crate::util::flag(&reply, "done") {
            break;
        }
        if (i + 1) % PROBE_EVERY != 0 {
            continue;
        }
        let r = tw.pools.recipient(i, &mut rng);
        let a = tw.pools.daas[rng.below(tw.pools.daas.len())];
        let v = tw.pools.victims[rng.below(tw.pools.victims.len())];
        let asks = [
            (Kind::Risk { benign: false }, Some(r)),
            (Kind::Risk { benign: false }, Some(r)),
            (Kind::Victim, Some(v)),
            (Kind::Victim, Some(v)),
            (Kind::Stats, None),
            (Kind::Family, Some(a)),
        ];
        let mut answered = Vec::new();
        for (slot, (kind, address)) in asks.into_iter().enumerate() {
            let t = Instant::now();
            let reply = conn.request_raw(&request_line(kind, address))?;
            samples[slot].push(ms(t.elapsed()));
            answered.push(Answered { kind, address, latency_ms: 0.0, late_ms: 0.0, reply });
        }
        out.attempted += answered.len() as u64;
        record(&answered, log, false)?;
    }
    out.attempted += 1;
    daemon.shutdown(&mut conn)
}
