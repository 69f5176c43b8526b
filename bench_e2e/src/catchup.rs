//! `catch-up-restore`: a daemon at paper scale replays half the chain
//! back-to-back in 7200-block windows, checkpoints and shuts down; a
//! second daemon restores from the checkpoint, replays the rest and
//! returns the final `artifact`. No queries are sent: bulk online
//! throughput and checkpoint/restore cost are what this workload
//! measures.

use std::path::{Path, PathBuf};
use std::time::Instant;

use daas_obs::json::Value;
use daas_world::WorldConfig;

use crate::checks::{artifact_checks, monotonicity_check, restore_check, Artifact, LiveLog, Position};
use crate::daemon::{build_daas_serve, obs_args, world_args, Conn, RUN_DIR};
use crate::live::{boot, truth_world, TruthWorld};
use crate::recorder::{write_trace, Recorded};
use crate::util::{flag, median, ms, num, quantile};
use crate::{Outcome, RunOpts};

/// Blocks per `ingest` window: one day of 12-second slots.
const WINDOW_BLOCKS: u64 = 7_200;
/// Nominal seconds of one round; the run makes `seconds / ROUND_S`
/// rounds, at least one (3 at 24 s, so the medians have a middle).
const ROUND_S: u64 = 8;
/// Fresh boots measured for `setup_s`, at least.
const SETUP_SAMPLES: u64 = 3;

/// What one round measured.
#[derive(Default)]
struct Round {
    setup_s: f64,
    restore_s: f64,
    checkpoint_s: f64,
    checkpoint_mb: f64,
    artifact_s: f64,
    /// Per window: from the start of its replay phase to its reply, ms.
    verdict_ms: Vec<f64>,
    ingest_s: f64,
    txs: f64,
    status_rtt_ms: Vec<f64>,
    /// Peak RSS of the daemon that checkpointed, and of the restored one.
    rss_mb: [f64; 2],
    windows: u64,
}

pub fn run(opts: &RunOpts) -> Outcome {
    let scale = if opts.smoke { 0.005 } else { 1.0 };
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
    let rounds = (opts.seconds / ROUND_S).max(1);
    let mut log = LiveLog::default();
    let mut results = Vec::new();
    for _ in 0..rounds {
        results.push(round(&bin, &args, None, &tw, &mut log, out)?);
    }
    let mut setups: Vec<f64> = results.iter().map(|r| r.setup_s).collect();
    for _ in rounds..SETUP_SAMPLES {
        let (daemon, mut conn, setup_s, _) = boot(&bin, &args)?;
        out.attempted += 2;
        daemon.shutdown(&mut conn)?;
        setups.push(setup_s);
    }

    let col = |f: fn(&Round) -> f64| results.iter().map(f).collect::<Vec<_>>();
    let verdicts: Vec<f64> = results.iter().flat_map(|r| r.verdict_ms.iter().copied()).collect();
    let ingest_s: f64 = col(|r| r.ingest_s).iter().sum();
    let replay = col(|r| r.txs).iter().sum::<f64>() / ingest_s;
    out.e2e.insert("setup_s".into(), median(&setups));
    out.e2e.insert("peak_rss_mb".into(), col(|r| r.rss_mb[0].max(r.rss_mb[1])).into_iter().fold(0.0, f64::max));
    out.e2e.insert("tx_per_s".into(), replay);
    out.e2e.insert("result_s".into(), median(&col(|r| r.checkpoint_s + r.restore_s + r.artifact_s)));
    out.e2e.insert("verdict_ms.p50".into(), quantile(&verdicts, 0.5));
    out.named("verdict_ms.p99", quantile(&verdicts, 0.99), "ms");
    out.named("replay_tx_per_s", replay, "tx/s");
    out.named("checkpoint_s", median(&col(|r| r.checkpoint_s)), "s");
    out.named("checkpoint_mb", median(&col(|r| r.checkpoint_mb)), "MB");
    out.named("restore_s", median(&col(|r| r.restore_s)), "s");
    out.named("artifact_s", median(&col(|r| r.artifact_s)), "s");
    out.named("rss_checkpointed_mb", median(&col(|r| r.rss_mb[0])), "MB");
    out.named("rss_restored_mb", median(&col(|r| r.rss_mb[1])), "MB");
    out.named("windows", verdicts.len() as f64, "count");
    out.named("rounds", rounds as f64, "count");

    if opts.trace {
        for (name, _) in crate::metrics::per_layer() {
            out.layers.insert(name, 0.0);
        }
        daas_obs::set_enabled(true);
        let _ = daas_obs::drain();
        let traced = round(&bin, &args, Some(("catch-up-a", "catch-up-b")), &tw, &mut log, out);
        daas_obs::set_enabled(false);
        let own = daas_obs::drain();
        let traced = traced?;
        let (_, metrics_a, trace_a) = obs_args("catch-up-a");
        let (_, metrics_b, trace_b) = obs_args("catch-up-b");
        let fresh = Recorded::from_files(&metrics_a, &trace_a)?;
        fresh.fill_world(&mut out.layers);
        let mut both = fresh;
        both.merge(Recorded::from_files(&metrics_b, &trace_b)?);
        both.fill_layers(&mut out.layers);
        let l = &mut out.layers;
        l.insert("world.build_ms".into(), tw.build_ms);
        l.insert("chain.txs".into(), tw.txs);
        l.insert("chain.arena_mb".into(), tw.arena_mb);
        l.insert("detector.classify_all_ms".into(), tw.classify_all_ms);
        l.insert("detector.ps_txs".into(), tw.truth.ps_txs.len() as f64);
        l.insert("restore.state_s".into(), traced.restore_s - traced.setup_s);
        let base = ingest_s / rounds as f64;
        l.insert("obs.overhead_base_s".into(), base);
        l.insert("obs.overhead_pct".into(), 100.0 * (traced.ingest_s - base) / base);
        let statuses: Vec<f64> = results.iter().chain([&traced]).flat_map(|r| r.status_rtt_ms.iter().copied()).collect();
        l.insert("server.status_rtt_ms".into(), median(&statuses));
        l.insert("loadgen.windows".into(), results.iter().chain([&traced]).map(|r| r.windows as f64).sum());
        write_trace(
            Path::new(".bench_run/trace-catch-up-restore.jsonl"),
            &own,
            &[("fresh".into(), trace_a.clone()), ("restored".into(), trace_b.clone())],
        )?;
        crate::daemon::remove_obs_files(&metrics_a, &trace_a);
        crate::daemon::remove_obs_files(&metrics_b, &trace_b);
    }
    out.checks.push(monotonicity_check(&log));
    Ok(())
}

/// Ingests 7200-block windows back-to-back until `stop(blocks_ingested)`
/// or the stream's end, with a `status` after each; every window's
/// verdict latency counts from the start of the phase, when all its
/// blocks were already sealed.
fn replay(conn: &mut Conn, r: &mut Round, log: &mut LiveLog, out: &mut Outcome, stop: impl Fn(u64) -> bool) -> Result<Position, String> {
    let _span = daas_obs::span!("bench.replay");
    let request = format!("{{\"cmd\":\"ingest\",\"blocks\":{WINDOW_BLOCKS}}}");
    let start = Instant::now();
    loop {
        let sent = Instant::now();
        let reply = {
            let _s = daas_obs::span!("bench.ingest");
            conn.request(&request)?
        };
        let done_at = Instant::now();
        r.verdict_ms.push(ms(done_at - start));
        r.ingest_s += (done_at - sent).as_secs_f64();
        r.windows += 1;
        log.watermark(&reply)?;
        let t = Instant::now();
        let status = conn.request("{\"cmd\":\"status\"}")?;
        r.status_rtt_ms.push(ms(t.elapsed()));
        out.attempted += 2;
        let position = position(&status)?;
        log.totals.push((position.0, num(&status, "total_usd").ok_or("status without total_usd")?));
        if flag(&reply, "done") || stop(position.1) {
            return Ok(position);
        }
    }
}

/// The (epoch, blocks ingested, watermark) a `status` reply names.
fn position(status: &Value) -> Result<Position, String> {
    let field = |key: &str| num(status, key).map(|v| v as u64).ok_or(format!("status without {key}"));
    Ok((field("epoch")?, field("blocks_ingested")?, field("watermark")?))
}

/// One round: fresh boot → first half → checkpoint → shutdown →
/// restore → second half → artifact → shutdown; `traced` names the two
/// daemons' recorder outputs.
fn round(
    bin: &Path,
    args: &[String],
    traced: Option<(&str, &str)>,
    tw: &TruthWorld,
    log: &mut LiveLog,
    out: &mut Outcome,
) -> Result<Round, String> {
    let _span = daas_obs::span!("bench.round");
    let mut r = Round::default();
    let mut fresh_args = args.to_vec();
    if let Some((a, _)) = traced {
        fresh_args.extend(obs_args(a).0);
    }
    let (daemon, mut conn, setup_s, status) = boot(bin, &fresh_args)?;
    r.setup_s = setup_s;
    log.watermark(&status)?;
    let half = num(&status, "total_blocks").ok_or("status without total_blocks")? as u64 / 2;
    let at_half = replay(&mut conn, &mut r, log, out, |blocks| blocks >= half)?;

    let ckpt = PathBuf::from(format!("{RUN_DIR}/{}-checkpoint.json", std::process::id()));
    let request = format!("{{\"cmd\":\"checkpoint\",\"path\":\"{}\"}}", ckpt.display());
    let t = Instant::now();
    let reply = {
        let _s = daas_obs::span!("bench.checkpoint");
        conn.request(&request)?
    };
    r.checkpoint_s = t.elapsed().as_secs_f64();
    r.checkpoint_mb = std::fs::metadata(&ckpt).map_err(|e| format!("checkpoint file: {e}"))?.len() as f64 / (1u64 << 20) as f64;
    let saved = (
        num(&reply, "epoch").ok_or("checkpoint reply without epoch")? as u64,
        num(&reply, "watermark").ok_or("checkpoint reply without watermark")? as u64,
    );
    r.rss_mb[0] = daemon.peak_rss_mb();
    out.attempted += 1;
    daemon.shutdown(&mut conn)?;

    let mut restore_args = vec!["--restore".to_string(), ckpt.display().to_string()];
    if let Some((_, b)) = traced {
        restore_args.extend(obs_args(b).0);
    }
    let restored = boot(bin, &restore_args);
    let _ = std::fs::remove_file(&ckpt);
    let (daemon, mut conn, restore_s, status) = restored?;
    r.restore_s = restore_s;
    out.attempted += 1;
    log.watermark(&status)?;
    let restore = restore_check(at_half, saved, position(&status)?);
    replay(&mut conn, &mut r, log, out, |_| false)?;

    let t = Instant::now();
    let reply = {
        let _s = daas_obs::span!("bench.artifact");
        conn.request_raw("{\"cmd\":\"artifact\"}")?
    };
    r.artifact_s = t.elapsed().as_secs_f64();
    out.attempted += 1;
    r.txs = tw.txs;
    r.rss_mb[1] = daemon.peak_rss_mb();
    daemon.shutdown(&mut conn)?;

    let artifact = Artifact::from_reply(&reply)?;
    let mut checks = artifact_checks(&artifact, &tw.truth);
    checks.push(restore);
    crate::checks::merge_checks(&mut out.checks, checks);
    Ok(r)
}
