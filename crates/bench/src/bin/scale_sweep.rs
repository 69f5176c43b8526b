//! Scale sweep: prove the columnar chain sustains multi-× worlds with
//! bounded memory, and record where the bytes and milliseconds go.
//!
//! Runs the full batch pipeline (world → snowball → clustering → §6
//! measurement → full-chain classification sweep) once per requested
//! scale and writes `BENCH_scale_sweep.json` with wall clocks, the
//! arena's per-column heap footprint, and the process peak RSS
//! (`VmHWM` from `/proc/self/status`).
//!
//! Environment:
//! * `DAAS_SCALES` — comma-separated scale multipliers (default `2`;
//!   scale 1.0 is the paper-calibrated world, ~218k txs).
//! * `DAAS_THREADS` — as everywhere else.
//! * `DAAS_RSS_CEILING_MB` — optional gate: exit non-zero if peak RSS
//!   exceeds the ceiling after the sweep (the ci.sh smoke sets this).
//! * `DAAS_SCALE_SWEEP_OUT` — output path (default
//!   `BENCH_scale_sweep.json` in the working directory).

use std::fmt::Write as _;
use std::time::Instant;

use daas_cluster::{cluster_with, ClusterConfig};
use daas_detector::{build_dataset_with_cache, ClassificationCache};
use daas_measure::{MeasureConfig, MeasureCtx};
use daas_world::{collection_end, World, WorldConfig};

/// Peak resident set size in bytes (`VmHWM`), or 0 where `/proc` is
/// unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 =
                rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

struct Run {
    scale: f64,
    txs: usize,
    accounts: usize,
    world_ms: f64,
    snowball_ms: f64,
    cluster_ms: f64,
    measure_ms: f64,
    classify_ms: f64,
    arena: Vec<(&'static str, usize)>,
    peak_rss_bytes: u64,
}

fn run_at(scale: f64) -> Run {
    let config = WorldConfig { scale, ..WorldConfig::paper_scale(7) };
    let snowball = daas_bench::snowball_config();

    let t = Instant::now();
    let world = World::build(&config).expect("world builds");
    let world_ms = ms(t);

    let t = Instant::now();
    let cache = ClassificationCache::new();
    let dataset = build_dataset_with_cache(&world.chain, &world.labels, &snowball, &cache);
    let snowball_ms = ms(t);

    let t = Instant::now();
    let clustering = cluster_with(
        &world.chain,
        &world.labels,
        &dataset,
        &ClusterConfig::sequential(),
    );
    let cluster_ms = ms(t);

    let t = Instant::now();
    let reports = MeasureCtx::new(&world.chain, &dataset, &world.oracle).reports(
        &world.labels,
        30 * 86_400,
        collection_end(),
        &MeasureConfig::sequential(),
    );
    let measure_ms = ms(t);

    // The headline hot path: classify every transaction once, cold.
    let t = Instant::now();
    let fresh = ClassificationCache::new();
    let n = world.chain.transactions().len() as daas_chain::TxId;
    let mut positives = 0usize;
    for id in 0..n {
        if fresh.classify(&world.chain, id, &snowball.classifier).is_some() {
            positives += 1;
        }
    }
    let classify_ms = ms(t);

    eprintln!(
        "scale {scale}: {} txs, {} families, {} victims, {} positives — \
         world {world_ms:.0}ms snowball {snowball_ms:.0}ms cluster {cluster_ms:.0}ms \
         measure {measure_ms:.0}ms classify {classify_ms:.0}ms",
        n,
        clustering.families.len(),
        reports.victims.victims,
        positives,
    );

    Run {
        scale,
        txs: n as usize,
        accounts: world.chain.transactions().interner().len(),
        world_ms,
        snowball_ms,
        cluster_ms,
        measure_ms,
        classify_ms,
        arena: world.chain.transactions().column_bytes(),
        peak_rss_bytes: peak_rss_bytes(),
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let scales: Vec<f64> = std::env::var("DAAS_SCALES")
        .unwrap_or_else(|_| "2".to_owned())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    assert!(!scales.is_empty(), "DAAS_SCALES parsed to nothing");

    let runs: Vec<Run> = scales.iter().map(|&s| run_at(s)).collect();

    let mut out = String::from("{\n \"group\": \"scale_sweep\",\n \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "  {{\n   \"scale\": {},\n   \"txs\": {},\n   \"interned_accounts\": {},\n   \
             \"world_ms\": {:.1},\n   \"snowball_ms\": {:.1},\n   \"cluster_ms\": {:.1},\n   \
             \"measure_ms\": {:.1},\n   \"classify_full_chain_ms\": {:.1},\n   \
             \"arena_bytes\": {{",
            r.scale,
            r.txs,
            r.accounts,
            r.world_ms,
            r.snowball_ms,
            r.cluster_ms,
            r.measure_ms,
            r.classify_ms,
        );
        for (j, (column, bytes)) in r.arena.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{column}\": {bytes}");
        }
        let total: usize = r.arena.iter().map(|(_, b)| b).sum();
        let _ = write!(
            out,
            ", \"total\": {total}}},\n   \"peak_rss_bytes\": {}\n  }}",
            r.peak_rss_bytes
        );
    }
    out.push_str("\n ]\n}\n");

    let path = std::env::var("DAAS_SCALE_SWEEP_OUT")
        .unwrap_or_else(|_| "BENCH_scale_sweep.json".to_owned());
    std::fs::write(&path, &out).expect("write sweep artifact");
    println!("scale_sweep: wrote {path}");

    // Optional CI gate: the whole sweep must have stayed under the RSS
    // ceiling. Peak RSS is monotone over the process lifetime, so one
    // check at the end covers every run.
    if let Ok(ceiling_mb) = std::env::var("DAAS_RSS_CEILING_MB") {
        let ceiling_mb: u64 = ceiling_mb.parse().expect("DAAS_RSS_CEILING_MB not a number");
        let peak = peak_rss_bytes();
        let peak_mb = peak / (1024 * 1024);
        if peak_mb > ceiling_mb {
            eprintln!(
                "scale_sweep: FAIL: peak RSS {peak_mb} MiB exceeds ceiling {ceiling_mb} MiB"
            );
            std::process::exit(1);
        }
        println!("scale_sweep: peak RSS {peak_mb} MiB within ceiling {ceiling_mb} MiB");
    }
}
