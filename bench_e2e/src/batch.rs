//! `paper-batch`: the reproduction run, in-process, through the same
//! `daas-cli` library calls `daas-lab --exp all` makes — world →
//! snowball dataset → clustering → the §8.2 website pass → the nine §6
//! reports → every table and figure rendered (forensics inside the
//! lifecycle table). Never touches daas-serve.

use std::time::Instant;

use daas_cli::{
    render_community, render_fig4, render_fig6, render_fig7, render_lifecycles, render_ratios,
    render_scale_stats, render_table1, render_table2, render_table3, render_table4,
    render_timeline, render_validation, run_pipeline, run_website_pipeline,
};
use daas_detector::{classify_tx, ClassifierConfig, SnowballConfig};
use daas_measure::MeasureConfig;
use daas_world::{collection_end, detection_start, WorldConfig};

use crate::checks::{artifact_checks, confirmed_sites, merge_checks, website_check, Artifact, Check, Truth};
use crate::recorder::{write_trace, Recorded};
use crate::util::{median, ms, quantile, vm_hwm_mb};
use crate::{Outcome, RunOpts};

/// The §8.2 triage threshold `daas-lab` uses.
const TRIAGE_THRESHOLD: f64 = 0.8;

/// Nominal seconds of one round at paper scale on a 2-core machine; the
/// run does `seconds / ROUND_S` rounds (at least one), a count fixed by
/// the arguments alone so every run of a commit does the same work.
const ROUND_S: u64 = 6;

/// One round's measurements.
struct Round {
    world_s: f64,
    verdict_s: f64,
    batch_tables_s: f64,
    website_s: f64,
    txs: f64,
    rss_mb: f64,
}

pub fn run(opts: &RunOpts) -> Outcome {
    let scale = if opts.smoke { 0.005 } else { 1.0 };
    let config = WorldConfig { scale, ..WorldConfig::paper_scale(opts.seed) };
    let rounds = (opts.seconds / ROUND_S).max(1);
    let mut out = Outcome { scale, ..Outcome::default() };
    let mut truth: Option<Truth> = None;
    let mut results = Vec::new();
    for _ in 0..rounds {
        match round(&config, &mut truth, &mut out, false) {
            Ok(r) => results.push(r),
            Err(e) => {
                out.failed += 1;
                out.error = Some(e);
                return out;
            }
        }
    }

    let col = |f: fn(&Round) -> f64| results.iter().map(f).collect::<Vec<_>>();
    // Every transaction's verdict appears at once, when the dataset and
    // the clustering are built: pooled over transactions, each round
    // contributes one value.
    let verdicts = col(|r| r.verdict_s * 1e3);
    let tables = median(&col(|r| r.batch_tables_s));
    out.e2e.insert("setup_s".into(), median(&col(|r| r.world_s)));
    out.e2e.insert("peak_rss_mb".into(), col(|r| r.rss_mb).into_iter().fold(0.0, f64::max));
    out.e2e.insert("tx_per_s".into(), median(&col(|r| r.txs / r.batch_tables_s)));
    out.e2e.insert("result_s".into(), median(&col(|r| r.batch_tables_s + r.website_s)));
    out.e2e.insert("verdict_ms.p50".into(), median(&verdicts));
    out.named("batch_tables_s", tables, "s");
    out.named("website_scan_s", median(&col(|r| r.website_s)), "s");
    out.named("verdict_ms.p99", quantile(&verdicts, 0.99), "ms");
    out.named("rounds", rounds as f64, "count");

    if opts.trace {
        if let Err(e) = traced_round(&config, &mut truth, &mut out, tables) {
            out.failed += 1;
            out.error = Some(e);
        }
    }
    out
}

/// One full `daas-lab --exp all` pass; checks its outputs against the
/// ground truth after reading the peak RSS.
fn round(config: &WorldConfig, truth: &mut Option<Truth>, out: &mut Outcome, traced: bool) -> Result<Round, String> {
    let _round = daas_obs::span!("bench.round", traced = traced);
    let t0 = Instant::now();
    let pipeline = {
        let _s = daas_obs::span!("bench.run_pipeline");
        run_pipeline(config, &SnowballConfig::default())?
    };
    let t1 = Instant::now();
    let world_s = pipeline.timings.0.as_secs_f64();
    let verdict_s = (t1 - t0).as_secs_f64() - world_s;
    let web = {
        let _s = daas_obs::span!("bench.run_website_pipeline");
        run_website_pipeline(&pipeline.world, TRIAGE_THRESHOLD)
    };
    let t2 = Instant::now();
    let measured = {
        let _s = daas_obs::span!("bench.measured");
        pipeline.measured(&MeasureConfig::default())
    };
    let t3 = Instant::now();

    // Every experiment of `daas-lab --exp all`, in its order.
    let scale = config.scale;
    let lifecycle_min_txs = ((100.0 * scale) as usize).max(5);
    let mut rendered = 0usize;
    let mut timed = |name: &'static str, render: &dyn Fn() -> String| {
        let _s = daas_obs::span!("bench.render", exp = name);
        rendered += render().len();
    };
    timed("table1", &|| render_table1(&pipeline, scale));
    timed("table2", &|| render_table2(&pipeline, &measured, scale));
    timed("table3", &|| render_table3(&pipeline));
    timed("table4", &|| render_table4(&web));
    timed("fig4", &|| render_fig4(&pipeline, &measured));
    timed("fig6", &|| render_fig6(&measured));
    timed("fig7", &|| render_fig7(&measured));
    timed("ratios", &|| render_ratios(&measured));
    timed("scale", &|| render_scale_stats(&measured, scale));
    timed("lifecycles", &|| render_lifecycles(&pipeline, lifecycle_min_txs));
    timed("community", &|| render_community(&pipeline, &measured, &web, scale));
    timed("validation", &|| render_validation(&pipeline, scale));
    timed("timeline", &|| render_timeline(&measured));
    let t4 = Instant::now();
    let rss_mb = vm_hwm_mb("self").unwrap_or(0.0);
    if rendered == 0 {
        return Err("every render came back empty".into());
    }
    out.attempted += 16;

    let truth = truth.get_or_insert_with(|| Truth::new(&pipeline.world.truth));
    let victims = &measured.reports.victims;
    let artifact = Artifact::from_batch(&pipeline.dataset, &pipeline.clustering, victims.victims, victims.total_usd);
    let mut checks: Vec<Check> = artifact_checks(&artifact, truth);
    checks.push(website_check(&confirmed_sites(&web.report), &pipeline.world, truth));
    merge_checks(&mut out.checks, checks);

    let batch_tables_s = verdict_s + (t4 - t2).as_secs_f64();
    if traced {
        let layers = &mut out.layers;
        layers.insert("world.build_ms".into(), world_s * 1e3);
        layers.insert("render.tables_ms".into(), ms(t4 - t3));
        layers.insert("detector.ps_txs".into(), pipeline.dataset.ps_txs.len() as f64);
        let store = pipeline.world.chain.transactions();
        layers.insert("chain.txs".into(), store.len() as f64);
        let bytes: usize = store.column_bytes().iter().map(|(_, b)| b).sum();
        layers.insert("chain.arena_mb".into(), bytes as f64 / (1u64 << 20) as f64);
        layers.insert("webscan.confirmed".into(), web.report.confirmed as f64);
        layer_probes(&pipeline, lifecycle_min_txs, layers);
    }
    Ok(Round {
        world_s,
        verdict_s,
        batch_tables_s,
        website_s: (t2 - t1).as_secs_f64(),
        txs: pipeline.world.chain.transactions().len() as f64,
        rss_mb,
    })
}

/// Layer timings the recorder has no span for, taken with the
/// benchmark's own timers around public calls of each crate, after the
/// round (so they do not count in its end-to-end figures).
fn layer_probes(pipeline: &daas_cli::Pipeline, lifecycle_min_txs: usize, layers: &mut std::collections::BTreeMap<String, f64>) {
    let world = &pipeline.world;
    let cfg = ClassifierConfig::default();
    let t = Instant::now();
    let hits = world.chain.transactions().iter().filter(|tx| classify_tx(*tx, &cfg).is_some()).count();
    layers.insert("detector.classify_all_ms".into(), ms(t.elapsed()));
    std::hint::black_box(hits);

    let t = Instant::now();
    let forensics = pipeline.forensics(lifecycle_min_txs, 30 * 86_400, collection_end());
    layers.insert("cluster.forensics_ms".into(), ms(t.elapsed()));
    std::hint::black_box(&forensics);

    // The §8.2 pass split into its crates' public calls, in the order
    // `run_website_pipeline` makes them.
    let t = Instant::now();
    let mut db = webscan::FingerprintDb::new();
    for fp in &world.sites.seed_fingerprints {
        db.add(fp.clone());
    }
    for &idx in &world.sites.reported {
        db.expand_from_reported(&world.sites.sites[idx].files);
    }
    layers.insert("webscan.fingerprint_db_ms".into(), ms(t.elapsed()));
    let t = Instant::now();
    let mut stream = ct_watch::CtStream::new(world.sites.certs.clone());
    stream.poll_until(detection_start().saturating_sub(1));
    let watched = stream.poll_rest().to_vec();
    let triage = ct_watch::DomainTriage::new(TRIAGE_THRESHOLD);
    let suspicious: Vec<&str> =
        watched.iter().filter(|c| triage.assess(&c.domain).is_some()).map(|c| c.domain.as_str()).collect();
    layers.insert("ctwatch.triage_ms".into(), ms(t.elapsed()));
    layers.insert("ctwatch.certs".into(), watched.len() as f64);
    layers.insert("ctwatch.suspicious".into(), suspicious.len() as f64);
    let t = Instant::now();
    let report = webscan::scan_domains(&world.crawler(), &db, suspicious);
    layers.insert("webscan.scan_ms".into(), ms(t.elapsed()));
    std::hint::black_box(report.confirmed);
}

/// The recorder-on round: per-layer metrics from the program's spans and
/// counters plus the benchmark's timers, and the tracing overhead
/// against the untraced rounds' median `batch_tables_s`.
fn traced_round(config: &WorldConfig, truth: &mut Option<Truth>, out: &mut Outcome, base_s: f64) -> Result<(), String> {
    for (name, _) in crate::metrics::per_layer() {
        out.layers.insert(name, 0.0);
    }
    daas_obs::set_enabled(true);
    let _ = daas_obs::drain();
    let traced = round(config, truth, out, true);
    daas_obs::set_enabled(false);
    let report = daas_obs::drain();
    let traced = traced?;
    let recorded = Recorded::from_report(&report);
    recorded.fill_world(&mut out.layers);
    recorded.fill_layers(&mut out.layers);
    out.layers.insert("obs.overhead_base_s".into(), base_s);
    out.layers.insert("obs.overhead_pct".into(), 100.0 * (traced.batch_tables_s - base_s) / base_s);
    write_trace(std::path::Path::new(".bench_run/trace-paper-batch.jsonl"), &report, &[])
}
