//! `daas-lab` — run the full reproduction pipeline and print any (or
//! all) of the paper's tables and figures.
//!
//! ```text
//! daas-lab [--seed N] [--scale F] [--exp NAME]...
//!
//!   --seed N     RNG seed (default 42)
//!   --scale F    world scale, 1.0 = paper scale (default 0.1)
//!   --threads N  worker threads for world planning, snowball sampling,
//!                family clustering, the §6 measurement reports and the
//!                forensics fan-out, 0 = all cores (default 0); every
//!                artifact is byte-identical at every setting
//!   --timings    enable the observability recorder and print the
//!                per-stage wall-clock breakdown (read back from the
//!                metrics registry) plus the recorder's human summary,
//!                all on stderr
//!   --trace-out FILE    enable the recorder and write the span log as
//!                JSONL (one object per span, plus a meta line)
//!   --metrics-out FILE  enable the recorder and write the metrics run
//!                summary as JSON, plus a Prometheus text exposition at
//!                FILE.prom
//!   --live       replay the world in block windows through the
//!                streaming stack (online detector → incremental
//!                clusterer → live measurement), then re-verify against
//!                the one-shot batch pipeline; a mismatch fails the run
//!   --window N   sealed blocks per live window (default 7200, one
//!                day's worth of 12-second slots)
//!   --exp NAME   one of: table1 table2 table3 table4 fig4 fig6 fig7
//!                ratios scale lifecycles community validation all
//!                (default: all; ignored with --live)
//! ```

use std::process::ExitCode;
use std::time::{Duration, Instant};

use daas_cli::{
    render_community, render_fig4, render_fig6, render_fig7, render_lifecycles, render_ratios,
    render_scale_stats, render_table1, render_table2, render_table3, render_table4,
    render_timeline, render_validation, run_pipeline, run_website_pipeline,
};
use daas_detector::SnowballConfig;
use daas_measure::MeasureConfig;
use daas_world::WorldConfig;

const ALL_EXPERIMENTS: [&str; 13] = [
    "table1", "table2", "table3", "table4", "fig4", "fig6", "fig7", "ratios", "scale",
    "lifecycles", "community", "validation", "timeline",
];

fn main() -> ExitCode {
    let mut seed = 42u64;
    let mut scale = 0.1f64;
    let mut threads = 0usize;
    let mut timings = false;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut live = false;
    let mut verify = true;
    let mut window_blocks = 7_200u64;
    let mut experiments: Vec<String> = Vec::new();
    let mut export: Option<String> = None;
    let mut config_path: Option<String> = None;
    let mut dump_config: Option<String> = None;
    let mut seed_set = false;
    let mut scale_set = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => {
                    seed = v;
                    seed_set = true;
                }
                None => return usage("--seed needs an integer"),
            },
            "--scale" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0.0 => {
                    scale = v;
                    scale_set = true;
                }
                _ => return usage("--scale needs a positive number"),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => threads = v,
                None => return usage("--threads needs an integer (0 = all cores)"),
            },
            "--timings" => timings = true,
            "--trace-out" => match args.next() {
                Some(path) => trace_out = Some(path),
                None => return usage("--trace-out needs a file path"),
            },
            "--metrics-out" => match args.next() {
                Some(path) => metrics_out = Some(path),
                None => return usage("--metrics-out needs a file path"),
            },
            "--live" => live = true,
            "--no-verify" => verify = false,
            "--window" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => window_blocks = v,
                _ => return usage("--window needs a positive block count"),
            },
            "--config" => match args.next() {
                Some(path) => config_path = Some(path),
                None => return usage("--config needs a file path"),
            },
            "--dump-config" => match args.next() {
                Some(path) => dump_config = Some(path),
                None => return usage("--dump-config needs a file path"),
            },
            "--exp" => match args.next() {
                Some(v) if v == "all" => {
                    experiments.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string()))
                }
                Some(v) if ALL_EXPERIMENTS.contains(&v.as_str()) => experiments.push(v),
                Some(v) => return usage(&format!("unknown experiment '{v}'")),
                None => return usage("--exp needs a name"),
            },
            "--export" => match args.next() {
                Some(path) => export = Some(path),
                None => return usage("--export needs a file path"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }

    // Scenario loading: --config replaces the paper preset; --seed and
    // --scale still override when given explicitly.
    let mut config = match &config_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match serde_json::from_str::<WorldConfig>(&text) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("invalid scenario {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => WorldConfig::paper_scale(seed),
    };
    if seed_set || config_path.is_none() {
        config.seed = seed;
    }
    if scale_set || config_path.is_none() {
        config.scale = scale;
    }
    if let Err(e) = config.validate() {
        eprintln!("invalid configuration: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &dump_config {
        match serde_json::to_string_pretty(&config)
            .map_err(|e| e.to_string())
            .and_then(|json| std::fs::write(path, json).map_err(|e| e.to_string()))
        {
            Ok(()) => {
                eprintln!("configuration written to {path}");
                if experiments.is_empty() {
                    return ExitCode::SUCCESS;
                }
            }
            Err(e) => {
                eprintln!("dump failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if experiments.is_empty() {
        experiments.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string()));
    }
    let (seed, scale) = (config.seed, config.scale);
    // One switch turns the recorder on for the whole process; every
    // instrumentation site below it costs a single relaxed load while
    // it stays off.
    let obs_on = timings || trace_out.is_some() || metrics_out.is_some();
    if obs_on {
        daas_obs::set_enabled(true);
    }
    eprintln!("building world (seed {seed}, scale {scale}) …");
    let snowball = SnowballConfig { threads, ..Default::default() };
    if live {
        let code = run_live(&config, &snowball, window_blocks, threads, verify);
        return match finish_obs(obs_on, timings, trace_out.as_deref(), metrics_out.as_deref()) {
            Ok(()) => code,
            Err(e) => {
                eprintln!("observability sink failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let pipeline = match run_pipeline(&config, &snowball) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pipeline failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (tw, ts, tc) = pipeline.timings;
    eprintln!(
        "world {:.2?} | snowball {:.2?} | clustering {:.2?} | {} txs, {} accounts",
        tw,
        ts,
        tc,
        pipeline.world.chain.stats().transactions,
        pipeline.world.chain.stats().accounts,
    );

    if let Some(path) = &export {
        // The released-dataset artifact: the full discovered dataset as
        // JSON (contracts, operators, affiliates, observations).
        match serde_json::to_string_pretty(&pipeline.dataset)
            .map_err(|e| e.to_string())
            .and_then(|json| std::fs::write(path, json).map_err(|e| e.to_string()))
        {
            Ok(()) => eprintln!("dataset exported to {path}"),
            Err(e) => {
                eprintln!("export failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let needs_web = experiments.iter().any(|e| e == "table4" || e == "community");
    let web = needs_web.then(|| run_website_pipeline(&pipeline.world, 0.8));

    // The §6 measurement bundle is built once (and timed as its own
    // stage) for every renderer that consumes it.
    const MEASURED_EXPS: [&str; 8] =
        ["table2", "fig4", "fig6", "fig7", "ratios", "scale", "community", "timeline"];
    let needs_measure = experiments.iter().any(|e| MEASURED_EXPS.contains(&e.as_str()));
    let tm0 = Instant::now();
    let measured = needs_measure.then(|| pipeline.measured(&MeasureConfig { threads }));
    daas_obs::gauge_l("pipeline.stage_ms", "stage", "measure", ms(tm0.elapsed()));
    let m = || measured.as_ref().expect("measurement bundle built");

    // The primary-contract threshold scales with the world (paper: 100
    // transactions at full scale).
    let lifecycle_min_txs = ((100.0 * scale) as usize).max(5);

    let tr0 = Instant::now();
    for exp in &experiments {
        let out = match exp.as_str() {
            "table1" => render_table1(&pipeline, scale),
            "table2" => render_table2(&pipeline, m(), scale),
            "table3" => render_table3(&pipeline),
            "table4" => render_table4(web.as_ref().expect("web pipeline ran")),
            "fig4" => render_fig4(&pipeline, m()),
            "fig6" => render_fig6(m()),
            "fig7" => render_fig7(m()),
            "ratios" => render_ratios(m()),
            "scale" => render_scale_stats(m(), scale),
            "lifecycles" => render_lifecycles(&pipeline, lifecycle_min_txs),
            "community" => render_community(&pipeline, m(), web.as_ref().expect("web pipeline ran"), scale),
            "validation" => render_validation(&pipeline, scale),
            "timeline" => render_timeline(m()),
            _ => unreachable!("validated above"),
        };
        println!("{out}");
    }
    daas_obs::gauge_l("pipeline.stage_ms", "stage", "render", ms(tr0.elapsed()));
    match finish_obs(obs_on, timings, trace_out.as_deref(), metrics_out.as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("observability sink failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Drains the recorder once and fans the report to every requested
/// sink: the JSONL span trace, the JSON metrics summary (plus a
/// Prometheus text exposition at `<path>.prom`), and — with
/// `--timings` — the human digest and the per-stage line sourced from
/// the `pipeline.stage_ms` gauges. Everything goes to stderr or to the
/// named files; stdout stays reserved for artifacts.
fn finish_obs(
    obs_on: bool,
    timings: bool,
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
) -> Result<(), String> {
    if !obs_on {
        return Ok(());
    }
    let report = daas_obs::drain();
    if let Some(path) = trace_out {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        daas_obs::write_trace_jsonl(&report, &mut out).map_err(|e| format!("{path}: {e}"))?;
        std::io::Write::flush(&mut out).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("trace written to {path} ({} spans)", report.spans.len());
        if report.dropped_spans > 0 {
            eprintln!(
                "trace truncated: {} spans evicted from the ring buffer this run \
                 ({} over the process lifetime)",
                report.dropped_spans, report.evicted_total,
            );
        }
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, daas_obs::summary_json(&report)).map_err(|e| format!("{path}: {e}"))?;
        let prom_path = format!("{path}.prom");
        std::fs::write(&prom_path, daas_obs::prometheus_text(&report.metrics))
            .map_err(|e| format!("{prom_path}: {e}"))?;
        eprintln!("metrics written to {path} (+ {prom_path})");
    }
    if timings {
        eprint!("{}", daas_obs::human_summary(&report));
        eprintln!("{}", timings_line(&report.metrics));
    }
    Ok(())
}

/// The `--timings` per-stage line, read back from the
/// `pipeline.stage_ms{stage=…}` gauges the pipeline recorded (batch
/// stages first, then the live-replay stages — whichever ran).
fn timings_line(metrics: &daas_obs::MetricsSnapshot) -> String {
    const STAGES: [&str; 8] =
        ["world", "snowball", "clustering", "measure", "render", "replay", "reports", "verify"];
    let mut parts = Vec::new();
    for stage in STAGES {
        if let Some(v) = metrics.gauge(&format!("pipeline.stage_ms{{stage={stage}}}")) {
            parts.push(format!("{stage} {}", fmt_stage(Duration::from_secs_f64(v / 1e3))));
        }
    }
    format!("timings: {}", parts.join(" | "))
}

/// Duration → milliseconds, for the stage gauges.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `--live` mode: stream the world in block windows, print each
/// window's deltas, then report the batch re-verification verdict.
fn run_live(
    config: &WorldConfig,
    snowball: &SnowballConfig,
    window_blocks: u64,
    threads: usize,
    verify: bool,
) -> ExitCode {
    let measure_cfg = MeasureConfig { threads };
    let run = match daas_cli::Pipeline::live_opts(
        config,
        snowball,
        window_blocks,
        &measure_cfg,
        verify,
        |w| {
            if w.new_ps_txs > 0 || w.new_contracts > 0 {
                eprintln!(
                    "window {:>4} | blocks {:>7}-{:<7} | +{} contracts +{} operators \
                     +{} affiliates +{} txs | {} families | ${:.0} | \
                     detect {:.2?} cluster {:.2?} measure {:.2?}",
                    w.index,
                    w.first_block,
                    w.last_block,
                    w.new_contracts,
                    w.new_operators,
                    w.new_affiliates,
                    w.new_ps_txs,
                    w.families,
                    w.usd_delta,
                    w.detect_time,
                    w.cluster_time,
                    w.measure_time,
                );
            }
        },
    ) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("live pipeline failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let counts = run.dataset.counts();
    let stats = &run.clusterer_stats;
    println!(
        "live replay: {} windows of {} blocks | {} contracts, {} operators, {} affiliates, {} profit-sharing txs",
        run.windows.len(),
        window_blocks,
        counts.contracts,
        counts.operators,
        counts.affiliates,
        counts.ps_txs,
    );
    println!(
        "clustering: {} families | {} union edges, {} merges, {} rebuilds | {} assemblies, {} cache reuses, {} patches",
        run.clustering.families.len(),
        stats.edges,
        stats.merges,
        stats.rebuilds,
        stats.families_assembled,
        stats.families_reused,
        stats.families_patched,
    );
    println!(
        "measurement: {} victims, ${:.0} stolen",
        run.reports.victims.victims, run.reports.victims.total_usd,
    );
    if !verify {
        println!("batch equivalence: skipped (--no-verify)");
        ExitCode::SUCCESS
    } else if run.batch_matches {
        println!("batch equivalence: OK (dataset, clustering and reports byte-identical)");
        ExitCode::SUCCESS
    } else {
        eprintln!("batch equivalence: MISMATCH — streaming diverged from the batch pipeline");
        ExitCode::FAILURE
    }
}

fn fmt_stage(d: Duration) -> String {
    format!("{:.2?}", d)
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    eprintln!(
        "usage: daas-lab [--seed N] [--scale F] [--threads N] [--config FILE] [--dump-config FILE] [--export FILE] [--live] [--no-verify] [--window N] [--timings] [--trace-out FILE] [--metrics-out FILE] [--exp NAME]...\n       experiments: {} all",
        ALL_EXPERIMENTS.join(" ")
    );
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
