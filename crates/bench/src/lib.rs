//! Shared scaffolding for benches and experiment harnesses: seed/scale
//! parsing from the environment so every `exp_*` binary behaves the
//! same.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Observability plumbing for the experiment harnesses, mirroring the
/// CLI's `--trace-out` / `--metrics-out` flags as environment knobs:
/// `DAAS_TRACE=FILE` writes the JSONL span trace, `DAAS_METRICS=FILE`
/// writes the JSON metrics summary plus a Prometheus exposition at
/// `FILE.prom`. Hold the guard for the whole run — the sinks are
/// written when it drops. With neither variable set the recorder stays
/// off and the guard is inert.
pub struct ObsGuard {
    trace: Option<String>,
    metrics: Option<String>,
}

/// Arms [`ObsGuard`] from `DAAS_TRACE` / `DAAS_METRICS`; call first in
/// `main` so every pipeline stage is recorded.
pub fn obs_from_env() -> ObsGuard {
    let trace = std::env::var("DAAS_TRACE").ok().filter(|p| !p.is_empty());
    let metrics = std::env::var("DAAS_METRICS").ok().filter(|p| !p.is_empty());
    if trace.is_some() || metrics.is_some() {
        daas_obs::set_enabled(true);
    }
    ObsGuard { trace, metrics }
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        if self.trace.is_none() && self.metrics.is_none() {
            return;
        }
        let report = daas_obs::drain();
        if let Some(path) = &self.trace {
            let sink = std::fs::File::create(path).map(std::io::BufWriter::new);
            let written = sink.and_then(|mut out| {
                daas_obs::write_trace_jsonl(&report, &mut out)?;
                std::io::Write::flush(&mut out)
            });
            match written {
                Ok(()) => eprintln!("[obs] trace written to {path} ({} spans)", report.spans.len()),
                Err(e) => eprintln!("[obs] trace sink {path} failed: {e}"),
            }
        }
        if let Some(path) = &self.metrics {
            let prom_path = format!("{path}.prom");
            let written = std::fs::write(path, daas_obs::summary_json(&report)).and_then(|()| {
                std::fs::write(&prom_path, daas_obs::prometheus_text(&report.metrics))
            });
            match written {
                Ok(()) => eprintln!("[obs] metrics written to {path} (+ {prom_path})"),
                Err(e) => eprintln!("[obs] metrics sink {path} failed: {e}"),
            }
        }
    }
}

/// Reads `DAAS_SEED` (default 42) and `DAAS_SCALE` (default 1.0 — the
/// paper's scale) from the environment.
pub fn env_config() -> (u64, f64) {
    let seed = std::env::var("DAAS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42);
    let scale = std::env::var("DAAS_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(1.0);
    (seed, scale)
}

/// The standard snowball configuration, honouring `DAAS_THREADS`
/// (default 0 = all cores; 1 = the sequential oracle path). The
/// discovered dataset is byte-identical at every setting.
pub fn snowball_config() -> daas_detector::SnowballConfig {
    let threads = std::env::var("DAAS_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(0);
    daas_detector::SnowballConfig { threads, ..Default::default() }
}

/// The standard clustering configuration, honouring `DAAS_THREADS`
/// like [`snowball_config`]. The clustering is byte-identical at every
/// setting.
pub fn cluster_config() -> daas_cluster::ClusterConfig {
    let threads = std::env::var("DAAS_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(0);
    daas_cluster::ClusterConfig { threads }
}

/// The standard measurement configuration, honouring `DAAS_THREADS`
/// like [`snowball_config`]. The report bundle is byte-identical at
/// every setting.
pub fn measure_config() -> daas_measure::MeasureConfig {
    let threads = std::env::var("DAAS_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(0);
    daas_measure::MeasureConfig { threads }
}

/// Builds the standard pipeline at the env-configured seed/scale,
/// honouring `DAAS_THREADS`.
pub fn standard_pipeline() -> daas_cli::Pipeline {
    let (seed, scale) = env_config();
    let snowball = snowball_config();
    let config = daas_world::WorldConfig { scale, ..daas_world::WorldConfig::paper_scale(seed) };
    eprintln!("[exp] seed {seed}, scale {scale}, threads {}", snowball.effective_threads());
    daas_cli::run_pipeline(&config, &snowball).expect("pipeline builds")
}
