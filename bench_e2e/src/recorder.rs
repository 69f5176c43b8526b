//! Reading what the program's `daas-obs` recorder saw — drained
//! in-process, or from a daemon's `--metrics-out` / `--trace-out` files —
//! into per-layer metrics, and writing the traced run's JSONL.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use daas_obs::json::Value;
use daas_obs::{HistogramSnapshot, MetricsSnapshot};

use crate::util::{field, num};

/// Spans (name, duration in ms) and metrics of one recorded process.
#[derive(Default)]
pub struct Recorded {
    pub spans: Vec<(String, f64)>,
    pub metrics: MetricsSnapshot,
}

impl Recorded {
    /// From an in-process drain.
    pub fn from_report(report: &daas_obs::ObsReport) -> Self {
        Recorded {
            spans: report.spans.iter().map(|s| (s.name.to_string(), s.dur_ns as f64 / 1e6)).collect(),
            metrics: report.metrics.clone(),
        }
    }

    /// From a daemon's metrics summary and span trace.
    pub fn from_files(metrics: &Path, trace: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(metrics).map_err(|e| format!("{}: {e}", metrics.display()))?;
        let summary = daas_obs::json::parse(&text)?;
        let mut out = Recorded::default();
        let obj = |key: &str| field(&summary, key).and_then(|v| v.as_obj()).cloned().unwrap_or_default();
        for (k, v) in obj("counters") {
            out.metrics.counters.insert(k, v.as_num().unwrap_or(0.0) as u64);
        }
        for (k, v) in obj("gauges") {
            out.metrics.gauges.insert(k, v.as_num().unwrap_or(0.0));
        }
        for (k, h) in obj("histograms") {
            let buckets = field(&h, "buckets")
                .and_then(|b| b.as_arr())
                .unwrap_or(&[])
                .iter()
                .map(|b| (num(b, "le").unwrap_or(0.0), num(b, "count").unwrap_or(0.0) as u64))
                .collect();
            out.metrics.histograms.insert(
                k,
                HistogramSnapshot {
                    count: num(&h, "count").unwrap_or(0.0) as u64,
                    sum_ms: num(&h, "sum_ms").unwrap_or(0.0),
                    min_ms: num(&h, "min_ms").unwrap_or(0.0),
                    max_ms: num(&h, "max_ms").unwrap_or(0.0),
                    buckets,
                    overflow: num(&h, "overflow").unwrap_or(0.0) as u64,
                },
            );
        }
        let text = std::fs::read_to_string(trace).map_err(|e| format!("{}: {e}", trace.display()))?;
        for line in text.lines() {
            let v: Value = daas_obs::json::parse(line)?;
            if field(&v, "type").and_then(|t| t.as_str()) == Some("span") {
                let name = field(&v, "name").and_then(|n| n.as_str()).unwrap_or_default().to_string();
                out.spans.push((name, num(&v, "dur_ns").unwrap_or(0.0) / 1e6));
            }
        }
        Ok(out)
    }

    /// Folds another process's record into this one: spans append,
    /// counters add, gauges keep the larger value, histograms merge
    /// (every histogram shares the same bucket bounds).
    pub fn merge(&mut self, other: Recorded) {
        self.spans.extend(other.spans);
        for (k, v) in other.metrics.counters {
            *self.metrics.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.metrics.gauges {
            let g = self.metrics.gauges.entry(k).or_insert(v);
            *g = g.max(v);
        }
        for (k, h) in other.metrics.histograms {
            match self.metrics.histograms.get_mut(&k) {
                Some(mine) => {
                    mine.count += h.count;
                    mine.sum_ms += h.sum_ms;
                    mine.min_ms = mine.min_ms.min(h.min_ms);
                    mine.max_ms = mine.max_ms.max(h.max_ms);
                    mine.overflow += h.overflow;
                    for (slot, (_, n)) in mine.buckets.iter_mut().zip(h.buckets) {
                        slot.1 += n;
                    }
                }
                None => {
                    self.metrics.histograms.insert(k, h);
                }
            }
        }
    }

    /// Total duration of every span with this name, ms.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|(n, _)| n == name).map(|(_, d)| d).sum()
    }

    fn counter(&self, key: &str) -> f64 {
        self.metrics.counter(key) as f64
    }

    fn hist(&self, key: &str) -> Option<&HistogramSnapshot> {
        self.metrics.histograms.get(key)
    }

    /// The world-build spans: planning, executing and deriving.
    pub fn fill_world(&self, layers: &mut BTreeMap<String, f64>) {
        let mut set = |k: &str, v: f64| {
            layers.insert(k.to_string(), v);
        };
        set("world.plan_ms", self.span_ms("world.plan_families") + self.span_ms("world.plan_events"));
        set("world.execute_ms", self.span_ms("world.execute"));
        set("world.derive_ms", self.span_ms("world.derive"));
    }

    /// Every other recorder-sourced layer metric.
    pub fn fill_layers(&self, layers: &mut BTreeMap<String, f64>) {
        let mut set = |k: &str, v: f64| {
            layers.insert(k.to_string(), v);
        };
        set("detector.snowball_ms", self.span_ms("snowball.build"));
        set("detector.classify_miss", self.counter("cache.classify.miss"));
        set("detector.classify_hit", self.counter("cache.classify.hit"));
        set("detector.memo_entries", self.metrics.gauge("cache.classify.entries").unwrap_or(0.0));
        for (key, span) in [
            ("cluster.batch_ms", "cluster.batch"),
            ("cluster.extract_ms", "cluster.extract"),
            ("cluster.merge_ms", "cluster.merge"),
            ("cluster.assemble_ms", "cluster.assemble"),
            ("measure.reports_ms", "measure.reports"),
        ] {
            set(key, self.span_ms(span));
        }
        for report in crate::metrics::REPORTS {
            let sum = self.hist(&format!("measure.report_ms{{report={report}}}")).map_or(0.0, |h| h.sum_ms);
            set(&format!("measure.report_ms.{report}"), sum);
        }
        set("engine.windows", self.counter("live.windows"));
        let ingest = self.hist("serve.ingest_ms");
        set("engine.ingest_ms.p50", ingest.and_then(|h| h.quantile_ms(0.5)).unwrap_or(0.0));
        set("engine.ingest_ms.p99", ingest.and_then(|h| h.quantile_ms(0.99)).unwrap_or(0.0));
        for stage in ["detect", "cluster", "measure"] {
            let sum = self.hist(&format!("live.window.update_ms{{stage={stage}}}")).map_or(0.0, |h| h.sum_ms);
            set(&format!("engine.{stage}_ms.sum"), sum);
        }
        set("engine.cluster_rebuilds", self.counter("cluster.rebuilds"));
        for endpoint in crate::metrics::ENDPOINTS {
            let p50 = self.hist(&format!("serve.query_ms{{endpoint={endpoint}}}")).and_then(|h| h.quantile_ms(0.5));
            set(&format!("server.query_ms.{endpoint}"), p50.unwrap_or(0.0));
        }
    }
}

/// Writes the traced run's JSONL: the benchmark process's own recorder
/// drain (its `bench.*` spans around each public call, plus — for the
/// in-process batch — every program span), then each daemon's trace
/// behind a `process` header line.
pub fn write_trace(path: &Path, own: &daas_obs::ObsReport, daemons: &[(String, std::path::PathBuf)]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| e.to_string();
    writeln!(out, "{{\"type\":\"process\",\"name\":\"bench-e2e\"}}").map_err(io)?;
    daas_obs::write_trace_jsonl(own, &mut out).map_err(io)?;
    for (name, trace) in daemons {
        writeln!(out, "{{\"type\":\"process\",\"name\":\"daas-serve\",\"run\":\"{name}\"}}").map_err(io)?;
        let text = std::fs::read_to_string(trace).map_err(|e| format!("{}: {e}", trace.display()))?;
        out.write_all(text.as_bytes()).map_err(io)?;
    }
    out.flush().map_err(io)
}
