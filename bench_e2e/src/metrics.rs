//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists exactly these (the self-test compares them).

/// End-to-end metrics, printed by every untraced run of every workload.
/// Their meaning per workload is in the README.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tx_per_s", "tx/s"),
    ("result_s", "s"),
    ("verdict_ms.p50", "ms"),
];

/// Each workload's own figures under the names the workload defines
/// them by, reported in the traced run (from its untraced rounds) as
/// `workload.<name>`; 0 on the other workloads.
pub const WORKLOAD_FIGURES: [(&str, &str); 15] = [
    ("batch_tables_s", "s"),
    ("website_scan_s", "s"),
    ("window_publish_ms.p50", "ms"),
    ("window_publish_ms.p99", "ms"),
    ("risk_ms.p50", "ms"),
    ("risk_ms.p99", "ms"),
    ("lookup_ms.p50", "ms"),
    ("lookup_ms.p99", "ms"),
    ("first_lookup_s", "s"),
    ("verdict_ms.p99", "ms"),
    ("replay_tx_per_s", "tx/s"),
    ("checkpoint_s", "s"),
    ("checkpoint_mb", "MB"),
    ("restore_s", "s"),
    ("artifact_s", "s"),
];

/// The nine §6 reports, as `measure.report_ms{report=…}` labels them.
pub const REPORTS: [&str; 9] = [
    "victims",
    "repeat_victims",
    "operators",
    "operator_lifecycles",
    "affiliates",
    "associations",
    "ratios",
    "timeline",
    "laundering",
];

/// Snapshot query endpoints, as `serve.query_ms{endpoint=…}` labels them.
pub const ENDPOINTS: [&str; 5] = ["risk", "victim", "family", "stats", "status"];

/// Per-layer metrics, printed by every traced run of every workload; a
/// layer the workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("world.build_ms", "ms"),
        ("world.plan_ms", "ms"),
        ("world.execute_ms", "ms"),
        ("world.derive_ms", "ms"),
        ("chain.txs", "count"),
        ("chain.arena_mb", "MB"),
        ("detector.classify_all_ms", "ms"),
        ("detector.ps_txs", "count"),
        ("detector.snowball_ms", "ms"),
        ("detector.classify_miss", "count"),
        ("detector.classify_hit", "count"),
        ("detector.memo_entries", "count"),
        ("cluster.batch_ms", "ms"),
        ("cluster.extract_ms", "ms"),
        ("cluster.merge_ms", "ms"),
        ("cluster.assemble_ms", "ms"),
        ("cluster.forensics_ms", "ms"),
        ("measure.reports_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    out.extend(REPORTS.iter().map(|r| (format!("measure.report_ms.{r}"), "ms")));
    out.extend(
        [
            ("render.tables_ms", "ms"),
            ("ctwatch.triage_ms", "ms"),
            ("ctwatch.certs", "count"),
            ("ctwatch.suspicious", "count"),
            ("webscan.fingerprint_db_ms", "ms"),
            ("webscan.scan_ms", "ms"),
            ("webscan.confirmed", "count"),
            ("engine.windows", "count"),
            ("engine.ingest_ms.p50", "ms"),
            ("engine.ingest_ms.p99", "ms"),
            ("engine.detect_ms.sum", "ms"),
            ("engine.cluster_ms.sum", "ms"),
            ("engine.measure_ms.sum", "ms"),
            ("engine.cluster_rebuilds", "count"),
            ("snapshot.risk_first_ms", "ms"),
            ("snapshot.risk_warm_ms", "ms"),
            ("snapshot.victim_first_ms", "ms"),
            ("snapshot.victim_warm_ms", "ms"),
            ("snapshot.stats_first_ms", "ms"),
            ("snapshot.family_ms", "ms"),
            ("server.status_rtt_ms", "ms"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    out.extend(ENDPOINTS.iter().map(|e| (format!("server.query_ms.{e}"), "ms")));
    out.extend(
        [
            ("restore.state_s", "s"),
            ("obs.overhead_pct", "%"),
            ("obs.overhead_base_s", "s"),
            ("loadgen.late_ms.max", "ms"),
            ("loadgen.windows", "count"),
            ("loadgen.queries", "count"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    out.extend(WORKLOAD_FIGURES.iter().map(|&(n, u)| (format!("workload.{n}"), u)));
    out
}
