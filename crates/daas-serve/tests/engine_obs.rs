//! The engine reports its classification-memo traffic like the batch
//! snowball does: with the recorder on, an in-process streaming run
//! drains `cache.classify.*` counters and the memo-size gauge.
//!
//! One test per binary: the recorder is process-global.

use daas_detector::SnowballConfig;
use daas_serve::Engine;
use daas_world::WorldConfig;

#[test]
fn engine_run_drains_classification_memo_counters() {
    let snowball = SnowballConfig { threads: 1, ..Default::default() };
    let mut engine = Engine::new(&WorldConfig::micro(42), &snowball).expect("engine");

    daas_obs::set_enabled(true);
    let _ = daas_obs::drain();
    let windows = engine.run_to_end(50, |_| {});
    daas_obs::set_enabled(false);
    let report = daas_obs::drain();

    assert!(!windows.is_empty());
    let metrics = &report.metrics;
    let misses = metrics.counter("cache.classify.miss");
    assert!(misses > 0, "no memo misses drained: {:?}", metrics.counters);
    let entries = metrics.gauges.get("cache.classify.entries").copied().unwrap_or(0.0);
    assert_eq!(entries, engine.cache().len() as f64);
    // Each lookup that missed stored an entry; hits are lookups on top.
    assert!(misses >= engine.cache().len() as u64);
    assert_eq!(
        metrics.counter("cache.classify.hit") + misses,
        engine.cache().stats().hits + engine.cache().stats().misses,
        "the drained counters cover every memo lookup of the run"
    );
}
