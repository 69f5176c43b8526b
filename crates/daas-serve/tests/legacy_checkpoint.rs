//! Checkpoints written before the shard setting was removed still
//! restore. The fixture was saved by a daemon of that era (micro world,
//! seed 42, one 25-block window) and still carries the old `"shards"`
//! key; restoring it and finishing the stream must land on artifacts
//! byte-identical to the one-shot batch pipeline.

use daas_cluster::{cluster_with, ClusterConfig};
use daas_detector::{build_dataset_with_cache, ClassificationCache};
use daas_measure::{MeasureConfig, MeasureCtx};
use daas_serve::{Engine, EngineCheckpoint};
use daas_world::{collection_end, World};

const LEGACY: &str = include_str!("fixtures/checkpoint_v1_legacy.json");

fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serialize")
}

#[test]
fn checkpoint_carrying_shards_key_restores_and_matches_batch() {
    assert!(LEGACY.contains("\"shards\":"), "fixture lost its legacy key");
    let ckpt = EngineCheckpoint::from_json(LEGACY).expect("legacy checkpoint parses");
    assert!(!ckpt.to_json().unwrap().contains("\"shards\""), "the key is not written back");

    let mut engine = Engine::restore(&ckpt).expect("legacy checkpoint restores");
    assert!(engine.watermark() > 0, "restored mid-stream, not at a cold start");
    while engine.ingest_window(50).is_some() {}
    engine.finish_stream();
    let measure = MeasureConfig::sequential();
    let live = (
        to_json(&engine.dataset().contracts),
        to_json(&engine.dataset().operators),
        to_json(&engine.dataset().affiliates),
        to_json(&engine.dataset().ps_txs),
        to_json(&engine.clustering()),
        to_json(&engine.reports(&measure)),
    );

    let world = World::build(&ckpt.config).expect("world");
    let cache = ClassificationCache::new();
    let dataset = build_dataset_with_cache(&world.chain, &world.labels, &ckpt.snowball, &cache);
    let clustering =
        cluster_with(&world.chain, &world.labels, &dataset, &ClusterConfig { threads: 1 });
    let reports = MeasureCtx::new(&world.chain, &dataset, &world.oracle).reports(
        &world.labels,
        30 * 86_400,
        collection_end(),
        &measure,
    );
    let batch = (
        to_json(&dataset.contracts),
        to_json(&dataset.operators),
        to_json(&dataset.affiliates),
        to_json(&dataset.ps_txs),
        to_json(&clustering),
        to_json(&reports),
    );
    assert_eq!(live, batch, "restored legacy checkpoint diverged from the batch pipeline");
}
