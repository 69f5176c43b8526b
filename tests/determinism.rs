//! Reproducibility contract: the entire pipeline — world, dataset,
//! clustering, website detection — is a pure function of the seed.

use daas_lab::cluster::cluster;
use daas_lab::detector::{build_dataset, SnowballConfig};
use daas_lab::world::{World, WorldConfig};

fn run(seed: u64) -> (String, usize, Vec<String>) {
    let world = World::build(&WorldConfig::tiny(seed)).expect("world");
    let dataset = build_dataset(&world.chain, &world.labels, &SnowballConfig::default());
    let clustering = cluster(&world.chain, &world.labels, &dataset);
    let last_hash = world.chain.transactions().last().unwrap().hash().to_hex();
    let names = clustering.families.iter().map(|f| f.name.clone()).collect();
    (last_hash, dataset.counts().ps_txs, names)
}

#[test]
fn identical_seeds_identical_worlds() {
    let a = run(7);
    let b = run(7);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_differ() {
    let a = run(7);
    let b = run(8);
    assert_ne!(a.0, b.0, "chains should differ across seeds");
}

/// One number summarising a full detection run: FNV-1a over the
/// serialized dataset plus the clustering's family names.
fn pipeline_fingerprint(world: &World, threads: usize) -> u64 {
    let cfg = SnowballConfig { threads, ..Default::default() };
    let dataset = build_dataset(&world.chain, &world.labels, &cfg);
    let clustering = cluster(&world.chain, &world.labels, &dataset);
    let mut text = serde_json::to_string(&dataset).expect("dataset serialises");
    for family in &clustering.families {
        text.push_str(&family.name);
    }
    let mut hash = 0xcbf29ce484222325u64;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// One number summarising a generated world: FNV-1a over the serialized
/// chain artifact.
fn world_fingerprint(threads: usize) -> u64 {
    let world = World::build_with(&WorldConfig::tiny(7), threads).expect("world");
    let mut hash = 0xcbf29ce484222325u64;
    for byte in serde_json::to_string(&world.chain).expect("chain serialises").bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

#[test]
fn world_hash_stable_across_thread_counts() {
    // Planner threads are a schedule — the generated world never
    // changes with them.
    let reference = world_fingerprint(1);
    for threads in [2usize, 4, 0] {
        assert_eq!(
            world_fingerprint(threads),
            reference,
            "world hash drifted at threads={threads}"
        );
    }
}

#[test]
fn pipeline_hash_stable_across_thread_counts() {
    let world = World::build(&WorldConfig::tiny(7)).expect("world");
    let reference = pipeline_fingerprint(&world, 1);
    for threads in [1usize, 2, 4, 8, 0] {
        assert_eq!(
            pipeline_fingerprint(&world, threads),
            reference,
            "pipeline hash drifted at threads={threads}"
        );
    }
}

#[test]
fn pipeline_hash_stable_across_repeat_runs() {
    // Fresh world builds and repeated parallel detection runs all land
    // on the same fingerprint — no schedule leaks into the output.
    let reference = {
        let world = World::build(&WorldConfig::tiny(13)).expect("world");
        pipeline_fingerprint(&world, 0)
    };
    for _ in 0..2 {
        let world = World::build(&WorldConfig::tiny(13)).expect("world");
        assert_eq!(pipeline_fingerprint(&world, 0), reference);
    }
}

#[test]
fn dataset_is_insensitive_to_detector_rerun() {
    // Re-running detection on the same world is bit-identical (no hidden
    // state, no randomness in the pipeline itself).
    let world = World::build(&WorldConfig::tiny(9)).expect("world");
    let a = build_dataset(&world.chain, &world.labels, &SnowballConfig::default());
    let b = build_dataset(&world.chain, &world.labels, &SnowballConfig::default());
    assert_eq!(a.contracts, b.contracts);
    assert_eq!(a.ps_txs, b.ps_txs);
    assert_eq!(a.seed, b.seed);
    assert_eq!(a.rounds, b.rounds);
}
