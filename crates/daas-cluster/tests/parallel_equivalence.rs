//! The sequential-oracle contract for family clustering: `cluster_with`
//! must produce a byte-identical serialized [`Clustering`] at every
//! thread count, on generated worlds and hand-built micro-worlds alike.

use daas_chain::{
    Chain, ContractKind, EntryStyle, LabelSource, LabelStore, ProfitSharingSpec,
};
use daas_cluster::{cluster_with, family_forensics, ClusterConfig, Clustering};
use daas_detector::{build_dataset, classify_tx, Dataset, SnowballConfig};
use daas_world::{collection_end, World, WorldConfig};
use eth_types::units::ether;
use proptest::prelude::*;

fn cfg(threads: usize) -> ClusterConfig {
    ClusterConfig { threads }
}

fn json(c: &Clustering) -> String {
    serde_json::to_string(c).expect("clustering serialises")
}

/// Every thread count (plus `0` = all cores) against the `threads: 1`
/// oracle, by serialized-JSON equality.
fn assert_all_thread_counts_agree(chain: &Chain, labels: &LabelStore, dataset: &Dataset) {
    let oracle = json(&cluster_with(chain, labels, dataset, &cfg(1)));
    for threads in [2usize, 4, 8, 0] {
        let clustering = cluster_with(chain, labels, dataset, &cfg(threads));
        assert_eq!(
            json(&clustering),
            oracle,
            "threads={threads} diverged from the sequential oracle"
        );
    }
}

/// A hand-built micro-world with controlled clustering topology:
/// `operators` drainer operators (one contract + affiliate + `victims`
/// claims each), a direct transfer linking every even-indexed operator
/// to its successor, and a labeled phishing EOA touched by every
/// third operator. Returns the chain, labels and the discovered-style
/// dataset.
fn micro_world(operators: usize, victims: usize) -> (Chain, LabelStore, Dataset) {
    let mut chain = Chain::new();
    let mut labels = LabelStore::new();
    let mut dataset = Dataset::default();
    let mut ops = Vec::new();
    for o in 0..operators {
        let op = chain.create_eoa_funded(format!("op{o}").as_bytes(), ether(10)).unwrap();
        ops.push(op);
        let affiliate = chain.create_eoa(format!("aff{o}").as_bytes()).unwrap();
        let contract = chain
            .deploy_contract(
                op,
                ContractKind::ProfitSharing(ProfitSharingSpec {
                    operator: op,
                    operator_bps: 2000,
                    entry: EntryStyle::PayableFallback,
                }),
            )
            .unwrap();
        for v in 0..victims {
            let victim = chain
                .create_eoa_funded(format!("victim{o}-{v}").as_bytes(), ether(100))
                .unwrap();
            chain.advance(12);
            let tx = chain.claim_eth(victim, contract, ether(10), affiliate).unwrap();
            dataset.absorb(classify_tx(chain.tx(tx), &Default::default()).unwrap());
        }
    }
    // Direct operator↔operator links: 0→1, 2→3, …
    for pair in ops.chunks(2) {
        if let [a, b] = pair {
            chain.advance(12);
            chain.transfer_eth(*a, *b, ether(1)).unwrap();
        }
    }
    // A shared labeled phishing account touched by operators 0, 3, 6, …
    let phish = chain.create_eoa(b"old-phish").unwrap();
    labels.add_phishing(phish, LabelSource::Etherscan, "Fake_Phishing777");
    for op in ops.iter().step_by(3) {
        chain.advance(12);
        chain.transfer_eth(*op, phish, ether(1)).unwrap();
    }
    (chain, labels, dataset)
}

#[test]
fn thread_counts_agree_on_micro_worlds() {
    for (operators, victims) in [(1, 1), (2, 2), (5, 1), (8, 3)] {
        let (chain, labels, dataset) = micro_world(operators, victims);
        assert_all_thread_counts_agree(&chain, &labels, &dataset);
    }
}

#[test]
fn thread_counts_agree_on_tiny_worlds() {
    for seed in [7u64, 31, 99] {
        let world = World::build(&WorldConfig::tiny(seed)).expect("world");
        let dataset = build_dataset(&world.chain, &world.labels, &SnowballConfig::default());
        assert_all_thread_counts_agree(&world.chain, &world.labels, &dataset);
    }
}

#[test]
fn thread_counts_agree_on_small_world() {
    let world = World::build(&WorldConfig::small(7)).expect("world");
    let dataset = build_dataset(&world.chain, &world.labels, &SnowballConfig::default());
    assert_all_thread_counts_agree(&world.chain, &world.labels, &dataset);
}

#[test]
fn forensics_agrees_across_threads() {
    let world = World::build(&WorldConfig::tiny(11)).expect("world");
    let dataset = build_dataset(&world.chain, &world.labels, &SnowballConfig::default());
    let clustering = cluster_with(&world.chain, &world.labels, &dataset, &cfg(1));
    let as_of = collection_end();
    let run = |threads| {
        let f = family_forensics(
            &world.chain,
            &dataset,
            &clustering,
            5,
            30 * 86_400,
            as_of,
            &cfg(threads),
        );
        (
            serde_json::to_string(&f.profiles).expect("profiles serialise"),
            serde_json::to_string(&f.lifecycles).expect("lifecycles serialise"),
        )
    };
    let oracle = run(1);
    for threads in [2usize, 4, 0] {
        assert_eq!(run(threads), oracle, "forensics diverged at threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For arbitrary micro-world shapes, any thread count produces the
    /// oracle's exact clustering bytes.
    #[test]
    fn thread_count_never_changes_micro_clustering(
        operators in 1usize..7,
        victims in 1usize..4,
        threads in 1usize..6,
    ) {
        let (chain, labels, dataset) = micro_world(operators, victims);
        let oracle = json(&cluster_with(&chain, &labels, &dataset, &cfg(1)));
        let clustering = cluster_with(&chain, &labels, &dataset, &cfg(threads));
        prop_assert_eq!(json(&clustering), oracle);
    }
}

/// Full paper-scale equivalence — minutes of CPU, so opt-in:
/// `cargo test -p daas-cluster --test parallel_equivalence -- --ignored`.
#[test]
#[ignore = "paper-scale world; run via ci.sh or -- --ignored"]
fn thread_counts_agree_at_paper_scale() {
    let world = World::build(&WorldConfig::paper_scale(42)).expect("world");
    let dataset = build_dataset(&world.chain, &world.labels, &SnowballConfig::default());
    let oracle = json(&cluster_with(&world.chain, &world.labels, &dataset, &cfg(1)));
    let parallel = json(&cluster_with(&world.chain, &world.labels, &dataset, &cfg(0)));
    assert_eq!(parallel, oracle, "parallel diverged at paper scale");
}
