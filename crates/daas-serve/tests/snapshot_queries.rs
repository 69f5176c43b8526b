//! Epoch-swapped snapshot reads under concurrent ingestion, and the
//! JSONL query layer answered from published snapshots.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread;

use daas_detector::SnowballConfig;
use daas_serve::protocol::{answer_query, Request};
use daas_serve::{handle_control, Engine};
use daas_world::WorldConfig;

fn engine(config: &WorldConfig) -> Engine {
    let snowball = SnowballConfig { threads: 1, ..Default::default() };
    Engine::new(config, &snowball).expect("engine")
}

#[test]
fn readers_never_block_ingest_and_see_monotonic_epochs() {
    let mut eng = engine(&WorldConfig::tiny(42));
    let cell = eng.snapshot_cell();
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let mut readers = Vec::new();
    for _ in 0..4 {
        let cell = Arc::clone(&cell);
        let done = Arc::clone(&done);
        readers.push(thread::spawn(move || {
            let mut last_epoch = 0u64;
            let mut epochs = BTreeSet::new();
            let mut queries = 0usize;
            while !done.load(std::sync::atomic::Ordering::Relaxed) || queries < 250 {
                let snap = cell.load();
                // Epochs only move forward.
                assert!(snap.epoch >= last_epoch, "epoch went backwards");
                last_epoch = snap.epoch;
                epochs.insert(snap.epoch);
                // Exercise the lazy indices from reader threads.
                let line = answer_query(
                    &snap,
                    &Request::parse("{\"cmd\":\"stats\"}").expect("request"),
                )
                .expect("stats is a query");
                assert!(line.contains("\"ok\":true"), "{line}");
                queries += 1;
            }
            (epochs, queries)
        }));
    }

    let windows = eng.run_to_end(37, |_| {});
    assert!(!windows.is_empty());
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut total_queries = 0;
    for reader in readers {
        let (epochs, queries) = reader.join().expect("reader");
        // Readers observed the stream advancing, not just the final
        // state.
        assert!(epochs.len() > 1, "reader saw a single epoch");
        total_queries += queries;
    }
    assert!(total_queries >= 1000, "only {total_queries} queries ran");
}

#[test]
fn query_layer_matches_engine_state() {
    let mut eng = engine(&WorldConfig::tiny(42));
    eng.run_to_end(64, |_| {});
    let reports = eng.reports(&daas_measure::MeasureConfig::sequential());
    let snap = eng.snapshot();
    assert!(snap.done);

    // status reflects the converged dataset.
    let counts = eng.dataset().counts();
    let status =
        answer_query(&snap, &Request::parse("{\"cmd\":\"status\"}").unwrap()).unwrap();
    assert!(status.contains(&format!("\"contracts\":{}", counts.contracts)), "{status}");
    assert!(status.contains(&format!("\"ps_txs\":{}", counts.ps_txs)), "{status}");
    assert!(status.contains("\"done\":true"), "{status}");

    // Every discovered contract resolves as a drainer contract with a
    // family.
    let contract = *snap.contracts.iter().next().expect("tiny world finds contracts");
    let line = answer_query(
        &snap,
        &Request::parse(&format!("{{\"cmd\":\"risk\",\"address\":\"{contract}\"}}")).unwrap(),
    )
    .unwrap();
    assert!(line.contains("\"is_daas\":true"), "{line}");
    assert!(line.contains("contract"), "{line}");

    // Victim losses from the snapshot agree with the §6 victim report.
    let victim_total: f64 = snap.victim_losses().values().map(|(usd, _)| usd).sum();
    assert!(
        (victim_total - reports.victims.total_usd).abs() < 1e-6,
        "snapshot {victim_total} vs reports {}",
        reports.victims.total_usd
    );
    // And the stat bundle counts the same incident set.
    assert_eq!(snap.stat_bundle().incidents, snap.incidents.len());
    assert_eq!(snap.stat_bundle().victims, snap.victim_losses().len());

    // family endpoint round-trips by id and by member address.
    if let Some(family) = snap.families.first() {
        let by_id = answer_query(
            &snap,
            &Request::parse(&format!("{{\"cmd\":\"family\",\"id\":{}}}", family.id)).unwrap(),
        )
        .unwrap();
        assert!(by_id.contains(&format!("\"id\":{}", family.id)), "{by_id}");
        if let Some(op) = family.operators.first() {
            let by_addr = answer_query(
                &snap,
                &Request::parse(&format!("{{\"cmd\":\"family\",\"address\":\"{op}\"}}"))
                    .unwrap(),
            )
            .unwrap();
            assert!(by_addr.contains(&format!("\"id\":{}", family.id)), "{by_addr}");
        }
    }
}

#[test]
fn idle_window_publishes_cheap_epochs() {
    let mut eng = engine(&WorldConfig::micro(42));
    let first = eng.ingest_window(10_000_000).expect("one giant window");
    assert!(first.watermark > 0);
    let epoch_after_all = eng.epoch();
    // Stream exhausted: further ingests are None and don't publish.
    assert!(eng.ingest_window(16).is_none());
    assert_eq!(eng.epoch(), epoch_after_all);
    // The last window already published the finished stream, so
    // finish_stream has nothing to drain and publishes nothing.
    assert!(eng.done());
    assert!(eng.snapshot().done);
    eng.finish_stream();
    assert_eq!(eng.epoch(), epoch_after_all);
}

/// `artifact` on a finished stream publishes nothing: the second of two
/// back-to-back requests leaves the published snapshot (and so its warm
/// reader indices) in place and returns the same bytes.
#[test]
fn repeated_artifact_keeps_the_published_epoch() {
    let mut eng = engine(&WorldConfig::micro(42));
    eng.ingest_window(40).expect("a first window");
    let measure = daas_measure::MeasureConfig::sequential();
    let artifact = Request::parse("{\"cmd\":\"artifact\"}").unwrap();
    let status = Request::parse("{\"cmd\":\"status\"}").unwrap();

    let (first, shutdown) = handle_control(&mut eng, &artifact, 64, &measure);
    assert!(!shutdown);
    assert!(first.starts_with("{\"ok\":true"), "{first}");
    let published = eng.snapshot();
    let status_after_first = answer_query(&published, &status).unwrap();

    let (second, _) = handle_control(&mut eng, &artifact, 64, &measure);
    assert_eq!(second, first, "artifact bytes changed between requests");
    assert_eq!(answer_query(&eng.snapshot(), &status).unwrap(), status_after_first);
    assert!(Arc::ptr_eq(&published, &eng.snapshot()), "a new epoch was published");
}
