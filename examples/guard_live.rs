//! Wallet-guard against the live intelligence daemon.
//!
//! Boots a `daas-serve` engine on a tiny world, serves it on a Unix
//! socket from a background thread, ingests the whole chain via the
//! control protocol, then runs wallet-side pre-signing checks through
//! `wallet_guard::LiveGuardClient` — the §9 countermeasure backed by a
//! *live* dataset instead of a static blocklist.
//!
//! Run with: `cargo run --release --example guard_live`

use std::path::PathBuf;
use std::thread;

use daas_detector::SnowballConfig;
use daas_serve::{serve, Engine, ServeOptions};
use daas_world::WorldConfig;
use eth_types::Address;
use wallet_guard::LiveGuardClient;

fn main() -> Result<(), String> {
    let config = WorldConfig::tiny(42);
    let snowball = SnowballConfig::default();
    let engine = Engine::new(&config, &snowball)?;
    // Keep a handle on the publication cell: the example reads the
    // final snapshot directly to pick real addresses to query.
    let cell = engine.snapshot_cell();

    let socket = PathBuf::from(format!(
        "{}/guard_live_{}.sock",
        std::env::temp_dir().display(),
        std::process::id()
    ));
    let opts = ServeOptions { socket: Some(socket.clone()), readers: 2, ..Default::default() };
    let daemon = thread::spawn(move || serve(engine, opts));
    while !socket.exists() {
        thread::sleep(std::time::Duration::from_millis(10));
    }

    let mut client = LiveGuardClient::connect(&socket)?;
    let status = client.status()?;
    println!(
        "connected: epoch {} | {}/{} blocks | {} known contracts",
        status.epoch, status.blocks_ingested, status.total_blocks, status.contracts
    );

    // Stream the whole chain through the engine (a real deployment
    // would ingest sealed blocks as they arrive).
    client.command("{\"cmd\":\"run\",\"window\":64}")?;
    let status = client.status()?;
    println!(
        "ingested: epoch {} | watermark {} | {} families | {} known contracts",
        status.epoch, status.watermark, status.families, status.contracts
    );

    // Pre-signing checks: one known drainer contract from the live
    // snapshot, one innocent address.
    let snap = cell.load();
    let drainer = snap.contracts.iter().next().copied();
    let innocent = Address::from_key_seed(b"innocent-checkout");
    for (label, addr) in [("drainer contract", drainer), ("innocent", Some(innocent))] {
        let Some(addr) = addr else { continue };
        let (safe, risk) = client.check_recipient(addr)?;
        println!(
            "{label:>16} {addr}: {} (roles {:?}, family {:?}, epoch {})",
            if safe { "SAFE TO SIGN" } else { "BLOCKED" },
            risk.roles,
            risk.family_name,
            risk.epoch,
        );
        assert_eq!(safe, label == "innocent");
    }

    client.command("{\"cmd\":\"shutdown\"}")?;
    daemon.join().map_err(|_| "daemon thread panicked".to_string())??;
    Ok(())
}
