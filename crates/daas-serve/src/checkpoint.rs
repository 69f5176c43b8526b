//! Whole-engine checkpoints: every retained byte of live state, keyed
//! by address (never by arena-local interned id), JSON-serialized.
//!
//! The determinism contract (DESIGN.md §13): the world is a pure
//! function of the embedded `WorldConfig`, so a checkpoint carries the
//! config instead of the chain. On restore the world is rebuilt, every
//! address re-interns against the fresh arena (interned ids are
//! assigned in chain-generation order, so equal worlds produce equal
//! ids), and the detector/clusterer/measure states are re-keyed. Floats
//! are serialized exactly (shortest round-trip formatting, bit-exact
//! parse) because the measurement accumulators are order-dependent
//! running sums — recomputing them would be a different number.

use std::fs;
use std::path::Path;

use daas_cluster::ClustererCheckpoint;
use daas_detector::{DetectorCheckpoint, SnowballConfig};
use daas_measure::MeasureCheckpoint;
use daas_world::WorldConfig;
use serde::{Deserialize, Serialize};

/// Serialized engine state: stream position, full component state of
/// every stage, and the configs needed to rebuild the world and caches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    /// Format version ([`EngineCheckpoint::VERSION`]).
    pub version: u32,
    /// World generator configuration (the chain is rebuilt, not saved).
    pub config: WorldConfig,
    /// Snowball / classifier configuration.
    pub snowball: SnowballConfig,
    /// Publication epoch at checkpoint time.
    pub epoch: u64,
    /// Windows ingested so far (continues the window index sequence).
    pub windows: usize,
    /// Online detector state (cursor, dataset, first-contact index).
    pub detector: DetectorCheckpoint,
    /// Incremental clusterer state (components, retained edges, votes).
    pub clusterer: ClustererCheckpoint,
    /// Live measurement accumulators (exact floats).
    pub measure: MeasureCheckpoint,
}

impl EngineCheckpoint {
    /// Current checkpoint format version.
    pub const VERSION: u32 = 1;

    /// Serializes to JSON.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| e.to_string())
    }

    /// Parses from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Writes the checkpoint to `path`, returning the byte size (also
    /// published as the `serve.checkpoint.bytes` gauge).
    pub fn save(&self, path: &Path) -> Result<u64, String> {
        let json = self.to_json()?;
        fs::write(path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
        let bytes = json.len() as u64;
        if daas_obs::enabled() {
            daas_obs::gauge("serve.checkpoint.bytes", bytes as f64);
        }
        Ok(bytes)
    }

    /// Reads a checkpoint back from `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let json =
            fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_json(&json)
    }
}
