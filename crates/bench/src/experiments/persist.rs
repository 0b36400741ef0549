//! Model-persistence round-trip: the fitted detector serialized through the
//! `varade::persist` container, written to disk, loaded back the way a fresh
//! process would, and held to the format's contract — **bit-identical
//! scores** from the loaded copy. Every baseline records the on-disk
//! footprint (prelude/header/payload split), the save and load wall times,
//! and the deviation audit's result, so format regressions (size blow-ups,
//! slow loads, lossy round-trips) show up in the BENCH trajectory like any
//! other performance change.
//!
//! This extends the ROADMAP "versioned model persistence + zero-downtime hot
//! swap" item into the BENCH trajectory the same way the incremental
//! experiment extended the activation-cache item.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use varade::persist::{ModelArtifact, PersistError, PRELUDE_LEN};
use varade::VaradeDetector;
use varade_robot::dataset::RobotDataset;

use crate::BenchError;

/// Windows scored by the deviation audit (loaded vs original detector). The
/// audit is bit-exact, so a modest sample is as conclusive as the full
/// split — the cap keeps the full-scale run from re-scoring the entire test
/// set a third time.
const AUDIT_WINDOW_CAP: usize = 256;

/// Timing repetitions for the save and load measurements.
const TIMING_REPS: u32 = 5;

/// Serializable outcome of the persistence experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersistenceResult {
    /// Channels per sample (86 for the robot stream).
    pub n_channels: usize,
    /// Context window of the persisted detector.
    pub window: usize,
    /// Total on-disk footprint of the saved model file, bytes.
    pub file_bytes: u64,
    /// Bytes of the JSON header (tensor names/shapes/dtypes, config,
    /// backend, scoring rule).
    pub header_bytes: u64,
    /// Bytes of the contiguous little-endian `f32` weight payload.
    pub payload_bytes: u64,
    /// Number of `f32` weight elements in the payload.
    pub persisted_f32_elements: u64,
    /// Mean wall time of one save (serialize + write to disk), microseconds.
    pub save_mean_us: f64,
    /// Mean wall time of one load (read from disk + rebuild), microseconds.
    pub load_mean_us: f64,
    /// Windows scored by both detectors in the deviation audit.
    pub audited_windows: usize,
    /// Largest absolute score difference between the loaded and the original
    /// detector across the audit. The format contract pins this to exactly
    /// 0.0: the round trip restores weights and config bit-for-bit, so the
    /// forwards are the same arithmetic.
    pub max_abs_deviation: f64,
}

fn persist_err(e: PersistError) -> BenchError {
    BenchError::Report(format!("persistence round-trip failed: {e}"))
}

/// Saves the fitted detector to a temporary file, loads it back, times both
/// directions, and audits the loaded copy's scores against the original over
/// the dataset's collision split.
///
/// # Errors
///
/// Returns [`BenchError`] if the detector is unfitted, the file round-trip
/// fails, or any audited score deviates from the original at all (the
/// contract is bit-identity, not a tolerance).
pub fn run_fitted(
    detector: &VaradeDetector,
    dataset: &RobotDataset,
    sample_cap: usize,
) -> Result<PersistenceResult, BenchError> {
    let n_channels = dataset.test.n_channels();
    let window = detector.config().window;

    // Footprint: one reference serialization, split into the container's
    // three regions (28-byte prelude, JSON header, f32 payload).
    let bytes = detector.to_persist_bytes().map_err(persist_err)?;
    let header_len = u64::from_le_bytes(bytes[8..16].try_into().expect("prelude"));
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().expect("prelude"));
    debug_assert_eq!(
        bytes.len() as u64,
        PRELUDE_LEN as u64 + header_len + payload_len
    );

    // Save/load wall time through a real file, the way a deployment would.
    let path = std::env::temp_dir().join(format!(
        "varade-bench-persist-{}-w{window}.varade",
        std::process::id()
    ));
    let mut save_total = 0.0f64;
    let mut load_total = 0.0f64;
    let mut loaded = None;
    for _ in 0..TIMING_REPS {
        let t0 = Instant::now();
        let serialized = detector.to_persist_bytes().map_err(persist_err)?;
        std::fs::write(&path, &serialized)?;
        save_total += t0.elapsed().as_secs_f64() * 1e6;

        let t1 = Instant::now();
        let data = std::fs::read(&path)?;
        let artifact = ModelArtifact::from_bytes(&data).map_err(persist_err)?;
        load_total += t1.elapsed().as_secs_f64() * 1e6;
        loaded = Some(artifact.detector);
    }
    let _ = std::fs::remove_file(&path);
    let loaded = loaded.expect("at least one timing rep ran");

    // Deviation audit: the loaded detector must reproduce the original's
    // scores bit-for-bit over the shared (already normalized) test split.
    let last = dataset.test.len().min(sample_cap);
    let audit_targets: Vec<usize> = (window..last).take(AUDIT_WINDOW_CAP).collect();
    if audit_targets.is_empty() {
        return Err(BenchError::Report(
            "persistence audit has no test windows to score".into(),
        ));
    }
    let mut max_abs_deviation = 0.0f64;
    let mut ctx = vec![0.0f32; n_channels * window];
    for &t in &audit_targets {
        for c in 0..n_channels {
            for (i, u) in (t - window..t).enumerate() {
                ctx[c * window + i] = dataset.test.value(u, c);
            }
        }
        let target = dataset.test.row(t);
        let original = detector.score_window(&ctx, target)?;
        let reloaded = loaded.score_window(&ctx, target)?;
        if original.to_bits() != reloaded.to_bits() {
            max_abs_deviation = max_abs_deviation.max(f64::from((original - reloaded).abs()));
        }
    }
    if max_abs_deviation != 0.0 {
        return Err(BenchError::Report(format!(
            "loaded detector deviates from the original by up to {max_abs_deviation:.2e} \
             (contract: bit-identical)"
        )));
    }

    Ok(PersistenceResult {
        n_channels,
        window,
        file_bytes: bytes.len() as u64,
        header_bytes: header_len,
        payload_bytes: payload_len,
        persisted_f32_elements: payload_len / 4,
        save_mean_us: save_total / f64::from(TIMING_REPS),
        load_mean_us: load_total / f64::from(TIMING_REPS),
        audited_windows: audit_targets.len(),
        max_abs_deviation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentScale;
    use varade_detectors::AnomalyDetector;
    use varade_robot::dataset::DatasetBuilder;

    #[test]
    fn quick_persistence_round_trip_is_bit_identical_and_round_trips() {
        let scale = ExperimentScale::Quick;
        let dataset = DatasetBuilder::new(scale.dataset_config()).build().unwrap();
        let mut detector = VaradeDetector::new(scale.varade_config());
        detector.fit(&dataset.train).unwrap();

        let r = run_fitted(&detector, &dataset, 200).unwrap();
        assert_eq!(r.n_channels, 86);
        assert_eq!(r.window, scale.varade_config().window);
        assert_eq!(
            r.file_bytes,
            PRELUDE_LEN as u64 + r.header_bytes + r.payload_bytes
        );
        assert_eq!(r.persisted_f32_elements, r.payload_bytes / 4);
        assert!(r.file_bytes > 0 && r.payload_bytes > 0);
        assert!(r.save_mean_us > 0.0 && r.load_mean_us > 0.0);
        assert!(r.audited_windows > 0);
        assert_eq!(r.max_abs_deviation, 0.0, "round trip must be bit-exact");

        let text = serde_json::to_string_pretty(&r).unwrap();
        let back: PersistenceResult = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }
}
