//! Pins the persisted bytes of the scaled robot experiment's fitted VARADE
//! detector: the window-64, 86-channel model every outside-in benchmark
//! workload serves. Training is deterministic and every kernel keeps a fixed
//! association, so a change to a training loop that moves any weight by one
//! bit changes this hash.

use varade::{ModelArtifact, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_edge::table::ExperimentConfig;
use varade_robot::dataset::DatasetBuilder;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn fitted_scaled_robot_model_bytes_are_pinned() {
    let config = ExperimentConfig::scaled();
    let dataset = DatasetBuilder::new(config.dataset)
        .build()
        .expect("the scaled dataset builds");
    let mut detector = VaradeDetector::new(config.detectors.varade);
    detector.fit(&dataset.train).expect("the scaled model fits");
    let bytes = ModelArtifact::new(detector)
        .with_normalizer(dataset.normalizer.clone())
        .to_bytes()
        .expect("the fitted model serializes");
    assert_eq!(format!("{:016x}", fnv1a(&bytes)), "21c6b1be876aae5d");
}
