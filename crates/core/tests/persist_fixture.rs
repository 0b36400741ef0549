//! Checked-in fixture pinning the on-disk format.
//!
//! `tests/fixtures/model-v1.varade` is a small detector fitted with a pinned
//! config, serialized once and committed.
//! Re-fitting the same detector today must reproduce the file **byte for
//! byte** — any drift in the prelude layout, header field order, tensor
//! naming, payload encoding *or* training determinism breaks this test and
//! therefore the build, which is exactly the point: a format change must be
//! a conscious version bump, never an accident.
//!
//! Regenerate after an intentional format change with:
//!
//! ```text
//! cargo test -p varade --test persist_fixture -- --ignored write_fixture
//! ```

use varade::persist::{FORMAT_VERSION, MAGIC, PRELUDE_LEN};
use varade::{VaradeConfig, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_timeseries::MultivariateSeries;

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/model-v1.varade")
}

/// The fixture's detector, refit from scratch. Everything is pinned: config,
/// training data and scoring rule, and the kernels are bit-exact on every
/// machine, so serialization is fully deterministic.
fn fixture_detector() -> VaradeDetector {
    let config = VaradeConfig {
        window: 8,
        base_feature_maps: 8,
        kl_weight: 0.05,
        epochs: 2,
        batch_size: 8,
        learning_rate: 2e-3,
        max_train_windows: 48,
        seed: 2024,
    };
    let mut s = MultivariateSeries::new(vec!["x".into(), "y".into()], 10.0).unwrap();
    for t in 0..96 {
        let v = (t as f32 * 0.27).sin();
        s.push_row(&[v, v * -0.5]).unwrap();
    }
    let mut det = VaradeDetector::new(config);
    det.fit(&s).unwrap();
    det
}

#[test]
fn fixture_bytes_pin_the_format() {
    let expected = fixture_detector().to_persist_bytes().unwrap();
    let on_disk = std::fs::read(fixture_path()).expect(
        "fixture missing — regenerate with \
         `cargo test -p varade --test persist_fixture -- --ignored write_fixture`",
    );
    assert_eq!(
        on_disk.len(),
        expected.len(),
        "fixture length changed: the on-disk layout drifted"
    );
    assert_eq!(on_disk, expected, "fixture bytes changed: format drift");
}

#[test]
fn fixture_prelude_fields_are_stable() {
    let bytes = std::fs::read(fixture_path()).unwrap();
    assert_eq!(&bytes[..6], &MAGIC);
    // Format v1, the only version this crate reads and writes.
    assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), FORMAT_VERSION);
    let header_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    assert_eq!(bytes.len(), PRELUDE_LEN + header_len + payload_len);
    // The payload is the fixture model's parameters: conv [8,2,2]+[8],
    // conv [8,8,2]+[8] and linear [4,16]+[4] → 244 f32 values.
    assert_eq!(payload_len, 244 * 4);
}

#[test]
fn fixture_loads_and_scores_like_a_fresh_fit() {
    let loaded = VaradeDetector::load(fixture_path()).unwrap();
    let fresh = fixture_detector();
    assert_eq!(loaded.config(), fresh.config());
    let ctx: Vec<f32> = (0..16).map(|i| (i as f32 * 0.11).cos() * 0.5).collect();
    let target = [0.1f32, -0.2];
    assert_eq!(
        loaded.score_window(&ctx, &target).unwrap().to_bits(),
        fresh.score_window(&ctx, &target).unwrap().to_bits()
    );
}

/// Regenerates the fixture. Ignored by default; run explicitly after an
/// intentional format change (and say so in the commit message).
#[test]
#[ignore = "writes the checked-in fixture; run only on intentional format changes"]
fn write_fixture() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let bytes = fixture_detector().to_persist_bytes().unwrap();
    std::fs::write(&path, &bytes).unwrap();
    println!("wrote {} bytes to {}", bytes.len(), path.display());
}
