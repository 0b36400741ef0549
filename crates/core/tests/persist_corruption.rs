//! Adversarial corruption battery: every way a model file can rot maps to
//! its own typed [`PersistError`] variant — never a panic, never a detector
//! loaded from garbage.
//!
//! Each test starts from a valid serialized artifact and mutates exactly one
//! aspect of it. Mutations that touch the payload re-stamp the prelude's
//! CRC32 (via the public [`persist::crc32`]) so the test reaches the check
//! *behind* the checksum; mutations that leave the CRC stale prove the
//! checksum itself catches bit rot first.

use varade::persist::{self, ModelArtifact, PersistError, FORMAT_VERSION, PRELUDE_LEN};
use varade::{BackendKind, ThresholdCalibration, VaradeConfig, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_timeseries::{MinMaxNormalizer, MultivariateSeries};

fn fitted() -> VaradeDetector {
    let config = VaradeConfig {
        window: 8,
        base_feature_maps: 8,
        epochs: 2,
        batch_size: 8,
        learning_rate: 2e-3,
        max_train_windows: 48,
        kl_weight: 0.05,
        seed: 11,
    };
    let mut s = MultivariateSeries::new(vec!["a".into(), "b".into()], 10.0).unwrap();
    for t in 0..100 {
        let v = (t as f32 * 0.29).sin();
        s.push_row(&[v, -v * 0.4]).unwrap();
    }
    let mut det = VaradeDetector::new(config).with_backend(BackendKind::Scalar);
    det.fit(&s).unwrap();
    det
}

fn valid_bytes() -> Vec<u8> {
    fitted().to_persist_bytes().unwrap()
}

/// A detector bundled with a two-channel normalizer (`normalizer.mins` and
/// `normalizer.maxs` are the payload's last four values) and a threshold
/// calibration of 1.25 / 0.75.
fn valid_bundle_bytes() -> Vec<u8> {
    ModelArtifact::new(fitted())
        .with_normalizer(MinMaxNormalizer::from_ranges(&[(-1.0, 1.0), (-2.0, 2.0)]))
        .with_threshold(ThresholdCalibration {
            threshold: 1.25,
            best_f1: 0.75,
        })
        .to_bytes()
        .unwrap()
}

fn header_len(bytes: &[u8]) -> usize {
    u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize
}

fn payload_start(bytes: &[u8]) -> usize {
    PRELUDE_LEN + header_len(bytes)
}

/// Recomputes the prelude's payload length and CRC32 after a payload edit.
fn restamp(bytes: &mut [u8]) {
    let start = payload_start(bytes);
    let payload_len = (bytes.len() - start) as u64;
    let crc = persist::crc32(&bytes[start..]);
    bytes[16..24].copy_from_slice(&payload_len.to_le_bytes());
    bytes[24..28].copy_from_slice(&crc.to_le_bytes());
}

/// `bytes` with its JSON header replaced by `header` (any length) and the
/// prelude's header length updated; the payload and its CRC are untouched.
fn with_header(bytes: &[u8], header: &str) -> Vec<u8> {
    let mut out = bytes[..PRELUDE_LEN].to_vec();
    out[8..16].copy_from_slice(&(header.len() as u64).to_le_bytes());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(&bytes[payload_start(bytes)..]);
    out
}

/// Appends a rank-1 tensor named `name` holding `values`: a header entry at
/// the end of the tensor table plus the payload values, with the prelude's
/// lengths and CRC re-stamped so every byte-level check passes.
fn append_tensor(bytes: &[u8], name: &str, values: &[f32]) -> Vec<u8> {
    let start = payload_start(bytes);
    let header = std::str::from_utf8(&bytes[PRELUDE_LEN..start]).unwrap();
    let table_end = header
        .rfind("]}")
        .expect("the tensor table closes the header");
    let offset = (bytes.len() - start) / 4;
    let header = format!(
        "{},{{\"name\":\"{name}\",\"shape\":[{}],\"dtype\":\"f32\",\"offset\":{offset}}}{}",
        &header[..table_end],
        values.len(),
        &header[table_end..]
    );
    let mut out = with_header(bytes, &header);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    restamp(&mut out);
    out
}

/// Replaces one occurrence of `from` with the equal-length `to` inside the
/// JSON header, leaving every declared length valid.
fn edit_header(bytes: &mut [u8], from: &str, to: &str) {
    assert_eq!(from.len(), to.len(), "header edits must preserve length");
    let start = PRELUDE_LEN;
    let end = payload_start(bytes);
    let header = &bytes[start..end];
    let pos = header
        .windows(from.len())
        .position(|w| w == from.as_bytes())
        .unwrap_or_else(|| panic!("header does not contain {from:?}"));
    bytes[start + pos..start + pos + from.len()].copy_from_slice(to.as_bytes());
}

#[test]
fn truncated_payload_is_detected() {
    let bytes = valid_bytes();
    let cut = &bytes[..bytes.len() - 5];
    match ModelArtifact::from_bytes(cut) {
        Err(PersistError::Truncated {
            expected_bytes,
            got_bytes,
        }) => {
            assert_eq!(expected_bytes, bytes.len() as u64);
            assert_eq!(got_bytes, cut.len() as u64);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    // Even a file shorter than the prelude fails typed, not by slicing.
    assert!(matches!(
        ModelArtifact::from_bytes(&bytes[..10]),
        Err(PersistError::Truncated { .. })
    ));
}

#[test]
fn trailing_garbage_is_detected() {
    let mut bytes = valid_bytes();
    bytes.extend_from_slice(b"junk");
    assert!(matches!(
        ModelArtifact::from_bytes(&bytes),
        Err(PersistError::TrailingBytes { .. })
    ));
}

#[test]
fn flipped_crc_byte_is_detected() {
    // Flip a byte of the *stored checksum* itself.
    let mut bytes = valid_bytes();
    bytes[24] ^= 0xFF;
    assert!(matches!(
        ModelArtifact::from_bytes(&bytes),
        Err(PersistError::ChecksumMismatch { .. })
    ));
    // And flipping a payload byte (stale CRC) is caught the same way.
    let mut bytes = valid_bytes();
    let p = payload_start(&bytes) + 13;
    bytes[p] ^= 0x01;
    assert!(matches!(
        ModelArtifact::from_bytes(&bytes),
        Err(PersistError::ChecksumMismatch { .. })
    ));
}

#[test]
fn wrong_magic_is_detected() {
    let mut bytes = valid_bytes();
    bytes[0] = b'X';
    assert_eq!(
        ModelArtifact::from_bytes(&bytes).err(),
        Some(PersistError::BadMagic)
    );
}

#[test]
fn future_format_version_is_refused() {
    let mut bytes = valid_bytes();
    let future = FORMAT_VERSION + 41;
    bytes[6..8].copy_from_slice(&future.to_le_bytes());
    assert_eq!(
        ModelArtifact::from_bytes(&bytes).err(),
        Some(PersistError::UnsupportedVersion { found: future })
    );
    // Version 2 (int8 weight planes) is no longer read.
    bytes[6..8].copy_from_slice(&2u16.to_le_bytes());
    assert_eq!(
        ModelArtifact::from_bytes(&bytes).err(),
        Some(PersistError::UnsupportedVersion { found: 2 })
    );
    // Version 0 never existed either.
    bytes[6..8].copy_from_slice(&0u16.to_le_bytes());
    assert_eq!(
        ModelArtifact::from_bytes(&bytes).err(),
        Some(PersistError::UnsupportedVersion { found: 0 })
    );
}

#[test]
fn header_payload_length_mismatch_is_detected() {
    // Drop the last tensor element from the payload and re-stamp the CRC and
    // payload length: the file is self-consistent at the byte level, but the
    // header's entries now declare more elements than the payload holds.
    let mut bytes = valid_bytes();
    bytes.truncate(bytes.len() - 4);
    restamp(&mut bytes);
    match ModelArtifact::from_bytes(&bytes) {
        Err(PersistError::PayloadMismatch {
            declared_elements,
            actual_elements,
        }) => assert_eq!(declared_elements, actual_elements + 1),
        other => panic!("expected PayloadMismatch, got {other:?}"),
    }
}

#[test]
fn tensor_shape_mismatch_is_detected() {
    // Transpose the first conv kernel's declared shape ([8,2,2] → [2,2,8]):
    // same element count, so the payload checks pass and the mismatch is
    // caught where it matters — against the rebuilt model's layer shapes.
    let mut bytes = valid_bytes();
    edit_header(&mut bytes, "\"shape\":[8,2,2]", "\"shape\":[2,2,8]");
    match ModelArtifact::from_bytes(&bytes) {
        Err(PersistError::ShapeMismatch {
            name,
            expected,
            got,
        }) => {
            assert_eq!(name, "model.0.weight");
            assert_eq!(expected, vec![8, 2, 2]);
            assert_eq!(got, vec![2, 2, 8]);
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
}

#[test]
fn forged_sizes_are_refused_before_allocating() {
    // The header carries no CRC, so a forged size must fail typed before it
    // overflows a shape product or sizes the rebuilt model's allocation.
    let bytes = valid_bytes();
    let header = std::str::from_utf8(&bytes[PRELUDE_LEN..payload_start(&bytes)]).unwrap();
    let forge = |from: &str, to: &str| {
        assert!(header.contains(from), "header does not contain {from:?}");
        ModelArtifact::from_bytes(&with_header(&bytes, &header.replacen(from, to, 1)))
    };
    // 8 · 2 · 2^61 overflows usize.
    match forge("\"shape\":[8,2,2]", "\"shape\":[8,2,2305843009213693952]") {
        Err(PersistError::Header(reason)) => assert!(reason.contains("overflows"), "{reason}"),
        other => panic!("expected Header, got {other:?}"),
    }
    // A config whose model needs more parameters than the payload holds:
    // 2^62 feature maps overflow outright, 10^8 channels would allocate
    // gigabytes.
    for (from, to) in [
        (
            "\"base_feature_maps\":8",
            "\"base_feature_maps\":4611686018427387904",
        ),
        ("\"n_channels\":2", "\"n_channels\":100000000"),
    ] {
        match forge(from, to) {
            Err(PersistError::Model(reason)) => {
                assert!(reason.contains("parameters"), "{to}: {reason}")
            }
            other => panic!("{to}: expected Model, got {other:?}"),
        }
    }
}

#[test]
fn renamed_tensor_is_detected_as_missing() {
    let mut bytes = valid_bytes();
    edit_header(&mut bytes, "model.0.bias", "model.0.bigs");
    assert_eq!(
        ModelArtifact::from_bytes(&bytes).err(),
        Some(PersistError::MissingTensor("model.0.bias".into()))
    );
    // The converse: a tensor the model has no slot for, here the per-row
    // scales an int8 weight plane used to carry, is refused by name.
    let stray = "quant.model.0.weight.scales";
    let bytes = append_tensor(&valid_bytes(), stray, &[0.5; 8]);
    assert_eq!(
        ModelArtifact::from_bytes(&bytes).err(),
        Some(PersistError::UnknownTensor(stray.into()))
    );
}

#[test]
fn smuggled_nan_is_detected_with_a_valid_checksum() {
    // Overwrite one weight with NaN *and* re-stamp the CRC: the checksum is
    // genuinely valid, so only the explicit finite-audit can refuse the
    // model. The first tensor is model.0.weight, so the offender is named.
    let mut bytes = valid_bytes();
    let p = payload_start(&bytes);
    bytes[p..p + 4].copy_from_slice(&f32::NAN.to_le_bytes());
    restamp(&mut bytes);
    match ModelArtifact::from_bytes(&bytes) {
        Err(PersistError::NonFinite { name, index }) => {
            assert_eq!(name, "model.0.weight");
            assert_eq!(index, 0);
        }
        other => panic!("expected NonFinite, got {other:?}"),
    }
    // Infinity is refused just like NaN.
    let mut bytes = valid_bytes();
    let p = payload_start(&bytes) + 8;
    bytes[p..p + 4].copy_from_slice(&f32::INFINITY.to_le_bytes());
    restamp(&mut bytes);
    assert!(matches!(
        ModelArtifact::from_bytes(&bytes),
        Err(PersistError::NonFinite { index: 2, .. })
    ));
}

#[test]
fn corrupted_header_json_is_a_typed_error() {
    let mut bytes = valid_bytes();
    // Smash a structural character of the JSON; the header carries no CRC,
    // so the parser itself is the tripwire.
    bytes[PRELUDE_LEN] = b'?';
    assert!(matches!(
        ModelArtifact::from_bytes(&bytes),
        Err(PersistError::Header(_))
    ));
    // Invalid scoring/backend labels are refused after a clean parse.
    let mut bytes = valid_bytes();
    edit_header(
        &mut bytes,
        "\"scoring\":\"variance\"",
        "\"scoring\":\"variancf\"",
    );
    assert!(matches!(
        ModelArtifact::from_bytes(&bytes),
        Err(PersistError::Header(_))
    ));
    // The int8 backend is gone: a header naming it no longer loads.
    let mut bytes = valid_bytes();
    edit_header(
        &mut bytes,
        "\"backend\":\"scalar\"",
        "\"backend\":\"quant\" ",
    );
    match ModelArtifact::from_bytes(&bytes) {
        Err(PersistError::Header(reason)) => assert!(reason.contains("quant"), "{reason}"),
        other => panic!("expected Header, got {other:?}"),
    }
}

#[test]
fn non_finite_threshold_in_the_header_is_refused() {
    // The header carries no CRC. `null` reads back as NaN and `9e38`
    // overflows f32 to +inf; neither is a threshold an alarm can use.
    let bundle = valid_bundle_bytes();
    assert!(ModelArtifact::from_bytes(&bundle).is_ok());
    for (from, to, field) in [
        (
            "{\"threshold\":1.25",
            "{\"threshold\":null",
            "threshold.threshold",
        ),
        (
            "{\"threshold\":1.25",
            "{\"threshold\":9e38",
            "threshold.threshold",
        ),
        ("\"best_f1\":0.75", "\"best_f1\":null", "threshold.best_f1"),
    ] {
        let mut bytes = bundle.clone();
        edit_header(&mut bytes, from, to);
        assert_eq!(
            ModelArtifact::from_bytes(&bytes).err(),
            Some(PersistError::NonFinite {
                name: field.into(),
                index: 0
            }),
            "{to}"
        );
    }
}

#[test]
fn inverted_normalizer_range_in_the_payload_is_refused() {
    // The payload ends with mins[0], mins[1], maxs[0], maxs[1]. Raise
    // mins[1] above maxs[1] = 2.0 and re-stamp the CRC, so only the range
    // audit can refuse it.
    let mut bytes = valid_bundle_bytes();
    let mins1 = bytes.len() - 12;
    assert_eq!(
        f32::from_le_bytes(bytes[mins1..mins1 + 4].try_into().unwrap()),
        -2.0
    );
    bytes[mins1..mins1 + 4].copy_from_slice(&5.0f32.to_le_bytes());
    restamp(&mut bytes);
    match ModelArtifact::from_bytes(&bytes) {
        Err(PersistError::Header(reason)) => assert!(
            reason.contains("normalizer channel 1"),
            "reason must name the channel: {reason}"
        ),
        other => panic!("expected Header, got {other:?}"),
    }
}

#[test]
fn io_failures_are_typed() {
    let missing = std::env::temp_dir().join("varade-no-such-file.varade");
    assert!(matches!(
        ModelArtifact::load(&missing),
        Err(PersistError::Io(_))
    ));
    assert!(matches!(
        VaradeDetector::load(&missing),
        Err(PersistError::Io(_))
    ));
}
