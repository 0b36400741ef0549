//! Deterministic mutation fuzzer for the persistence loader.
//!
//! Two valid files seed it: the committed v1 fixture and an artifact that
//! also bundles a normalizer and a threshold calibration. Each iteration
//! applies one mutation — a bit flip, a byte overwrite, a truncation or a
//! byte insertion — to one seed, then re-stamps the prelude's payload length
//! and CRC32 on every other iteration, so mutations reach the checks behind
//! the checksum as well as the checksum itself.
//!
//! The contract: [`ModelArtifact::from_bytes`] never panics, and an artifact
//! it does accept scores one window (and normalizes one row) without
//! panicking. The mutation stream comes from a fixed SplitMix64 seed with a
//! fixed iteration budget, so a failure names its iteration and mutation and
//! replays exactly on every run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use varade::persist::{self, ModelArtifact, PRELUDE_LEN};
use varade::{ThresholdCalibration, VaradeConfig, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_timeseries::{MinMaxNormalizer, MultivariateSeries};

/// Mutated files per seed file.
const ITERATIONS: u64 = 4000;
const SEED: u64 = 0x5EED_F022_0001;

/// SplitMix64: the whole mutation stream derives from [`SEED`].
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Debug, Clone, Copy)]
enum Mutation {
    Flip { at: usize, bit: u8 },
    Overwrite { at: usize, byte: u8 },
    Truncate { len: usize },
    Insert { at: usize, byte: u8 },
}

/// Bytes an overwrite or insertion draws from half the time: digits, signs
/// and the JSON punctuation the header is built from, so header mutations
/// often stay parseable and reach the field checks behind the parser.
const PALETTE: &[u8] = b"0123456789-+.eE,:[]{}\" nulltrue";

impl Mutation {
    /// Draws a mutation of a `len`-byte file whose prelude and header end
    /// at `header_end`.
    fn draw(rng: &mut SplitMix64, len: usize, header_end: usize) -> Self {
        // Half the positions land in the prelude + header, where most of the
        // loader's branching is; the rest anywhere in the file.
        let at = rng.below(len);
        let at = if rng.next() & 1 == 0 {
            at % header_end
        } else {
            at
        };
        let byte = if rng.next() & 1 == 0 {
            PALETTE[rng.below(PALETTE.len())]
        } else {
            rng.next() as u8
        };
        match rng.below(4) {
            0 => Mutation::Flip {
                at,
                bit: rng.below(8) as u8,
            },
            1 => Mutation::Overwrite { at, byte },
            2 => Mutation::Truncate { len: at },
            _ => Mutation::Insert { at, byte },
        }
    }

    fn apply(self, bytes: &mut Vec<u8>) {
        match self {
            Mutation::Flip { at, bit } => bytes[at] ^= 1 << bit,
            Mutation::Overwrite { at, byte } => bytes[at] = byte,
            Mutation::Truncate { len } => bytes.truncate(len),
            Mutation::Insert { at, byte } => bytes.insert(at, byte),
        }
    }
}

/// Re-stamps the prelude's payload length and CRC32 over whatever follows
/// the declared header, when the prelude and header still fit the file.
fn restamp(bytes: &mut [u8]) {
    if bytes.len() < PRELUDE_LEN {
        return;
    }
    let header_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let Some(start) = usize::try_from(header_len)
        .ok()
        .and_then(|h| h.checked_add(PRELUDE_LEN))
        .filter(|&start| start <= bytes.len())
    else {
        return;
    };
    let payload_len = (bytes.len() - start) as u64;
    let crc = persist::crc32(&bytes[start..]);
    bytes[16..24].copy_from_slice(&payload_len.to_le_bytes());
    bytes[24..28].copy_from_slice(&crc.to_le_bytes());
}

fn fixture_bytes() -> Vec<u8> {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/model-v1.varade");
    std::fs::read(path).expect("committed v1 fixture")
}

fn bundle_bytes() -> Vec<u8> {
    let config = VaradeConfig {
        window: 8,
        base_feature_maps: 4,
        epochs: 1,
        batch_size: 8,
        learning_rate: 2e-3,
        max_train_windows: 24,
        kl_weight: 0.05,
        seed: 3,
    };
    let mut s = MultivariateSeries::new(vec!["a".into(), "b".into()], 10.0).unwrap();
    for t in 0..60 {
        let v = (t as f32 * 0.37).sin();
        s.push_row(&[v, v * 0.5 - 0.2]).unwrap();
    }
    let mut det = VaradeDetector::new(config);
    det.fit(&s).unwrap();
    ModelArtifact::new(det)
        .with_normalizer(MinMaxNormalizer::from_ranges(&[(-1.0, 1.0), (-0.7, 0.3)]).unwrap())
        .with_threshold(ThresholdCalibration {
            threshold: 1.25,
            best_f1: 0.75,
        })
        .to_bytes()
        .unwrap()
}

/// Loads `bytes` and, if the loader accepts them, exercises the artifact the
/// way a deployment would: normalize one raw row, score one window.
fn load_and_use(bytes: &[u8]) -> bool {
    let Ok(artifact) = ModelArtifact::from_bytes(bytes) else {
        return false;
    };
    let detector = &artifact.detector;
    let channels = detector.n_channels().expect("a loaded detector is fitted");
    let window = detector.config().window;
    let mut row: Vec<f32> = (0..channels).map(|c| c as f32 * 0.1 - 0.3).collect();
    if let Some(normalizer) = &artifact.normalizer {
        let _ = normalizer.transform_row(&mut row);
    }
    let context: Vec<f32> = (0..channels * window)
        .map(|i| (i as f32 * 0.13).sin())
        .collect();
    let _ = detector.score_window(&context, &row);
    true
}

fn fuzz(name: &str, seed_file: &[u8], rng: &mut SplitMix64) -> u64 {
    assert!(
        load_and_use(seed_file),
        "{name}: the unmutated file must load"
    );
    let header_len = u64::from_le_bytes(seed_file[8..16].try_into().unwrap()) as usize;
    let header_end = PRELUDE_LEN + header_len;
    let mut accepted = 0;
    for iteration in 0..ITERATIONS {
        let mutation = Mutation::draw(rng, seed_file.len(), header_end);
        let restamped = iteration % 2 == 1;
        let mut bytes = seed_file.to_vec();
        mutation.apply(&mut bytes);
        if restamped {
            restamp(&mut bytes);
        }
        match catch_unwind(AssertUnwindSafe(|| load_and_use(&bytes))) {
            Ok(true) => accepted += 1,
            Ok(false) => {}
            Err(panic) => {
                let message = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                panic!(
                    "{name}: iteration {iteration} panicked on {mutation:?} \
                     (CRC re-stamped: {restamped}): {message}"
                );
            }
        }
    }
    accepted
}

#[test]
fn mutated_files_never_panic_the_loader_or_the_loaded_detector() {
    let mut rng = SplitMix64(SEED);
    let fixture = fuzz("v1 fixture", &fixture_bytes(), &mut rng);
    let bundle = fuzz("normalizer + threshold bundle", &bundle_bytes(), &mut rng);
    // Some mutations (a flipped weight bit under a re-stamped CRC, a changed
    // seed digit) leave a loadable file; the accepted share shows the fuzzer
    // reaches the scoring half of the contract, not just the early refusals.
    assert!(fixture > 0, "no mutated fixture loaded");
    assert!(bundle > 0, "no mutated bundle loaded");
}
