//! Versioned on-disk persistence for fitted detectors.
//!
//! A fitted [`VaradeDetector`] — optionally bundled with the training
//! [`MinMaxNormalizer`] and a decision-threshold calibration — serializes to
//! a single self-describing file in a safetensors-style layout: a fixed
//! binary prelude, a JSON header describing every tensor by name, shape and
//! dtype, and one contiguous little-endian `f32` payload. Weights round-trip
//! **bit-exactly** (`f32::to_le_bytes`/`from_le_bytes`, no text formatting in
//! the payload), so a loaded detector scores bit-identically to the one that
//! was saved, per backend.
//!
//! # On-disk layout, byte by byte
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     6  magic: the ASCII bytes "VARADE"
//!      6     2  format version, u16 little-endian (1)
//!      8     8  header length H in bytes, u64 little-endian
//!     16     8  payload length P in bytes, u64 little-endian (multiple of 4)
//!     24     4  CRC32 (IEEE 802.3) of the P payload bytes, u32 little-endian
//!     28     H  JSON header, UTF-8 (see below)
//!   28+H     P  payload: all tensors back to back, little-endian f32
//! ```
//!
//! The file length must be exactly `28 + H + P`; anything shorter fails with
//! [`PersistError::Truncated`], anything longer with
//! [`PersistError::TrailingBytes`].
//!
//! # Header schema
//!
//! ```json
//! {
//!   "config":     { ...the full VaradeConfig... },
//!   "n_channels": 2,
//!   "scoring":    "variance",
//!   "backend":    "scalar",
//!   "threshold":  {"threshold": 1.25, "best_f1": 0.97},
//!   "tensors": [
//!     {"name": "model.0.weight", "shape": [8, 2, 2], "dtype": "f32", "offset": 0},
//!     ...
//!   ]
//! }
//! ```
//!
//! `threshold` is `null` when no calibration was bundled. Tensor `offset`s
//! are **element** offsets into the payload (multiply by 4 for bytes);
//! entries must be contiguous and in file order, and their total element
//! count must equal the payload's size or loading fails with
//! [`PersistError::PayloadMismatch`]. Tensor names follow the
//! [`Layer::visit_tensors`] contract — `model.<layer>.<param>` for the
//! network (e.g. `model.0.weight` for the first conv's kernel) and
//! `normalizer.mins` / `normalizer.maxs` for the bundled normalizer.
//!
//! # Version-compatibility policy
//!
//! The format version is bumped on any layout change. Readers accept
//! exactly the version they know — currently only v1 — and reject every
//! other version with [`PersistError::UnsupportedVersion`] rather than
//! guessing. The JSON header may gain *optional* fields without a version
//! bump (absent keys read as `None`), but renaming tensors, reordering
//! entries or changing the prelude is a breaking change. The checked-in
//! fixture under `crates/core/tests/fixtures/` pins the layout.
//!
//! # Integrity checks on load
//!
//! Loading validates, in order: magic, version, declared lengths against the
//! file length, payload CRC32, header JSON syntax and field validity
//! (including a finite threshold calibration), tensor-entry contiguity and
//! coverage, a non-finite (NaN/∞) audit over the payload, that the model
//! the config describes fits in the payload (checked before the model is
//! allocated), per-tensor shape agreement against that model rebuilt from
//! the persisted config, and ordered (`min ≤ max`) normalizer ranges. Every failure is a typed
//! [`PersistError`]; nothing panics and nothing loads garbage.
//!
//! # Example: fit → save → load → score
//!
//! The loaded copy scores **bit-identically** to the saved one:
//!
//! ```
//! use varade::{VaradeConfig, VaradeDetector};
//! use varade_detectors::AnomalyDetector;
//! use varade_timeseries::MultivariateSeries;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut train = MultivariateSeries::new(vec!["x".into(), "y".into()], 20.0)?;
//! for t in 0..120 {
//!     let v = (t as f32 * 0.2).sin();
//!     train.push_row(&[v, v * 0.5])?;
//! }
//! let config = VaradeConfig { window: 8, epochs: 1, ..VaradeConfig::default() };
//! let mut detector = VaradeDetector::new(config);
//! detector.fit(&train)?;
//!
//! let bytes = detector.to_persist_bytes()?;
//! let loaded = varade::persist::ModelArtifact::from_bytes(&bytes)?.detector;
//! assert_eq!(loaded.backend_kind(), detector.backend_kind());
//! let mut context = Vec::new();                // channel-major [2 * window]
//! for c in 0..2 {
//!     for t in 0..8 {
//!         let v = ((112 + t) as f32 * 0.2).sin();
//!         context.push(if c == 0 { v } else { v * 0.5 });
//!     }
//! }
//! let target = vec![0.3_f32, 0.15];
//! assert_eq!(
//!     detector.score_window(&context, &target)?.to_bits(),
//!     loaded.score_window(&context, &target)?.to_bits(),
//! );
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::path::Path;

use serde::{Deserialize, Serialize};
use varade_tensor::Layer;
use varade_timeseries::MinMaxNormalizer;

use crate::{ScoringRule, VaradeConfig, VaradeDetector, VaradeModel};

/// The magic bytes every persisted model file starts with.
pub const MAGIC: [u8; 6] = *b"VARADE";

/// The on-disk format version this build reads and writes (see the module
/// docs for the policy).
pub const FORMAT_VERSION: u16 = 1;

/// Length in bytes of the fixed binary prelude before the JSON header.
pub const PRELUDE_LEN: usize = 28;

/// Tensor-name prefix for the detector's network weights.
const MODEL_PREFIX: &str = "model";
/// Tensor names for the bundled normalizer state.
const NORMALIZER_MINS: &str = "normalizer.mins";
const NORMALIZER_MAXS: &str = "normalizer.maxs";

/// CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of `bytes` — the
/// checksum stored in the prelude over the payload. Exposed so tests and
/// external tooling can recompute it after editing a payload.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Tiny table built on the fly: 256 entries × one-time cost beats carrying
    // a 1 KiB constant, and the per-byte loop is table-driven either way.
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// A fitted decision threshold bundled alongside the model, so a deployment
/// can reproduce not just the scores but the alarm decisions of the training
/// run. Plain data — the core crate stores it verbatim and never interprets
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdCalibration {
    /// Scores at or above this value raise an alarm.
    pub threshold: f32,
    /// The F1 score the threshold achieved on the calibration split.
    pub best_f1: f32,
}

/// One tensor's entry in the JSON header: where it lives in the payload and
/// what shape to give it back.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TensorEntry {
    /// Stable dot-separated name (see [`Layer::visit_tensors`]).
    pub name: String,
    /// Tensor shape, row-major.
    pub shape: Vec<usize>,
    /// Element dtype; always `"f32"` in format version 1.
    pub dtype: String,
    /// Element (not byte) offset of the tensor's first value in the payload.
    pub offset: usize,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PersistHeader {
    config: VaradeConfig,
    n_channels: usize,
    scoring: String,
    backend: String,
    threshold: Option<ThresholdCalibration>,
    tensors: Vec<TensorEntry>,
}

/// Typed failures of [`ModelArtifact::save`] / [`ModelArtifact::load`] and
/// the byte-level codecs behind them. Every corruption mode maps to its own
/// variant so callers (and the adversarial test battery) can tell truncation
/// from bit rot from schema drift.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// Reading or writing the file failed at the OS level.
    Io(String),
    /// The file does not start with the `VARADE` magic bytes.
    BadMagic,
    /// The file's format version is not the one this reader understands.
    UnsupportedVersion {
        /// Version found in the file.
        found: u16,
    },
    /// The file is shorter than its prelude promises.
    Truncated {
        /// Bytes the prelude declared.
        expected_bytes: u64,
        /// Bytes actually present.
        got_bytes: u64,
    },
    /// The file is longer than its prelude promises.
    TrailingBytes {
        /// Bytes the prelude declared.
        expected_bytes: u64,
        /// Bytes actually present.
        got_bytes: u64,
    },
    /// The payload's CRC32 does not match the checksum in the prelude.
    ChecksumMismatch {
        /// Checksum stored in the prelude.
        stored: u32,
        /// Checksum recomputed over the payload.
        computed: u32,
    },
    /// The JSON header is malformed or carries an invalid field, or a bundled
    /// normalizer carries an unusable (`min > max`) channel range.
    Header(String),
    /// The header's tensor entries and the payload disagree about the total
    /// element count.
    PayloadMismatch {
        /// Elements the header's entries sum to.
        declared_elements: usize,
        /// Elements the payload actually holds.
        actual_elements: usize,
    },
    /// A persisted tensor's shape does not match the model rebuilt from the
    /// persisted config.
    ShapeMismatch {
        /// Name of the offending tensor.
        name: String,
        /// Shape the rebuilt model expects.
        expected: Vec<usize>,
        /// Shape the file declares.
        got: Vec<usize>,
    },
    /// The rebuilt model needs a tensor the file does not provide.
    MissingTensor(String),
    /// The file provides a tensor the rebuilt model has no slot for.
    UnknownTensor(String),
    /// The payload or the threshold calibration smuggles a NaN or infinity —
    /// a model that can only produce garbage scores or alarms is refused
    /// outright.
    NonFinite {
        /// Name of the tensor (or `threshold.<field>`) holding the
        /// non-finite value.
        name: String,
        /// Element index of the first non-finite value within that tensor.
        index: usize,
    },
    /// [`ModelArtifact::save`] was called on an unfitted detector.
    NotFitted,
    /// Rebuilding the model from the persisted config failed, or the model
    /// it describes has more parameters than the payload holds.
    Model(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(reason) => write!(f, "io error: {reason}"),
            PersistError::BadMagic => write!(f, "not a VARADE model file (bad magic)"),
            PersistError::UnsupportedVersion { found } => write!(
                f,
                "unsupported format version {found} (this reader understands only {FORMAT_VERSION})"
            ),
            PersistError::Truncated {
                expected_bytes,
                got_bytes,
            } => write!(
                f,
                "truncated file: prelude declares {expected_bytes} bytes, found {got_bytes}"
            ),
            PersistError::TrailingBytes {
                expected_bytes,
                got_bytes,
            } => write!(
                f,
                "trailing bytes: prelude declares {expected_bytes} bytes, found {got_bytes}"
            ),
            PersistError::ChecksumMismatch { stored, computed } => write!(
                f,
                "payload checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            PersistError::Header(reason) => write!(f, "invalid header: {reason}"),
            PersistError::PayloadMismatch {
                declared_elements,
                actual_elements,
            } => write!(
                f,
                "header/payload mismatch: entries declare {declared_elements} elements, payload holds {actual_elements}"
            ),
            PersistError::ShapeMismatch {
                name,
                expected,
                got,
            } => write!(
                f,
                "tensor {name}: model expects shape {expected:?}, file declares {got:?}"
            ),
            PersistError::MissingTensor(name) => write!(f, "missing tensor {name}"),
            PersistError::UnknownTensor(name) => write!(f, "unknown tensor {name}"),
            PersistError::NonFinite { name, index } => {
                write!(f, "non-finite value in tensor {name} at element {index}")
            }
            PersistError::NotFitted => write!(f, "cannot persist an unfitted detector"),
            PersistError::Model(reason) => write!(f, "cannot rebuild model: {reason}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(err: std::io::Error) -> Self {
        PersistError::Io(err.to_string())
    }
}

/// Everything a deployment needs to serve a trained detector: the fitted
/// [`VaradeDetector`] itself, the training [`MinMaxNormalizer`] (so raw
/// sensor samples normalize exactly as they did at training time) and an
/// optional [`ThresholdCalibration`].
///
/// [`ModelArtifact::save`]/[`ModelArtifact::load`] round-trip the bundle
/// through the on-disk format documented at the [module level](self);
/// [`VaradeDetector::save`]/[`VaradeDetector::load`] are shorthands for the
/// detector-only case.
#[derive(Debug)]
pub struct ModelArtifact {
    /// The fitted detector.
    pub detector: VaradeDetector,
    /// The training normalizer, if samples arrive raw.
    pub normalizer: Option<MinMaxNormalizer>,
    /// A calibrated decision threshold, if one was fitted.
    pub threshold: Option<ThresholdCalibration>,
}

impl ModelArtifact {
    /// Wraps a fitted detector with no normalizer and no threshold.
    pub fn new(detector: VaradeDetector) -> Self {
        Self {
            detector,
            normalizer: None,
            threshold: None,
        }
    }

    /// Bundles the training normalizer, builder style.
    pub fn with_normalizer(mut self, normalizer: MinMaxNormalizer) -> Self {
        self.normalizer = Some(normalizer);
        self
    }

    /// Bundles a calibrated decision threshold, builder style.
    pub fn with_threshold(mut self, threshold: ThresholdCalibration) -> Self {
        self.threshold = Some(threshold);
        self
    }

    /// Serializes the bundle into the on-disk byte layout.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::NotFitted`] for an unfitted detector,
    /// [`PersistError::ShapeMismatch`] for a normalizer whose channel count
    /// disagrees with the detector, [`PersistError::Header`] for a normalizer
    /// channel with `min > max`, and [`PersistError::NonFinite`] if any
    /// weight, normalizer bound or threshold field is NaN or infinite.
    pub fn to_bytes(&self) -> Result<Vec<u8>, PersistError> {
        serialize_parts(&self.detector, self.normalizer.as_ref(), self.threshold)
    }

    /// Serializes a bare detector (no normalizer, no threshold) — the body
    /// of [`VaradeDetector::save`], which only holds `&self`.
    pub(crate) fn serialize_detector(detector: &VaradeDetector) -> Result<Vec<u8>, PersistError> {
        serialize_parts(detector, None, None)
    }

    /// Deserializes a bundle from the on-disk byte layout, running the full
    /// integrity battery documented at the [module level](self).
    ///
    /// # Errors
    ///
    /// Every corruption mode returns its own [`PersistError`] variant; see
    /// the enum docs.
    pub fn from_bytes(data: &[u8]) -> Result<Self, PersistError> {
        if data.len() < PRELUDE_LEN {
            return Err(PersistError::Truncated {
                expected_bytes: PRELUDE_LEN as u64,
                got_bytes: data.len() as u64,
            });
        }
        if data[..6] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = u16::from_le_bytes([data[6], data[7]]);
        if version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion { found: version });
        }
        let header_len = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes")) as usize;
        let payload_len = u64::from_le_bytes(data[16..24].try_into().expect("8 bytes")) as usize;
        let stored_crc = u32::from_le_bytes(data[24..28].try_into().expect("4 bytes"));
        let expected_bytes = (PRELUDE_LEN as u64)
            .saturating_add(header_len as u64)
            .saturating_add(payload_len as u64);
        if (data.len() as u64) < expected_bytes {
            return Err(PersistError::Truncated {
                expected_bytes,
                got_bytes: data.len() as u64,
            });
        }
        if (data.len() as u64) > expected_bytes {
            return Err(PersistError::TrailingBytes {
                expected_bytes,
                got_bytes: data.len() as u64,
            });
        }
        if !payload_len.is_multiple_of(4) {
            return Err(PersistError::Header(format!(
                "payload length {payload_len} is not a multiple of 4"
            )));
        }
        let header_bytes = &data[PRELUDE_LEN..PRELUDE_LEN + header_len];
        let payload = &data[PRELUDE_LEN + header_len..];
        let computed = crc32(payload);
        if computed != stored_crc {
            return Err(PersistError::ChecksumMismatch {
                stored: stored_crc,
                computed,
            });
        }
        let header_json = std::str::from_utf8(header_bytes)
            .map_err(|e| PersistError::Header(format!("header is not UTF-8: {e}")))?;
        let header: PersistHeader =
            serde_json::from_str(header_json).map_err(|e| PersistError::Header(e.to_string()))?;
        let scoring: ScoringRule = header
            .scoring
            .parse()
            .map_err(|e: String| PersistError::Header(e))?;
        let backend: crate::BackendKind = header
            .backend
            .parse()
            .map_err(|e: String| PersistError::Header(e))?;
        header
            .config
            .validate()
            .map_err(|e| PersistError::Model(e.to_string()))?;
        if header.n_channels == 0 {
            return Err(PersistError::Header("n_channels must be positive".into()));
        }
        audit_threshold(header.threshold)?;

        // Decode and validate the f32 region against the entry table.
        let mut running = 0usize;
        for entry in &header.tensors {
            if entry.dtype != "f32" {
                return Err(PersistError::Header(format!(
                    "tensor {}: unsupported dtype {:?}",
                    entry.name, entry.dtype
                )));
            }
            if entry.offset != running {
                return Err(PersistError::Header(format!(
                    "tensor {}: offset {} breaks payload contiguity (expected {})",
                    entry.name, entry.offset, running
                )));
            }
            let len = entry
                .shape
                .iter()
                .try_fold(1usize, |acc, &dim| acc.checked_mul(dim))
                .ok_or_else(|| {
                    PersistError::Header(format!(
                        "tensor {}: shape {:?} overflows",
                        entry.name, entry.shape
                    ))
                })?;
            running = running.saturating_add(len);
        }
        if running != payload_len / 4 {
            return Err(PersistError::PayloadMismatch {
                declared_elements: running,
                actual_elements: payload_len / 4,
            });
        }
        let mut values = Vec::with_capacity(running);
        for chunk in payload.chunks_exact(4) {
            values.push(f32::from_le_bytes(chunk.try_into().expect("4 bytes")));
        }
        audit_finite(&header.tensors, &values)?;

        // Index the file's tensors by name, then rebuild the model from the
        // config and overwrite its weights through the mutable visitor. A
        // BTreeMap keeps the leftover-key report deterministic.
        let mut slots: BTreeMap<String, (Vec<usize>, Range<usize>)> = BTreeMap::new();
        for entry in &header.tensors {
            let len: usize = entry.shape.iter().product();
            if slots
                .insert(
                    entry.name.clone(),
                    (entry.shape.clone(), entry.offset..entry.offset + len),
                )
                .is_some()
            {
                return Err(PersistError::Header(format!(
                    "duplicate tensor {}",
                    entry.name
                )));
            }
        }
        // The rebuilt model is allocated before its shapes can be compared,
        // so a config whose parameters could not fit in the payload is
        // refused first: a forged header never sizes an allocation.
        match model_parameter_count(&header.config, header.n_channels) {
            Some(params) if params <= running => {}
            params => {
                return Err(PersistError::Model(format!(
                    "config describes {} parameters, the payload holds {running} values",
                    params.map_or_else(|| "more than usize::MAX".to_string(), |p| p.to_string())
                )))
            }
        }
        let mut model = VaradeModel::from_config(header.config, header.n_channels)
            .map_err(|e| PersistError::Model(e.to_string()))?;
        let mut first_error: Option<PersistError> = None;
        model.visit_tensors_mut(MODEL_PREFIX, &mut |name, tensor| {
            if first_error.is_some() {
                return;
            }
            match slots.remove(name) {
                None => first_error = Some(PersistError::MissingTensor(name.to_string())),
                Some((shape, range)) => {
                    if shape != tensor.shape() {
                        first_error = Some(PersistError::ShapeMismatch {
                            name: name.to_string(),
                            expected: tensor.shape().to_vec(),
                            got: shape,
                        });
                    } else {
                        tensor.as_mut_slice().copy_from_slice(&values[range]);
                    }
                }
            }
        });
        if let Some(err) = first_error {
            return Err(err);
        }
        let normalizer = match (slots.remove(NORMALIZER_MINS), slots.remove(NORMALIZER_MAXS)) {
            (None, None) => None,
            (Some((_, mins)), Some((_, maxs))) => {
                let mins = &values[mins];
                let maxs = &values[maxs];
                if mins.len() != header.n_channels || maxs.len() != header.n_channels {
                    return Err(PersistError::ShapeMismatch {
                        name: NORMALIZER_MINS.to_string(),
                        expected: vec![header.n_channels],
                        got: vec![mins.len().max(maxs.len())],
                    });
                }
                let ranges: Vec<(f32, f32)> =
                    mins.iter().copied().zip(maxs.iter().copied()).collect();
                let normalizer = MinMaxNormalizer::from_ranges(&ranges);
                audit_ranges(&normalizer)?;
                Some(normalizer)
            }
            (Some(_), None) => return Err(PersistError::MissingTensor(NORMALIZER_MAXS.into())),
            (None, Some(_)) => return Err(PersistError::MissingTensor(NORMALIZER_MINS.into())),
        };
        if let Some(name) = slots.into_keys().next() {
            return Err(PersistError::UnknownTensor(name));
        }
        model.set_backend(backend);
        let detector =
            VaradeDetector::from_parts(header.config, scoring, model, header.n_channels, backend);
        Ok(Self {
            detector,
            normalizer,
            threshold: header.threshold,
        })
    }

    /// Serializes the bundle to `path` (see [`ModelArtifact::to_bytes`]).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failures plus everything
    /// [`ModelArtifact::to_bytes`] returns.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let bytes = self.to_bytes()?;
        std::fs::write(path, bytes)?;
        Ok(())
    }

    /// Loads a bundle from `path` (see [`ModelArtifact::from_bytes`]).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failures plus everything
    /// [`ModelArtifact::from_bytes`] returns.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

/// The shared serializer behind [`ModelArtifact::to_bytes`] and
/// [`VaradeDetector::save`]: collects the model's tensors through the named
/// visitor, appends the normalizer state, audits for non-finite values and
/// assembles prelude + JSON header + payload.
fn serialize_parts(
    detector: &VaradeDetector,
    normalizer: Option<&MinMaxNormalizer>,
    threshold: Option<ThresholdCalibration>,
) -> Result<Vec<u8>, PersistError> {
    let model = detector.model().ok_or(PersistError::NotFitted)?;
    let n_channels = detector.n_channels().ok_or(PersistError::NotFitted)?;
    let mut entries: Vec<TensorEntry> = Vec::new();
    let mut values: Vec<f32> = Vec::new();
    model.visit_tensors(MODEL_PREFIX, &mut |name, tensor| {
        entries.push(TensorEntry {
            name: name.to_string(),
            shape: tensor.shape().to_vec(),
            dtype: "f32".to_string(),
            offset: values.len(),
        });
        values.extend_from_slice(tensor.as_slice());
    });
    if let Some(norm) = normalizer {
        if norm.n_channels() != n_channels {
            return Err(PersistError::ShapeMismatch {
                name: NORMALIZER_MINS.to_string(),
                expected: vec![n_channels],
                got: vec![norm.n_channels()],
            });
        }
        for (name, slice) in [
            (NORMALIZER_MINS, norm.mins()),
            (NORMALIZER_MAXS, norm.maxs()),
        ] {
            entries.push(TensorEntry {
                name: name.to_string(),
                shape: vec![slice.len()],
                dtype: "f32".to_string(),
                offset: values.len(),
            });
            values.extend_from_slice(slice);
        }
        audit_ranges(norm)?;
    }
    audit_finite(&entries, &values)?;
    audit_threshold(threshold)?;
    let header = PersistHeader {
        config: *detector.config(),
        n_channels,
        scoring: detector.scoring_rule().label().to_string(),
        backend: detector.backend_kind().label().to_string(),
        threshold,
        tensors: entries,
    };
    let header_json =
        serde_json::to_string(&header).map_err(|e| PersistError::Header(e.to_string()))?;
    let header_bytes = header_json.as_bytes();
    let mut payload = Vec::with_capacity(values.len() * 4);
    for v in &values {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    let mut out = Vec::with_capacity(PRELUDE_LEN + header_bytes.len() + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(header_bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(header_bytes);
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Scans every tensor's values for NaN/∞, attributing the first offender to
/// its tensor by name. Shared by the save path (refuse to write a poisoned
/// model) and the load path (refuse to serve one).
fn audit_finite(entries: &[TensorEntry], values: &[f32]) -> Result<(), PersistError> {
    for entry in entries {
        let len: usize = entry.shape.iter().product();
        let slice = &values[entry.offset..entry.offset + len];
        if let Some(index) = slice.iter().position(|v| !v.is_finite()) {
            return Err(PersistError::NonFinite {
                name: entry.name.clone(),
                index,
            });
        }
    }
    Ok(())
}

/// Parameter count of the model [`VaradeModel::new`] builds for `config`
/// and `n_channels`, without allocating it: `None` if it overflows `usize`.
fn model_parameter_count(config: &VaradeConfig, n_channels: usize) -> Option<usize> {
    let mut params = 0usize;
    let mut in_ch = n_channels;
    for layer in 0..config.n_layers() {
        let out_ch = config
            .base_feature_maps
            .checked_mul(1usize.checked_shl(u32::try_from(layer / 2).ok()?)?)?;
        params = params.checked_add(
            out_ch
                .checked_mul(in_ch)?
                .checked_mul(2)?
                .checked_add(out_ch)?,
        )?;
        in_ch = out_ch;
    }
    let features = in_ch.checked_mul(config.window >> config.n_layers())?;
    let outputs = n_channels.checked_mul(2)?;
    params.checked_add(features.checked_mul(outputs)?.checked_add(outputs)?)
}

/// Refuses a threshold calibration with a NaN or infinite field: it could
/// never raise (or always raises) an alarm. Shared by save and load.
fn audit_threshold(threshold: Option<ThresholdCalibration>) -> Result<(), PersistError> {
    let Some(calibration) = threshold else {
        return Ok(());
    };
    for (name, value) in [
        ("threshold.threshold", calibration.threshold),
        ("threshold.best_f1", calibration.best_f1),
    ] {
        if !value.is_finite() {
            return Err(PersistError::NonFinite {
                name: name.to_string(),
                index: 0,
            });
        }
    }
    Ok(())
}

/// Refuses a normalizer channel whose range is inverted (`min > max`): it
/// would map every sample of that channel to one constant. Shared by save
/// and load; the bounds were already audited finite.
fn audit_ranges(normalizer: &MinMaxNormalizer) -> Result<(), PersistError> {
    let ranges = normalizer.mins().iter().zip(normalizer.maxs());
    if let Some((channel, (min, max))) = ranges.enumerate().find(|(_, (min, max))| min > max) {
        return Err(PersistError::Header(format!(
            "normalizer channel {channel}: min {min} exceeds max {max}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE 802.3 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn parameter_count_matches_the_built_model() {
        for (window, maps, channels) in [(4, 1, 1), (8, 8, 2), (64, 16, 86), (256, 3, 5)] {
            let config = VaradeConfig {
                window,
                base_feature_maps: maps,
                ..VaradeConfig::default()
            };
            let mut model = VaradeModel::from_config(config, channels).unwrap();
            assert_eq!(
                model_parameter_count(&config, channels),
                Some(model.parameter_count()),
                "window {window}, maps {maps}, channels {channels}"
            );
        }
        let huge = VaradeConfig {
            base_feature_maps: usize::MAX / 2,
            ..VaradeConfig::default()
        };
        assert_eq!(model_parameter_count(&huge, 2), None);
    }

    #[test]
    fn unfitted_detectors_refuse_to_serialize() {
        let artifact = ModelArtifact::new(VaradeDetector::new(VaradeConfig::default()));
        assert_eq!(artifact.to_bytes(), Err(PersistError::NotFitted));
    }

    #[test]
    fn error_display_names_the_failure() {
        let cases: Vec<(PersistError, &str)> = vec![
            (PersistError::BadMagic, "magic"),
            (PersistError::UnsupportedVersion { found: 9 }, "version 9"),
            (
                PersistError::Truncated {
                    expected_bytes: 100,
                    got_bytes: 40,
                },
                "truncated",
            ),
            (
                PersistError::ChecksumMismatch {
                    stored: 1,
                    computed: 2,
                },
                "checksum",
            ),
            (
                PersistError::NonFinite {
                    name: "model.0.weight".into(),
                    index: 3,
                },
                "model.0.weight",
            ),
            (PersistError::NotFitted, "unfitted"),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle}"
            );
        }
    }
}
