//! Runtime-selectable kernel backends for the hot numeric loops.
//!
//! Every compute-heavy inner loop of the crate — the 1-D convolutions
//! (including the specialized kernel-2/stride-2 inference kernel), the
//! linear/matmul products, element-wise activations, reductions and the
//! axpy-style optimizer updates — lives behind the [`Backend`] trait with
//! two implementations:
//!
//! * [`ScalarBackend`] — the original hand-written scalar loops, kept
//!   **bit-exact**: a model built, trained and scored on the scalar backend
//!   produces the same bits as the pre-backend versions of this crate, which
//!   is the reference the vector backend is validated against.
//! * [`VectorBackend`] — hand-tiled kernels with fixed-width lane
//!   accumulators, shaped so the autovectorizer emits SIMD on stable Rust.
//!   With the `nightly-simd` feature (nightly toolchain) the innermost loops
//!   use `std::simd` explicitly. Results may differ from the scalar backend
//!   in floating-point association only.
//!
//! # Per-backend equivalence guarantees
//!
//! Enforced by `tests/backend_equivalence.rs` against the scalar reference,
//! per fitted model:
//!
//! | Backend | Score contract vs scalar |
//! |---|---|
//! | `scalar` | bit-exact (it *is* the reference) |
//! | `vector` | ≤ 1e-5 relative deviation per score |
//!
//! The vector backend only reassociates f32 sums, so a tight per-score bound
//! holds; [`BackendKind::score_tolerance`] exposes it to the test batteries
//! and benchmarks. Element-wise kernels (ReLU, tanh, axpy, Adam update) are
//! bit-identical across both backends — no reassociation is possible — and
//! every backend is deterministic and batch-invariant, so a window scored
//! alone gets the same bits as inside a larger training or evaluation batch.
//! Incremental streaming runs its own column kernels (see
//! [`crate::layers::incremental`]) with the scalar per-output association:
//! bit-identical to the one-shot pass on scalar, within the 1e-5 bound on
//! vector.
//!
//! # Selection
//!
//! Layers and optimizers capture a [`BackendKind`] at construction, defaulting
//! to [`BackendKind::active`] — the process-wide default resolved once from
//! the `VARADE_BACKEND` environment variable (`scalar` | `vector`, default
//! `scalar`) or from an explicit [`set_process_default`] call (the
//! `--backend` flag of the bench binaries). Call `set_backend` on a layer,
//! model, detector or optimizer to override per instance — e.g. the backend
//! benchmark sweeps a fitted detector across backends without refitting:
//!
//! ```
//! use rand::SeedableRng;
//! use varade_tensor::backend::BackendKind;
//! use varade_tensor::{layers::Conv1d, Layer, Tensor};
//!
//! // A "fitted" layer (construction stands in for training here).
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut layer = Conv1d::new(2, 4, 2, 2, 0, &mut rng);
//! let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.25, 1.5, -0.5, 0.75, 1.0], &[1, 2, 4]).unwrap();
//! let reference = layer.forward_infer(&x).unwrap();
//!
//! // Re-route it to the vector kernels without refitting; the scores move
//! // by f32 reassociation only.
//! layer.set_backend(BackendKind::Vector);
//! assert_eq!(layer.backend(), BackendKind::Vector);
//! let tolerance = BackendKind::Vector.score_tolerance().unwrap();
//! let routed = layer.forward_infer(&x).unwrap();
//! for (a, b) in routed.as_slice().iter().zip(reference.as_slice()) {
//!     assert!(((a - b) as f64).abs() <= tolerance * b.abs().max(1.0) as f64);
//! }
//! ```

use std::fmt;
use std::sync::OnceLock;

mod scalar;
mod vector;

pub use scalar::ScalarBackend;
pub use vector::VectorBackend;

/// Identifies one of the available kernel backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The bit-exact scalar reference loops.
    Scalar,
    /// Hand-tiled, autovectorizer-friendly kernels (plus `std::simd` under
    /// the `nightly-simd` feature).
    Vector,
}

impl BackendKind {
    /// Every available backend, in reference-first order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Scalar, BackendKind::Vector];

    /// Lower-case label used by `VARADE_BACKEND`, CLI flags and reports.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Vector => "vector",
        }
    }

    /// The backend implementation this kind selects.
    pub fn backend(self) -> &'static dyn Backend {
        match self {
            BackendKind::Scalar => &ScalarBackend,
            BackendKind::Vector => &VectorBackend,
        }
    }

    /// Per-score relative tolerance vs the scalar reference: `Some(0.0)` for
    /// scalar itself, `Some(1e-5)` for vector (f32 reassociation only).
    /// Every backend has one, so this is always `Some`; sweeps and
    /// equivalence tests branch on this rather than hard-coding a backend
    /// list.
    pub fn score_tolerance(self) -> Option<f64> {
        match self {
            BackendKind::Scalar => Some(0.0),
            BackendKind::Vector => Some(1e-5),
        }
    }

    /// Human-readable list of accepted labels, derived from [`Self::ALL`] so
    /// help texts and error messages can never drift from the enum: e.g.
    /// `` `scalar` | `vector` ``.
    pub fn accepted_labels() -> String {
        let labels: Vec<String> = BackendKind::ALL
            .iter()
            .map(|k| format!("`{}`", k.label()))
            .collect();
        labels.join(" | ")
    }

    /// The process-wide default backend: an explicit
    /// [`set_process_default`], else `VARADE_BACKEND` (`scalar` |
    /// `vector`), else [`BackendKind::Scalar`]. Resolved once and then frozen,
    /// so every layer constructed in a process agrees on its default.
    ///
    /// # Panics
    ///
    /// Panics if `VARADE_BACKEND` is set to an unknown value — a misconfigured
    /// CI matrix should fail loudly, not silently measure the wrong backend.
    pub fn active() -> Self {
        *process_default().get_or_init(|| match std::env::var("VARADE_BACKEND") {
            Ok(value) => value
                .parse()
                .unwrap_or_else(|e: String| panic!("VARADE_BACKEND: {e}")),
            Err(_) => BackendKind::Scalar,
        })
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(BackendKind::Scalar),
            "vector" | "simd" => Ok(BackendKind::Vector),
            other => Err(format!(
                "unknown backend `{other}` (expected {})",
                BackendKind::accepted_labels()
            )),
        }
    }
}

fn process_default() -> &'static OnceLock<BackendKind> {
    static DEFAULT: OnceLock<BackendKind> = OnceLock::new();
    &DEFAULT
}

/// Fixes the process-wide default backend (what [`BackendKind::active`]
/// returns) before it is first resolved — how the bench binaries implement
/// `--backend`. Takes precedence over `VARADE_BACKEND`.
///
/// # Errors
///
/// Returns the already-resolved kind if the default was set or read earlier:
/// layers constructed before this call would keep the old default, so a late
/// override is refused rather than half-applied.
pub fn set_process_default(kind: BackendKind) -> Result<(), BackendKind> {
    let lock = process_default();
    match lock.set(kind) {
        Ok(()) => Ok(()),
        Err(_) => {
            let resolved = *lock.get().expect("set failed, so the lock is filled");
            if resolved == kind {
                Ok(())
            } else {
                Err(resolved)
            }
        }
    }
}

/// The kernel primitives every backend provides.
///
/// All slices are row-major and densely packed; shape arguments are passed
/// explicitly so the kernels stay allocation-free. Implementations must be
/// deterministic and **batch-invariant**: the values written for batch row
/// `i` must not depend on `batch`, so a window scores to the same bits
/// alone as inside a training or evaluation batch.
pub trait Backend: Send + Sync + fmt::Debug {
    /// Which [`BackendKind`] this implementation is.
    fn kind(&self) -> BackendKind;

    /// Generic 1-D convolution over an already padded input.
    ///
    /// `x` is `[batch, in_c, padded_len]`, `w` is `[out_c, in_c, kernel]`,
    /// `bias` is `[out_c]` and `out` is `[batch, out_c, out_len]` with
    /// `out_len = (padded_len - kernel) / stride + 1`.
    #[allow(clippy::too_many_arguments)]
    fn conv1d(
        &self,
        x: &[f32],
        w: &[f32],
        bias: &[f32],
        out: &mut [f32],
        batch: usize,
        in_c: usize,
        out_c: usize,
        padded_len: usize,
        out_len: usize,
        kernel: usize,
        stride: usize,
    );

    /// Specialized kernel-2 / stride-2 / padding-0 convolution — the VARADE
    /// backbone's inference hot loop. `x` is `[batch, in_c, t]`, `out` is
    /// `[batch, out_c, out_len]` with `out_len = t / 2` output positions
    /// reading input pairs `(2·j, 2·j + 1)`.
    #[allow(clippy::too_many_arguments)]
    fn conv1d_k2s2(
        &self,
        x: &[f32],
        w: &[f32],
        bias: &[f32],
        out: &mut [f32],
        batch: usize,
        in_c: usize,
        out_c: usize,
        t: usize,
        out_len: usize,
    );

    /// Fully connected affine map `out = x Wᵀ + bias`: `x` is
    /// `[batch, in_f]`, `w` is `[out_f, in_f]`, `bias` is `[out_f]`, `out` is
    /// `[batch, out_f]`.
    #[allow(clippy::too_many_arguments)]
    fn linear(
        &self,
        x: &[f32],
        w: &[f32],
        bias: &[f32],
        out: &mut [f32],
        batch: usize,
        in_f: usize,
        out_f: usize,
    );

    /// Matrix product `out = a · b`: `a` is `[m, k]`, `b` is `[k, n]`, `out`
    /// is `[m, n]` and must be zero-initialized by the caller.
    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);

    /// Element-wise `max(0, x)`. Bit-identical across backends.
    fn relu(&self, x: &[f32], out: &mut [f32]);

    /// Element-wise hyperbolic tangent. Bit-identical across backends.
    fn tanh(&self, x: &[f32], out: &mut [f32]);

    /// Sum of all elements.
    fn sum(&self, x: &[f32]) -> f32;

    /// Dot product of two equal-length slices.
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;

    /// Squared Euclidean norm.
    fn norm_sq(&self, x: &[f32]) -> f32;

    /// In-place `y += alpha * x`. Bit-identical across backends.
    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]);

    /// One fused Adam update over a parameter block: for every element,
    /// `g = grad · scale`, the biased moments `m`/`v` advance with `beta1`/
    /// `beta2`, and the parameter steps by `lr · m̂ / (√v̂ + eps)` where the
    /// hats divide by the precomputed bias corrections. Bit-identical across
    /// backends.
    #[allow(clippy::too_many_arguments)]
    fn adam_update(
        &self,
        param: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        scale: f32,
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        bias1: f32,
        bias2: f32,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_through_from_str() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.label().parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.label());
            assert_eq!(kind.backend().kind(), kind);
        }
        assert_eq!("SIMD".parse::<BackendKind>().unwrap(), BackendKind::Vector);
        assert!(" Vector ".parse::<BackendKind>().is_ok());
        for unknown in ["cuda", "quant", "int8"] {
            let err = unknown.parse::<BackendKind>().unwrap_err();
            for kind in BackendKind::ALL {
                assert!(
                    err.contains(kind.label()),
                    "error must list `{kind}`: {err}"
                );
            }
        }
    }

    #[test]
    fn score_tolerances_follow_the_documented_contracts() {
        assert_eq!(BackendKind::Scalar.score_tolerance(), Some(0.0));
        assert_eq!(BackendKind::Vector.score_tolerance(), Some(1e-5));
        assert_eq!(BackendKind::accepted_labels(), "`scalar` | `vector`");
    }

    #[test]
    fn active_is_stable_and_late_conflicting_override_is_refused() {
        let first = BackendKind::active();
        assert_eq!(BackendKind::active(), first);
        // Re-setting the resolved value is fine; conflicting values are not.
        assert_eq!(set_process_default(first), Ok(()));
        let other = match first {
            BackendKind::Scalar => BackendKind::Vector,
            BackendKind::Vector => BackendKind::Scalar,
        };
        assert_eq!(set_process_default(other), Err(first));
    }
}
