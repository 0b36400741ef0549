//! Scalar ↔ vector backend equivalence contract, kernel by kernel.
//!
//! Every kernel extracted into the [`varade_tensor::backend`] trait is
//! exercised on random shapes and values:
//!
//! * kernels that reassociate floating-point reductions (convolutions,
//!   linear, matmul, sum/dot/norm_sq) must agree with the scalar reference
//!   within **1e-5 relative tolerance**;
//! * element-wise kernels (relu, tanh, axpy, the Adam update) must be
//!   **bit-identical** — no reassociation is possible, and the golden-score
//!   guarantees of the fleet tests rely on it.
//!
//! The tolerance loops below compare every non-scalar backend against
//! index 0.

use proptest::prelude::*;

use varade_tensor::backend::{Backend, BackendKind, ScalarBackend, VectorBackend};

const BACKENDS: [&dyn Backend; 2] = [&ScalarBackend, &VectorBackend];

/// Asserts `got` within 1e-5 of `reference`, relative to `magnitude` — the
/// same reduction computed over the absolute values of its terms, which is
/// the scale reassociation error is actually proportional to. (A tolerance
/// relative to the *result* would reject legitimate rounding whenever random
/// terms cancel to near zero.)
fn assert_close(got: &[f32], reference: &[f32], magnitude: &[f32], kernel: &str) {
    assert_eq!(got.len(), reference.len());
    for (i, (&g, &r)) in got.iter().zip(reference.iter()).enumerate() {
        assert!(
            (g - r).abs() <= 1e-5 * magnitude[i].max(1.0),
            "{kernel} diverges at {i}: vector {g} vs scalar {r} (magnitude {})",
            magnitude[i]
        );
    }
}

/// Element-wise absolute value.
fn abs(v: &[f32]) -> Vec<f32> {
    v.iter().map(|x| x.abs()).collect()
}

/// Random tensor data in a numerically tame range.
fn values(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-4.0f32..4.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conv1d_matches_within_tolerance(
        batch in 1usize..3,
        in_c in 1usize..8,
        out_c in 1usize..12,
        out_len in 1usize..20,
        kernel in 1usize..4,
        stride in 1usize..3,
        seed in 0u64..1000,
    ) {
        let padded_len = (out_len - 1) * stride + kernel;
        let x = deterministic(batch * in_c * padded_len, seed);
        let w = deterministic(out_c * in_c * kernel, seed ^ 1);
        let b = deterministic(out_c, seed ^ 2);
        let mut outs = Vec::new();
        for be in BACKENDS {
            let mut o = vec![0.0f32; batch * out_c * out_len];
            be.conv1d(&x, &w, &b, &mut o, batch, in_c, out_c, padded_len, out_len, kernel, stride);
            outs.push(o);
        }
        let mut mag = vec![0.0f32; batch * out_c * out_len];
        ScalarBackend.conv1d(
            &abs(&x), &abs(&w), &abs(&b), &mut mag,
            batch, in_c, out_c, padded_len, out_len, kernel, stride,
        );
        for o in &outs[1..] {
            assert_close(o, &outs[0], &mag, "conv1d");
        }
    }

    #[test]
    fn conv1d_k2s2_matches_within_tolerance(
        batch in 1usize..3,
        in_c in 1usize..100,
        out_c in 1usize..20,
        out_len in 1usize..20,
        seed in 0u64..1000,
    ) {
        let t = out_len * 2;
        let x = deterministic(batch * in_c * t, seed);
        let w = deterministic(out_c * in_c * 2, seed ^ 1);
        let b = deterministic(out_c, seed ^ 2);
        let mut outs = Vec::new();
        for be in BACKENDS {
            let mut o = vec![0.0f32; batch * out_c * out_len];
            be.conv1d_k2s2(&x, &w, &b, &mut o, batch, in_c, out_c, t, out_len);
            outs.push(o);
        }
        let mut mag = vec![0.0f32; batch * out_c * out_len];
        ScalarBackend.conv1d_k2s2(&abs(&x), &abs(&w), &abs(&b), &mut mag, batch, in_c, out_c, t, out_len);
        for o in &outs[1..] {
            assert_close(o, &outs[0], &mag, "conv1d_k2s2");
        }
    }

    #[test]
    fn conv1d_k2s2_vector_is_batch_invariant(
        in_c in 1usize..40,
        out_c in 1usize..12,
        out_len in 1usize..16,
        seed in 0u64..1000,
    ) {
        // Every backend must score a window identically alone and inside a
        // batch, so a score never depends on how an evaluation pass groups
        // its windows.
        let t = out_len * 2;
        let row = deterministic(in_c * t, seed);
        let w = deterministic(out_c * in_c * 2, seed ^ 1);
        let b = deterministic(out_c, seed ^ 2);
        let mut batched_x = row.clone();
        batched_x.extend(row.iter().map(|v| v + 1.0));
        let mut single = vec![0.0f32; out_c * out_len];
        let mut batched = vec![0.0f32; 2 * out_c * out_len];
        VectorBackend.conv1d_k2s2(&row, &w, &b, &mut single, 1, in_c, out_c, t, out_len);
        VectorBackend.conv1d_k2s2(&batched_x, &w, &b, &mut batched, 2, in_c, out_c, t, out_len);
        prop_assert_eq!(&batched[..single.len()], single.as_slice());
    }

    #[test]
    fn linear_matches_within_tolerance(
        batch in 1usize..4,
        in_f in 1usize..200,
        out_f in 1usize..20,
        seed in 0u64..1000,
    ) {
        let x = deterministic(batch * in_f, seed);
        let w = deterministic(out_f * in_f, seed ^ 1);
        let b = deterministic(out_f, seed ^ 2);
        let mut outs = Vec::new();
        for be in BACKENDS {
            let mut o = vec![0.0f32; batch * out_f];
            be.linear(&x, &w, &b, &mut o, batch, in_f, out_f);
            outs.push(o);
        }
        let mut mag = vec![0.0f32; batch * out_f];
        ScalarBackend.linear(&abs(&x), &abs(&w), &abs(&b), &mut mag, batch, in_f, out_f);
        for o in &outs[1..] {
            assert_close(o, &outs[0], &mag, "linear");
        }
    }

    #[test]
    fn matmul_matches_within_tolerance(
        m in 1usize..8,
        k in 1usize..24,
        n in 1usize..24,
        seed in 0u64..1000,
    ) {
        let a = deterministic(m * k, seed);
        let b = deterministic(k * n, seed ^ 1);
        let mut outs = Vec::new();
        for be in BACKENDS {
            let mut o = vec![0.0f32; m * n];
            be.matmul(&a, &b, &mut o, m, k, n);
            outs.push(o);
        }
        let mut mag = vec![0.0f32; m * n];
        ScalarBackend.matmul(&abs(&a), &abs(&b), &mut mag, m, k, n);
        for o in &outs[1..] {
            assert_close(o, &outs[0], &mag, "matmul");
        }
    }

    #[test]
    fn reductions_match_within_tolerance(x in values(300), y in values(300)) {
        let scalar: &dyn Backend = &ScalarBackend;
        let vector: &dyn Backend = &VectorBackend;
        let ax = abs(&x);
        let ay = abs(&y);
        for (s, v, mag, name) in [
            (scalar.sum(&x), vector.sum(&x), scalar.sum(&ax), "sum"),
            (scalar.dot(&x, &y), vector.dot(&x, &y), scalar.dot(&ax, &ay), "dot"),
            (scalar.norm_sq(&x), vector.norm_sq(&x), scalar.norm_sq(&x), "norm_sq"),
        ] {
            prop_assert!(
                (s - v).abs() <= 1e-5 * mag.max(1.0),
                "{} diverges: vector {} vs scalar {} (magnitude {})", name, v, s, mag
            );
        }
    }

    #[test]
    fn elementwise_kernels_are_bit_identical(x in values(97), y in values(97), alpha in -2.0f32..2.0) {
        let mut relu = vec![vec![0.0f32; 97]; BACKENDS.len()];
        let mut tanh = vec![vec![0.0f32; 97]; BACKENDS.len()];
        let mut axpy = vec![y.clone(); BACKENDS.len()];
        for (i, be) in BACKENDS.iter().enumerate() {
            be.relu(&x, &mut relu[i]);
            be.tanh(&x, &mut tanh[i]);
            be.axpy(alpha, &x, &mut axpy[i]);
        }
        for (set, name) in [(&relu, "relu"), (&tanh, "tanh"), (&axpy, "axpy")] {
            for other in &set[1..] {
                for (a, b) in set[0].iter().zip(other.iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{} not bit-identical", name);
                }
            }
        }
    }

    #[test]
    fn adam_update_is_bit_identical(seed in 0u64..1000, scale in 0.1f32..1.0) {
        let n = 61;
        let grad = deterministic(n, seed);
        let mut params: Vec<Vec<f32>> = (0..BACKENDS.len()).map(|_| deterministic(n, seed ^ 1)).collect();
        let mut ms: Vec<Vec<f32>> = (0..BACKENDS.len()).map(|_| deterministic(n, seed ^ 2)).collect();
        let mut vs: Vec<Vec<f32>> = (0..BACKENDS.len())
            .map(|_| deterministic(n, seed ^ 3).iter().map(|v| v.abs()).collect())
            .collect();
        for (i, be) in BACKENDS.iter().enumerate() {
            be.adam_update(
                &mut params[i], &grad, &mut ms[i], &mut vs[i],
                scale, 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.001,
            );
        }
        for field in [&params, &ms, &vs] {
            for other in &field[1..] {
                for (a, b) in field[0].iter().zip(other.iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "adam state not bit-identical");
                }
            }
        }
    }
}

/// Deterministic pseudo-random values (splitmix64-derived) so failures
/// reproduce from the printed seed alone.
fn deterministic(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(0x94d0_49bb_1331_11eb) ^ (state >> 31);
            ((state >> 40) as f32 / (1u32 << 24) as f32) * 8.0 - 4.0
        })
        .collect()
}

#[test]
fn backend_kinds_resolve_to_their_implementations() {
    for kind in BackendKind::ALL {
        assert_eq!(kind.backend().kind(), kind);
    }
}
