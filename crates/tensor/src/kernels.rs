//! The scalar loops behind the crate's element-wise and reduction work.
//!
//! The loops here are the kernel-2/stride-2 full-window inference kernel
//! ([`conv1d_k2s2`]), the matrix product, the element-wise activations, the
//! reductions and the axpy-style gradient and optimizer updates, called
//! directly by the layers, the optimizers and [`Tensor`](crate::Tensor).
//! The training passes of [`Conv1d`](crate::layers::Conv1d) and
//! [`Linear`](crate::layers::Linear), and their generic inference path, run
//! the output-vectorized column kernel of [`crate::layers::incremental`]
//! instead: every output starts at its bias and adds its inputs one by one
//! in input order. Only those column kernels are also built with AVX2 and
//! picked at run time; the loops here are built for the baseline target
//! alone. [`conv1d_k2s2`] is the full-window pass the incremental oracles
//! check the served column kernels against.
//! Every iteration order and accumulation association is fixed, so a model
//! built, trained and scored here reproduces the same bits on every run (the
//! golden-score tests in `varade-fleet/tests/equivalence.rs` pin this).
//!
//! All slices are row-major and densely packed; shape arguments are passed
//! explicitly so the kernels stay allocation-free. Every kernel is
//! **batch-invariant**: the values written for batch row `i` do not depend
//! on `batch`, so a window scores to the same bits alone as inside a
//! training or evaluation batch.

/// Specialized kernel-2 / stride-2 / padding-0 convolution — the VARADE
/// backbone's full-window inference loop. `x` is `[batch, in_c, t]`, `out`
/// is `[batch, out_c, out_len]` with `out_len = t / 2` output positions
/// reading input pairs `(2·j, 2·j + 1)`.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_k2s2(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    out: &mut [f32],
    batch: usize,
    in_c: usize,
    out_c: usize,
    t: usize,
    out_len: usize,
) {
    let ci_n = in_c;
    for bi in 0..batch {
        let x_b = &x[bi * ci_n * t..(bi + 1) * ci_n * t];
        let o_b = &mut out[bi * out_c * out_len..(bi + 1) * out_c * out_len];
        for oc in 0..out_c {
            let o_row = &mut o_b[oc * out_len..(oc + 1) * out_len];
            o_row.fill(bias[oc]);
            let w_oc = &w[oc * ci_n * 2..(oc + 1) * ci_n * 2];
            for ic in 0..ci_n {
                let (w0, w1) = (w_oc[ic * 2], w_oc[ic * 2 + 1]);
                let x_row = &x_b[ic * t..ic * t + out_len * 2];
                for (o_val, pair) in o_row.iter_mut().zip(x_row.chunks_exact(2)) {
                    *o_val += w0 * pair[0] + w1 * pair[1];
                }
            }
        }
    }
}

/// Matrix product `out = a · b`: `a` is `[m, k]`, `b` is `[k, n]`, `out` is
/// `[m, n]` and must be zero-initialized by the caller.
pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            let row = &b[p * n..(p + 1) * n];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Element-wise `max(0, x)`.
pub fn relu(x: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o = if v > 0.0 { v } else { 0.0 };
    }
}

/// Element-wise hyperbolic tangent.
pub fn tanh(x: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o = v.tanh();
    }
}

/// Sum of all elements.
pub fn sum(x: &[f32]) -> f32 {
    x.iter().sum()
}

/// Squared Euclidean norm.
pub fn norm_sq(x: &[f32]) -> f32 {
    x.iter().map(|v| v * v).sum()
}

/// In-place `y += alpha * x`.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (yv, &xv) in y.iter_mut().zip(x.iter()) {
        *yv += alpha * xv;
    }
}

/// One fused Adam update over a parameter block: for every element,
/// `g = grad · scale`, the biased moments `m`/`v` advance with `beta1`/
/// `beta2`, and the parameter steps by `lr · m̂ / (√v̂ + eps)` where the hats
/// divide by the precomputed bias corrections.
#[allow(clippy::too_many_arguments)]
pub fn adam_update(
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
) {
    for i in 0..param.len() {
        let g = grad[i] * scale;
        let mi = &mut m[i];
        let vi = &mut v[i];
        *mi = beta1 * *mi + (1.0 - beta1) * g;
        *vi = beta2 * *vi + (1.0 - beta2) * g * g;
        let m_hat = *mi / bias1;
        let v_hat = *vi / bias2;
        param[i] -= lr * m_hat / (v_hat.sqrt() + eps);
    }
}

/// The label of the one kernel set, kept as a one-variant enum because the
/// outside-in benchmark (`perfbench/`) still reads it; it stays until
/// ROADMAP item 6(c)'s benchmark-tagged change removes those calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The scalar loops of this module.
    Scalar,
}

impl BackendKind {
    /// `"scalar"`. Stays until ROADMAP item 6(c) removes perfbench's call.
    pub fn label(self) -> &'static str {
        "scalar"
    }

    /// [`BackendKind::Scalar`], a constant. Stays until ROADMAP item 6(c)
    /// removes perfbench's call.
    pub fn active() -> Self {
        BackendKind::Scalar
    }

    /// `Some(0.0)`: scores are bit-identical to the reference. Stays until
    /// ROADMAP item 6(c) removes perfbench's calls.
    pub fn score_tolerance(self) -> Option<f64> {
        Some(0.0)
    }
}
