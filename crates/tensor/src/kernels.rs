//! The numeric kernels behind every compute-heavy loop of the crate.
//!
//! The 1-D convolutions (including the specialized kernel-2/stride-2
//! inference kernel), the linear/matmul products, the element-wise
//! activations, the reductions and the axpy-style optimizer updates are the
//! hand-written scalar loops below, called directly by the layers, the
//! optimizers and [`Tensor`](crate::Tensor). Their iteration order and
//! accumulation association are fixed, so a model built, trained and scored
//! here reproduces the same bits on every run (the golden-score tests in
//! `varade-fleet/tests/equivalence.rs` pin this).
//!
//! All slices are row-major and densely packed; shape arguments are passed
//! explicitly so the kernels stay allocation-free. Every kernel is
//! **batch-invariant**: the values written for batch row `i` do not depend
//! on `batch`, so a window scores to the same bits alone as inside a
//! training or evaluation batch. Incremental streaming runs its own column
//! kernels (see [`crate::layers::incremental`]) with the same per-output
//! association, so it is bit-identical to the one-shot pass.

/// Generic 1-D convolution over an already padded input.
///
/// `x` is `[batch, in_c, padded_len]`, `w` is `[out_c, in_c, kernel]`,
/// `bias` is `[out_c]` and `out` is `[batch, out_c, out_len]` with
/// `out_len = (padded_len - kernel) / stride + 1`.
#[allow(clippy::too_many_arguments)]
pub fn conv1d(
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
) {
    let (ci_n, k) = (in_c, kernel);
    for bi in 0..batch {
        for oc in 0..out_c {
            let w_oc = &w[oc * ci_n * k..(oc + 1) * ci_n * k];
            let o_row = &mut out[(bi * out_c + oc) * out_len..(bi * out_c + oc + 1) * out_len];
            for (ot, o_val) in o_row.iter_mut().enumerate() {
                let start = ot * stride;
                let mut acc = bias[oc];
                for ic in 0..ci_n {
                    let x_row = &x[(bi * ci_n + ic) * padded_len + start
                        ..(bi * ci_n + ic) * padded_len + start + k];
                    let w_row = &w_oc[ic * k..(ic + 1) * k];
                    for (xv, wv) in x_row.iter().zip(w_row.iter()) {
                        acc += xv * wv;
                    }
                }
                *o_val = acc;
            }
        }
    }
}

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

/// Fully connected affine map `out = x Wᵀ + bias`: `x` is `[batch, in_f]`,
/// `w` is `[out_f, in_f]`, `bias` is `[out_f]`, `out` is `[batch, out_f]`.
pub fn linear(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    out: &mut [f32],
    batch: usize,
    in_f: usize,
    out_f: usize,
) {
    for bi in 0..batch {
        let x_row = &x[bi * in_f..(bi + 1) * in_f];
        let o_row = &mut out[bi * out_f..(bi + 1) * out_f];
        for (oi, o_val) in o_row.iter_mut().enumerate() {
            let w_row = &w[oi * in_f..(oi + 1) * in_f];
            let mut acc = bias[oi];
            for (xv, wv) in x_row.iter().zip(w_row.iter()) {
                acc += xv * wv;
            }
            *o_val = acc;
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
