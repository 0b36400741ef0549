//! The loops behind the crate's element-wise and reduction work.
//!
//! The loops here are the kernel-2/stride-2 full-window inference kernel
//! ([`conv1d_k2s2`]), the matrix product, the element-wise activations, the
//! reductions, the backward of the dense map the convolution and dense
//! layers train through ([`rows_backward`]) and the axpy-style gradient and
//! optimizer updates, called directly by the layers, the optimizers and
//! [`Tensor`](crate::Tensor). The training forward passes of
//! [`Conv1d`](crate::layers::Conv1d) and [`Linear`](crate::layers::Linear),
//! and their generic inference path, run the output-vectorized column
//! kernel of [`crate::layers::incremental`] instead: every output starts at
//! its bias and adds its inputs one by one in input order.
//! [`conv1d_k2s2`] is the full-window pass the incremental oracles check
//! the served column kernels against.
//! Every iteration order and accumulation association is fixed, so a model
//! built, trained and scored here reproduces the same bits on every run (the
//! golden-score tests in `varade-fleet/tests/equivalence.rs` pin this).
//!
//! # Builds
//!
//! The hot training loops — [`axpy`], [`adam_update`], [`rows_backward`] —
//! and the two column kernels are each one `#[inline(always)]` body compiled
//! twice: for the baseline target (SSE2 on x86-64, four lanes per vector)
//! and, on x86, again with AVX2 enabled (eight lanes). One run-time pick,
//! `KernelBuild::host`, runs the AVX2 build when the CPU has AVX2; there is
//! no switch to pick it by hand. The two builds agree bit for bit: each lane
//! runs the same IEEE operations in the same order whatever the vector
//! width, lanes never combine, and Rust never contracts a multiply and an
//! add into an FMA. The ordered reductions ([`sum`], [`norm_sq`]) are built
//! for the baseline target only: vectorizing them would reassociate their
//! sums. The unit tests below compare both builds of the training loops
//! against the baseline build; `layers::incremental`'s compare the column
//! kernels against a per-output loop.
//!
//! The dispatch (`builds!`) holds the crate's only `unsafe`: one call into
//! an AVX2 build per kernel, made only once AVX2 was detected.
//!
//! All slices are row-major and densely packed; shape arguments are passed
//! explicitly so the kernels stay allocation-free. Every kernel is
//! **batch-invariant**: the values written for batch row `i` do not depend
//! on `batch`, so a window scores to the same bits alone as inside a
//! training or evaluation batch.

/// The builds of the dispatched loops: one Rust body, compiled for the
/// baseline target and, on x86, again with AVX2 enabled (see the module
/// docs for why the two agree bit for bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KernelBuild {
    Baseline,
    /// Only ever returned by [`KernelBuild::host`] on a CPU that has AVX2:
    /// the dispatch calls rely on it.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2,
}

impl KernelBuild {
    /// The widest build this CPU runs.
    pub(crate) fn host() -> Self {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Self::Avx2;
        }
        Self::Baseline
    }
}

/// Defines `$on(build, args…)`, which runs the `#[inline(always)]` function
/// `$body` as compiled for `build`, and `$avx2`, the AVX2 build it calls.
macro_rules! builds {
    ($on:ident, $avx2:ident, $body:ident($($arg:ident: $ty:ty),* $(,)?)) => {
        #[allow(unsafe_code, clippy::too_many_arguments)]
        pub(crate) fn $on(build: $crate::kernels::KernelBuild, $($arg: $ty),*) {
            match build {
                $crate::kernels::KernelBuild::Baseline => $body($($arg),*),
                // SAFETY: `KernelBuild::Avx2` comes only from
                // `KernelBuild::host` on a CPU where AVX2 was detected, the
                // one feature `$avx2` needs.
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                $crate::kernels::KernelBuild::Avx2 => unsafe { $avx2($($arg),*) },
            }
        }

        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)]
        fn $avx2($($arg: $ty),*) {
            $body($($arg),*)
        }
    };
}
pub(crate) use builds;

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
    axpy_on(KernelBuild::host(), alpha, x, y);
}

builds!(axpy_on, axpy_avx2, axpy_body(alpha: f32, x: &[f32], y: &mut [f32]));

#[inline(always)]
fn axpy_body(alpha: f32, x: &[f32], y: &mut [f32]) {
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
    adam_update_on(
        KernelBuild::host(),
        param,
        grad,
        m,
        v,
        scale,
        lr,
        beta1,
        beta2,
        eps,
        bias1,
        bias2,
    );
}

builds!(
    adam_update_on,
    adam_update_avx2,
    adam_update_body(
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
    )
);

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn adam_update_body(
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
    let n = param.len();
    let (grad, m, v) = (&grad[..n], &mut m[..n], &mut v[..n]);
    for i in 0..n {
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

/// The backward of `out[b, o, j] = bias[o] + Σᵢ w[o, i]·rows[b·len + j,
/// i]`, the map the dense layer (`len = 1`, one row per batch row) and the
/// convolution (one row of input taps per output position) both train
/// through. `go` is `[batch, out, len]`, `w` and `gw` are `[out, width]`,
/// `rows` and `grad_rows` are `[batch · len, width]`.
///
/// For every `b`, `o` and `j` in that order, with `g = go[b, o, j]` and
/// `r = b·len + j`: `gb[o] += g`, `gw[o, ·] += g·rows[r, ·]` and, if
/// `grad_rows` is given, `grad_rows[r, ·] += g·w[o, ·]`. An exactly zero `g`
/// is skipped: it would add `±0`, which leaves a finite accumulator's bits
/// as they are (an accumulator that starts at `+0` never reaches `−0`).
#[allow(clippy::too_many_arguments)]
pub fn rows_backward(
    rows: &[f32],
    go: &[f32],
    w: &[f32],
    gw: &mut [f32],
    gb: &mut [f32],
    grad_rows: Option<&mut [f32]>,
    len: usize,
) {
    rows_backward_on(KernelBuild::host(), rows, go, w, gw, gb, grad_rows, len);
}

builds!(
    rows_backward_on,
    rows_backward_avx2,
    rows_backward_body(
        rows: &[f32],
        go: &[f32],
        w: &[f32],
        gw: &mut [f32],
        gb: &mut [f32],
        grad_rows: Option<&mut [f32]>,
        len: usize,
    )
);

#[inline(always)]
fn rows_backward_body(
    rows: &[f32],
    go: &[f32],
    w: &[f32],
    gw: &mut [f32],
    gb: &mut [f32],
    mut grad_rows: Option<&mut [f32]>,
    len: usize,
) {
    let out = gb.len();
    let width = w.len() / out;
    for (b, go_b) in go.chunks_exact(out * len).enumerate() {
        for (o, (go_o, gb_o)) in go_b.chunks_exact(len).zip(gb.iter_mut()).enumerate() {
            let w_o = &w[o * width..(o + 1) * width];
            let gw_o = &mut gw[o * width..(o + 1) * width];
            for (j, &g) in go_o.iter().enumerate() {
                if g == 0.0 {
                    continue;
                }
                *gb_o += g;
                let r = (b * len + j) * width;
                axpy_body(g, &rows[r..r + width], gw_o);
                if let Some(grad_rows) = grad_rows.as_deref_mut() {
                    axpy_body(g, w_o, &mut grad_rows[r..r + width]);
                }
            }
        }
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

/// What the kernel-build tests here and in `layers::incremental` share.
#[cfg(test)]
pub(crate) mod test_support {
    use super::KernelBuild;

    /// Every build this CPU runs; says so when the AVX2 one is skipped.
    pub(crate) fn runnable_builds() -> Vec<KernelBuild> {
        let host = KernelBuild::host();
        if host == KernelBuild::Baseline {
            println!("AVX2 not detected: only the baseline build is compared");
            return vec![host];
        }
        vec![KernelBuild::Baseline, host]
    }

    /// Deterministic values mixing exact `±0.0`, magnitudes up to `1e5` and
    /// fractions of order one, so a change of association rounds
    /// differently in the last bits.
    pub(crate) fn values(n: usize, seed: u32) -> Vec<f32> {
        (0..n as u32)
            .map(|i| match (i * 7 + seed) % 8 {
                0 => 0.0,
                1 => -0.0,
                2 => 1.0e5 * ((i + seed) as f32 * 0.7).sin(),
                _ => ((i * 13 + seed) as f32 * 0.37).sin() * 3.0,
            })
            .collect()
    }

    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{bits, runnable_builds, values};
    use super::*;

    /// Slice lengths covering one lane, a partial and a full AVX2 vector,
    /// the robot head's 172 outputs and a long run with remainder lanes.
    const LENGTHS: [usize; 5] = [1, 7, 8, 172, 1000];

    #[test]
    fn axpy_builds_match_the_element_loop_bit_for_bit() {
        for n in LENGTHS {
            let (x, y) = (values(n, 1), values(n, 2));
            for alpha in [0.37, -1.0e5, 0.0, -0.0] {
                let expected: Vec<f32> = y.iter().zip(&x).map(|(&y, &x)| y + alpha * x).collect();
                for build in runnable_builds() {
                    let mut got = y.clone();
                    axpy_on(build, alpha, &x, &mut got);
                    assert_eq!(bits(&got), bits(&expected), "{build:?} n={n} alpha={alpha}");
                }
            }
        }
    }

    #[test]
    fn adam_update_builds_match_the_element_loop_bit_for_bit() {
        // The third step of a clipped update: first moments of the
        // gradients' sign and size, second moments their small squares.
        let (lr, beta1, beta2, eps, scale) = (1.0e-3f32, 0.9f32, 0.999f32, 1.0e-8f32, 0.61f32);
        let (bias1, bias2) = (1.0 - beta1.powf(3.0), 1.0 - beta2.powf(3.0));
        for n in LENGTHS {
            let (param, grad) = (values(n, 3), values(n, 4));
            let m0: Vec<f32> = values(n, 5).iter().map(|g| 0.19 * g).collect();
            let v0: Vec<f32> = values(n, 6).iter().map(|g| 2.7e-3 * g * g).collect();
            let mut expected = (param.clone(), m0.clone(), v0.clone());
            let (p, m, v) = (&mut expected.0, &mut expected.1, &mut expected.2);
            for (((p, &g), m), v) in p.iter_mut().zip(&grad).zip(m).zip(v) {
                let g = g * scale;
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                *p -= lr * (*m / bias1) / ((*v / bias2).sqrt() + eps);
            }
            for build in runnable_builds() {
                let (mut p, mut m, mut v) = (param.clone(), m0.clone(), v0.clone());
                adam_update_on(
                    build, &mut p, &grad, &mut m, &mut v, scale, lr, beta1, beta2, eps, bias1,
                    bias2,
                );
                assert_eq!(bits(&p), bits(&expected.0), "{build:?} n={n} param");
                assert_eq!(bits(&m), bits(&expected.1), "{build:?} n={n} m");
                assert_eq!(bits(&v), bits(&expected.2), "{build:?} n={n} v");
            }
        }
    }

    #[test]
    fn rows_backward_builds_match_the_per_output_loop_bit_for_bit() {
        let (batch, out, len) = (2, 3, 2);
        for width in LENGTHS {
            let rows = values(batch * len * width, 7);
            let w = values(out * width, 8);
            // Every few gradients an exact `±0.0`, so the skip runs.
            let go = values(batch * out * len, 9);
            let (gw0, gb0, gr0) = (
                values(out * width, 10),
                values(out, 11),
                values(rows.len(), 12),
            );
            let (mut gw, mut gb, mut gr) = (gw0.clone(), gb0.clone(), gr0.clone());
            for b in 0..batch {
                for o in 0..out {
                    for j in 0..len {
                        let g = go[(b * out + o) * len + j];
                        if g == 0.0 {
                            continue;
                        }
                        gb[o] += g;
                        let r = (b * len + j) * width;
                        for i in 0..width {
                            gw[o * width + i] += g * rows[r + i];
                            gr[r + i] += g * w[o * width + i];
                        }
                    }
                }
            }
            for build in runnable_builds() {
                for input_grad in [true, false] {
                    let (mut got_gw, mut got_gb, mut got_gr) =
                        (gw0.clone(), gb0.clone(), gr0.clone());
                    let grad_rows = input_grad.then_some(got_gr.as_mut_slice());
                    rows_backward_on(
                        build,
                        &rows,
                        &go,
                        &w,
                        &mut got_gw,
                        &mut got_gb,
                        grad_rows,
                        len,
                    );
                    let what = format!("{build:?} width={width} input_grad={input_grad}");
                    assert_eq!(bits(&got_gw), bits(&gw), "{what} weight grad");
                    assert_eq!(bits(&got_gb), bits(&gb), "{what} bias grad");
                    let want_gr = if input_grad { &gr } else { &gr0 };
                    assert_eq!(bits(&got_gr), bits(want_gr), "{what} row grad");
                }
            }
        }
    }
}
