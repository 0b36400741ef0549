//! The training passes of [`Conv1d`] and [`Linear`] run the output-vectorized
//! column kernel, and must stay **bit-identical** to the per-output loops
//! they replaced. Those loops are kept below, verbatim, as the reference:
//! every forward output, weight and bias gradient and input gradient is
//! compared by `to_bits`, over shapes that run full 16-lane blocks, blocks
//! plus remainder lanes, remainder lanes only, padded and overlapping
//! kernels.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use varade_tensor::layers::{Conv1d, Linear};
use varade_tensor::{Layer, Tensor};

/// Reference forward: the per-output convolution loop over an already padded
/// input (`x` is `[batch, in_c, padded_len]`, `w` is `[out_c, in_c, kernel]`).
#[allow(clippy::too_many_arguments)]
fn conv1d(
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

/// Reference fully connected forward: `x` is `[batch, in_f]`, `w` is
/// `[out_f, in_f]`.
fn linear(
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

/// A convolution's shape and its reference weights and gradients.
struct ConvRef {
    in_c: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    w: Vec<f32>,
    bias: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
}

impl ConvRef {
    /// Zero-pads the time axis of `[batch, in_c, t]` on both ends.
    fn pad(&self, x: &[f32], batch: usize, t: usize) -> Vec<f32> {
        let padded_len = t + 2 * self.padding;
        let mut out = vec![0.0f32; batch * self.in_c * padded_len];
        for bi in 0..batch {
            for ci in 0..self.in_c {
                for ti in 0..t {
                    out[(bi * self.in_c + ci) * padded_len + ti + self.padding] =
                        x[(bi * self.in_c + ci) * t + ti];
                }
            }
        }
        out
    }

    fn forward(&self, x: &[f32], batch: usize, t: usize) -> Vec<f32> {
        let padded_len = t + 2 * self.padding;
        let out_len = (padded_len - self.kernel) / self.stride + 1;
        let mut out = vec![0.0f32; batch * self.out_c * out_len];
        conv1d(
            &self.pad(x, batch, t),
            &self.w,
            &self.bias,
            &mut out,
            batch,
            self.in_c,
            self.out_c,
            padded_len,
            out_len,
            self.kernel,
            self.stride,
        );
        out
    }

    /// The reference backward loop: accumulates the weight and bias
    /// gradients and returns the input gradient.
    fn backward(&mut self, x: &[f32], go: &[f32], batch: usize, t: usize) -> Vec<f32> {
        let padded = self.pad(x, batch, t);
        let x = padded.as_slice();
        let padded_len = t + 2 * self.padding;
        let out_len = (padded_len - self.kernel) / self.stride + 1;
        let mut gp = vec![0.0f32; batch * self.in_c * padded_len];
        let w = self.w.as_slice();
        let gw = self.gw.as_mut_slice();
        let gb = self.gb.as_mut_slice();
        let (ci_n, k) = (self.in_c, self.kernel);
        for bi in 0..batch {
            for oc in 0..self.out_c {
                let go_row =
                    &go[(bi * self.out_c + oc) * out_len..(bi * self.out_c + oc + 1) * out_len];
                for (ot, &g) in go_row.iter().enumerate() {
                    if g == 0.0 {
                        continue;
                    }
                    gb[oc] += g;
                    let start = ot * self.stride;
                    for ic in 0..ci_n {
                        let x_base = (bi * ci_n + ic) * padded_len + start;
                        let w_base = (oc * ci_n + ic) * k;
                        for kk in 0..k {
                            gw[w_base + kk] += g * x[x_base + kk];
                            gp[x_base + kk] += g * w[w_base + kk];
                        }
                    }
                }
            }
        }
        // Strip padding from the input gradient.
        let mut grad_input = vec![0.0f32; batch * self.in_c * t];
        for bi in 0..batch {
            for ci in 0..self.in_c {
                for ti in 0..t {
                    grad_input[(bi * self.in_c + ci) * t + ti] =
                        gp[(bi * self.in_c + ci) * padded_len + ti + self.padding];
                }
            }
        }
        grad_input
    }
}

/// A dense layer's shape and its reference weights and gradients.
struct LinearRef {
    in_f: usize,
    out_f: usize,
    w: Vec<f32>,
    bias: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
}

impl LinearRef {
    fn forward(&self, x: &[f32], batch: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; batch * self.out_f];
        linear(
            x, &self.w, &self.bias, &mut out, batch, self.in_f, self.out_f,
        );
        out
    }

    /// The reference backward loop.
    fn backward(&mut self, x: &[f32], go: &[f32], batch: usize) -> Vec<f32> {
        let (in_features, out_features) = (self.in_f, self.out_f);
        let mut gi = vec![0.0f32; batch * in_features];
        let w = self.w.as_slice();
        let gw = self.gw.as_mut_slice();
        let gb = self.gb.as_mut_slice();
        for bi in 0..batch {
            let x_row = &x[bi * in_features..(bi + 1) * in_features];
            let go_row = &go[bi * out_features..(bi + 1) * out_features];
            let gi_row = &mut gi[bi * in_features..(bi + 1) * in_features];
            for (oi, &g) in go_row.iter().enumerate() {
                gb[oi] += g;
                let w_row = &w[oi * in_features..(oi + 1) * in_features];
                let gw_row = &mut gw[oi * in_features..(oi + 1) * in_features];
                for ii in 0..in_features {
                    gw_row[ii] += g * x_row[ii];
                    gi_row[ii] += g * w_row[ii];
                }
            }
        }
        gi
    }
}

/// Values spread over several binades, so a reassociated sum rounds
/// differently.
fn values(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| rng.gen_range(-1.0f32..1.0) * [1.0, 0.01, 37.0][rng.gen_range(0..3usize)])
        .collect()
}

/// [`values`] with every fifth entry an exact `+0.0` or `−0.0`, so the
/// backward's zero-gradient skip runs.
fn grad_values(rng: &mut StdRng, n: usize) -> Vec<f32> {
    let mut g = values(rng, n);
    for (i, v) in g.iter_mut().enumerate().filter(|(i, _)| i % 5 == 0) {
        *v = if i % 10 == 0 { 0.0 } else { -0.0 };
    }
    g
}

fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs {w}");
    }
}

/// The layer's `(weight, bias, weight_grad, bias_grad)`, read through
/// `visit_params`.
fn params(layer: &mut dyn Layer) -> Vec<Vec<f32>> {
    let mut seen = Vec::new();
    layer.visit_params(&mut |p, g| seen.push((p.as_slice().to_vec(), g.as_slice().to_vec())));
    let [(w, gw), (b, gb)] = <[_; 2]>::try_from(seen).expect("weight and bias");
    vec![w, b, gw, gb]
}

/// Gives the layer a non-zero bias, so every lane starts somewhere else.
fn randomize_bias(layer: &mut dyn Layer, rng: &mut StdRng) {
    layer.visit_tensors_mut("", &mut |name, t| {
        if name == "bias" {
            let n = t.len();
            t.as_mut_slice().copy_from_slice(&values(rng, n));
        }
    });
}

/// Two forward/backward rounds through `Conv1d(in_c → out_c, kernel,
/// stride, padding)` and the reference, the second accumulating onto the
/// first round's gradients.
fn check_conv(
    (in_c, out_c): (usize, usize),
    (kernel, stride, padding): (usize, usize, usize),
    batch: usize,
    t: usize,
) {
    let shape = format!("conv {in_c}->{out_c} k{kernel}/s{stride}/p{padding} t={t} b={batch}");
    let mut rng = StdRng::seed_from_u64((in_c * 1000 + out_c * 10 + kernel) as u64);
    let mut conv = Conv1d::new(in_c, out_c, kernel, stride, padding, &mut rng);
    randomize_bias(&mut conv, &mut rng);
    let [w, bias, gw, gb] = <[_; 4]>::try_from(params(&mut conv)).expect("four tensors");
    let mut reference = ConvRef {
        in_c,
        out_c,
        kernel,
        stride,
        padding,
        w,
        bias,
        gw,
        gb,
    };
    for round in 0..2 {
        let x = values(&mut rng, batch * in_c * t);
        let input = Tensor::from_vec(x.clone(), &[batch, in_c, t]).unwrap();
        let out = conv.forward(&input).unwrap();
        let want = reference.forward(&x, batch, t);
        assert_bits(
            &format!("{shape} round {round} forward"),
            out.as_slice(),
            &want,
        );
        if (kernel, stride, padding) != (2, 2, 0) {
            // The generic inference branch shares the training association.
            let inferred = conv.forward_infer(&input).unwrap();
            assert_bits(
                &format!("{shape} forward_infer"),
                inferred.as_slice(),
                &want,
            );
        }
        let go = grad_values(&mut rng, out.len());
        let grad_output = Tensor::from_vec(go.clone(), out.shape()).unwrap();
        let grad_input = conv.backward(&grad_output).unwrap();
        let want_gi = reference.backward(&x, &go, batch, t);
        assert_bits(
            &format!("{shape} round {round} input grad"),
            grad_input.as_slice(),
            &want_gi,
        );
        let [_, _, gw, gb] = <[_; 4]>::try_from(params(&mut conv)).expect("four tensors");
        assert_bits(
            &format!("{shape} round {round} weight grad"),
            &gw,
            &reference.gw,
        );
        assert_bits(
            &format!("{shape} round {round} bias grad"),
            &gb,
            &reference.gb,
        );
    }
}

/// [`check_conv`] for `Linear(in_f → out_f)`.
fn check_linear(in_f: usize, out_f: usize, batch: usize) {
    let shape = format!("linear {in_f}->{out_f} b={batch}");
    let mut rng = StdRng::seed_from_u64((in_f * 1000 + out_f) as u64);
    let mut layer = Linear::new(in_f, out_f, &mut rng);
    randomize_bias(&mut layer, &mut rng);
    let [w, bias, gw, gb] = <[_; 4]>::try_from(params(&mut layer)).expect("four tensors");
    let mut reference = LinearRef {
        in_f,
        out_f,
        w,
        bias,
        gw,
        gb,
    };
    for round in 0..2 {
        let x = values(&mut rng, batch * in_f);
        let input = Tensor::from_vec(x.clone(), &[batch, in_f]).unwrap();
        let out = layer.forward(&input).unwrap();
        let want = reference.forward(&x, batch);
        assert_bits(
            &format!("{shape} round {round} forward"),
            out.as_slice(),
            &want,
        );
        let inferred = layer.forward_infer(&input).unwrap();
        assert_bits(
            &format!("{shape} forward_infer"),
            inferred.as_slice(),
            &want,
        );
        let go = grad_values(&mut rng, out.len());
        let grad_output = Tensor::from_vec(go.clone(), out.shape()).unwrap();
        let grad_input = layer.backward(&grad_output).unwrap();
        let want_gi = reference.backward(&x, &go, batch);
        assert_bits(
            &format!("{shape} round {round} input grad"),
            grad_input.as_slice(),
            &want_gi,
        );
        let [_, _, gw, gb] = <[_; 4]>::try_from(params(&mut layer)).expect("four tensors");
        assert_bits(
            &format!("{shape} round {round} weight grad"),
            &gw,
            &reference.gw,
        );
        assert_bits(
            &format!("{shape} round {round} bias grad"),
            &gb,
            &reference.gb,
        );
    }
}

#[test]
fn a_full_lane_block_trains_bit_identically() {
    // The robot model's input conv: 86 channels to one 16-lane block.
    check_conv((86, 16), (2, 2, 0), 3, 64);
}

#[test]
fn a_block_plus_remainder_lanes_trains_bit_identically() {
    check_conv((16, 24), (2, 2, 0), 2, 32);
}

#[test]
fn remainder_lanes_alone_train_bit_identically() {
    check_conv((3, 5), (2, 2, 0), 2, 16);
    // An odd length leaves the last input sample under no kernel tap.
    check_conv((3, 5), (2, 2, 0), 2, 17);
}

#[test]
fn overlapping_kernels_train_bit_identically() {
    // The autoencoder's residual-block convolution.
    check_conv((2, 3), (3, 1, 1), 2, 9);
}

#[test]
fn padded_and_gapped_kernels_train_bit_identically() {
    check_conv((3, 4), (2, 2, 1), 2, 9);
    // Kernel shorter than the stride: taps skip every other input sample.
    check_conv((2, 3), (1, 2, 0), 2, 11);
}

#[test]
fn dense_layers_train_bit_identically() {
    // The robot model's head, then remainder lanes only.
    check_linear(128, 172, 3);
    check_linear(3, 2, 4);
}

/// One `Conv1d` driven through batches of 3, 2 and 3 windows, over time
/// lengths that move the padding taps, must match a fresh copy of itself on
/// every call. Its forward refills the previous call's rows in place and
/// its backward the previous row gradients, so a tap left over from an
/// earlier, larger call, or a padding zero not rewritten, shows here.
#[test]
fn a_reused_convolution_matches_a_fresh_one_on_every_call() {
    for (kernel, stride, padding) in [(2, 2, 0), (3, 1, 1), (2, 2, 1)] {
        let shape = format!("conv k{kernel}/s{stride}/p{padding}");
        let mut rng = StdRng::seed_from_u64((kernel * 100 + stride * 10 + padding) as u64);
        let mut reused = Conv1d::new(3, 5, kernel, stride, padding, &mut rng);
        randomize_bias(&mut reused, &mut rng);
        let template = reused.clone();
        for (call, (batch, t)) in [(3, 9), (2, 8), (3, 9)].into_iter().enumerate() {
            let what = format!("{shape} call {call} (batch {batch}, t {t})");
            let input = Tensor::from_vec(values(&mut rng, batch * 3 * t), &[batch, 3, t]).unwrap();
            let mut fresh = template.clone();
            reused.zero_grad();
            let out = reused.forward(&input).unwrap();
            let want = fresh.forward(&input).unwrap();
            assert_bits(&format!("{what} forward"), out.as_slice(), want.as_slice());
            let go = Tensor::from_vec(grad_values(&mut rng, out.len()), out.shape()).unwrap();
            let grad_input = reused.backward(&go).unwrap();
            let want_gi = fresh.backward(&go).unwrap();
            assert_bits(
                &format!("{what} input grad"),
                grad_input.as_slice(),
                want_gi.as_slice(),
            );
            for (name, (got, want)) in ["weight", "bias", "weight grad", "bias grad"]
                .into_iter()
                .zip(params(&mut reused).iter().zip(&params(&mut fresh)))
            {
                assert_bits(&format!("{what} {name}"), got, want);
            }
        }
    }
}
