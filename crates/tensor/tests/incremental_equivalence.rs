//! Property tests of the incremental streaming path: for every sliding
//! window of a stream, the parity-phased incremental pipeline must emit the
//! same head output as a full [`Layer::forward_infer`] recompute of that
//! window — bit-identical, because the column kernels keep the same
//! per-output association as the full-pass kernels.

use rand::rngs::StdRng;
use rand::SeedableRng;

use varade_tensor::layers::{
    Conv1d, Flatten, Linear, Relu, ResidualConvBlock, Sequential, StreamStep,
};
use varade_tensor::optim::Sgd;
use varade_tensor::{Layer, Tensor};

/// Builds a VARADE-shaped backbone for `channels` input channels and a
/// power-of-two `window`: k2/s2 convolutions halving the time axis to 2,
/// ReLU between, then flatten + linear head to `2 * channels` outputs.
fn varade_stack(channels: usize, window: usize, base_maps: usize) -> Sequential {
    let mut rng = StdRng::seed_from_u64(11 + window as u64 + channels as u64);
    let n_layers = (window.trailing_zeros() as usize).saturating_sub(1);
    let mut net = Sequential::empty();
    let mut in_ch = channels;
    for layer in 0..n_layers {
        let out_ch = base_maps * (1 << (layer / 2));
        net.push(Box::new(Conv1d::new(in_ch, out_ch, 2, 2, 0, &mut rng)));
        net.push(Box::new(Relu::new()));
        in_ch = out_ch;
    }
    net.push(Box::new(Flatten::new()));
    net.push(Box::new(Linear::new(
        in_ch * (window >> n_layers),
        2 * channels,
        &mut rng,
    )));
    net
}

/// A deterministic pseudo-random stream value.
fn sample(t: usize, c: usize) -> f32 {
    ((t as f32 * 0.37 + c as f32 * 1.3).sin() + (t as f32 * 0.11).cos()) * 0.7
}

/// Feeds `total` samples through the incremental pipeline and, for every
/// emission, compares against the full forward_infer of the same window.
fn check_stack(channels: usize, window: usize, base_maps: usize) {
    check_net(&varade_stack(channels, window, base_maps), channels, window);
}

/// [`check_stack`] for an already built network.
fn check_net(net: &Sequential, channels: usize, window: usize) {
    let mut cache = net
        .make_incremental_cache(&[1, channels, window])
        .expect("backbone plans an incremental cache");
    let total = 2 * window + 7;
    let mut history: Vec<Vec<f32>> = Vec::new();
    let mut emissions = 0usize;
    for t in 0..total {
        let col: Vec<f32> = (0..channels).map(|c| sample(t, c)).collect();
        history.push(col.clone());
        let step = StreamStep::Column {
            stream: 0,
            values: col,
        };
        let out = net.forward_incremental(step, &mut cache).unwrap();
        if t + 1 < window {
            assert!(
                out.is_none(),
                "emitted before the first window was complete"
            );
            continue;
        }
        let Some(StreamStep::Features(incremental)) = out else {
            panic!("window ending at {t} produced no head output (w={window}, c={channels})");
        };
        emissions += 1;
        // Full recompute of the window ending at `t`.
        let mut data = Vec::with_capacity(channels * window);
        for c in 0..channels {
            for row in &history[t + 1 - window..=t] {
                data.push(row[c]);
            }
        }
        let x = Tensor::from_vec(data, &[1, channels, window]).unwrap();
        let full = net.forward_infer(&x).unwrap();
        assert_eq!(incremental.len(), full.len());
        for (i, (a, b)) in incremental.iter().zip(full.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "bit mismatch at t={t} out={i}: {a} vs {b} (w={window}, c={channels})"
            );
        }
    }
    assert_eq!(emissions, total - window + 1);
}

#[test]
fn incremental_matches_full_recompute_across_windows_channels_and_backends() {
    for &window in &[4usize, 8, 16, 32, 64] {
        for &channels in &[1usize, 2, 3, 5] {
            check_stack(channels, window, 4);
        }
    }
    // The paper's robot shape: 86 channels, window 64, 16 base feature maps
    // and a 172-wide head. The column kernels' full blocks and remainder
    // lanes only both run at widths like these.
    check_stack(86, 64, 16);
}

#[test]
fn packed_column_weights_never_outlive_the_weights_they_were_packed_from() {
    // 9 channels and 16 base maps: every layer has a full 16-lane block, and
    // the 18-wide head a remainder too. Each check_net streams a window
    // through the incremental path (packing every layer) and bit-matches the
    // forward_infer of the weights as they are now.
    let (channels, window) = (9, 16);
    let mut net = varade_stack(channels, window, 16);
    check_net(&net, channels, window);

    // A fit: the training forward packs the weights, and the optimizer step
    // moves them through visit_params, which drops that packing.
    let x = Tensor::from_vec(
        (0..2 * channels * window)
            .map(|i| (i as f32 * 0.21).sin())
            .collect(),
        &[2, channels, window],
    )
    .unwrap();
    let y = net.forward(&x).unwrap();
    net.backward(&y).unwrap();
    check_net(&net, channels, window);
    Sgd::new(0.05).step(&mut net);
    check_net(&net, channels, window);

    // visit_tensors_mut, the way a persisted model loads or perfbench's
    // mirror copies weights in: overwrite with another network's tensors.
    let donor = {
        let mut d = varade_stack(channels, window, 16);
        d.visit_tensors_mut("net", &mut |_, t| *t = t.scale(-0.75));
        d
    };
    let mut donated = Vec::new();
    donor.visit_tensors("net", &mut |_, t| donated.push(t.clone()));
    let mut next = donated.into_iter();
    net.visit_tensors_mut("net", &mut |_, t| *t = next.next().unwrap());
    check_net(&net, channels, window);
}

/// Asserts one k2/s2 column of `conv` over the pair `(a, b)` bit-matches
/// `forward_infer` of the same two-step input.
fn assert_conv_column_exact(conv: &Conv1d, a: &[f32], b: &[f32]) {
    let n = a.len();
    let mut cache = conv.make_incremental_cache(&[1, n, 2]).unwrap();
    let first = StreamStep::Column {
        stream: 0,
        values: a.to_vec(),
    };
    assert!(conv
        .forward_incremental(first, &mut cache)
        .unwrap()
        .is_none());
    let second = StreamStep::Column {
        stream: 0,
        values: b.to_vec(),
    };
    let Some(StreamStep::Column { values, .. }) =
        conv.forward_incremental(second, &mut cache).unwrap()
    else {
        panic!("a pair must emit a column");
    };
    let pairs: Vec<f32> = a.iter().zip(b).flat_map(|(&x, &y)| [x, y]).collect();
    let full = conv
        .forward_infer(&Tensor::from_vec(pairs, &[1, n, 2]).unwrap())
        .unwrap();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&values), bits(full.as_slice()));
}

/// Asserts one column of the dense `head` bit-matches `forward_infer`.
fn assert_linear_column_exact(head: &Linear, x: &[f32]) {
    let mut cache = head.make_incremental_cache(&[1, x.len()]).unwrap();
    let Some(StreamStep::Features(values)) = head
        .forward_incremental(StreamStep::Features(x.to_vec()), &mut cache)
        .unwrap()
    else {
        panic!("a dense layer emits features");
    };
    let full = head
        .forward_infer(&Tensor::from_vec(x.to_vec(), &[1, x.len()]).unwrap())
        .unwrap();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&values), bits(full.as_slice()));
}

#[test]
fn a_clone_keeps_its_packing_consistent_with_its_own_weights() {
    // 40 and 21 outputs: full 16-lane blocks plus remainder lanes.
    let mut rng = StdRng::seed_from_u64(5);
    let mut conv = Conv1d::new(20, 40, 2, 2, 0, &mut rng);
    let mut head = Linear::new(37, 21, &mut rng);
    let a: Vec<f32> = (0..20).map(|i| (i as f32 * 0.7).sin()).collect();
    let b: Vec<f32> = (0..20).map(|i| (i as f32 * 0.3).cos()).collect();
    let x: Vec<f32> = (0..37).map(|i| (i as f32 * 0.41).sin()).collect();
    // Pack, then clone: the clones carry the packing with their weights.
    assert_conv_column_exact(&conv, &a, &b);
    assert_linear_column_exact(&head, &x);
    let conv_clone = conv.clone();
    let head_clone = head.clone();
    // Moving the originals' weights must not leak into the clones, and the
    // originals repack from their new weights.
    conv.visit_tensors_mut("conv", &mut |_, t| *t = t.scale(2.5));
    head.visit_tensors_mut("head", &mut |_, t| *t = t.scale(-1.5));
    for (c, h) in [(&conv, &head), (&conv_clone, &head_clone)] {
        assert_conv_column_exact(c, &a, &b);
        assert_linear_column_exact(h, &x);
    }
}

#[test]
fn misuse_is_rejected_with_typed_errors() {
    let mut rng = StdRng::seed_from_u64(1);
    let conv = Conv1d::new(2, 3, 2, 2, 0, &mut rng);
    // Wrong plan shape.
    assert!(conv.make_incremental_cache(&[2, 2, 8]).is_err());
    assert!(conv.make_incremental_cache(&[1, 3, 8]).is_err());
    let mut cache = conv.make_incremental_cache(&[1, 2, 8]).unwrap();
    // Wrong column width.
    assert!(conv
        .forward_incremental(
            StreamStep::Column {
                stream: 0,
                values: vec![0.0; 3],
            },
            &mut cache,
        )
        .is_err());
    // Feature steps cannot flow into a convolution.
    assert!(conv
        .forward_incremental(StreamStep::Features(vec![0.0; 4]), &mut cache)
        .is_err());
    // A cache planned for one layer kind is refused by another.
    let linear = Linear::new(4, 2, &mut rng);
    assert!(linear
        .forward_incremental(StreamStep::Features(vec![0.0; 4]), &mut cache)
        .is_err());
    // Layers without a streaming path say so: a padded kernel-3 conv, a
    // k2/s2 conv over an odd window (its last column would pair across the
    // window edge), a residual block and the LSTM.
    let padded = Conv1d::new(2, 3, 3, 1, 1, &mut rng);
    assert!(padded.make_incremental_cache(&[1, 2, 8]).is_err());
    assert!(conv.make_incremental_cache(&[1, 2, 7]).is_err());
    let residual = ResidualConvBlock::new(2, 3, &mut rng);
    assert!(residual.make_incremental_cache(&[1, 2, 8]).is_err());
    let lstm = varade_tensor::layers::Lstm::new(2, 3, &mut rng);
    assert!(lstm.make_incremental_cache(&[1, 2, 8]).is_err());
    // Cleared caches re-prime from scratch.
    cache.clear();
    assert!(conv
        .forward_incremental(
            StreamStep::Column {
                stream: 0,
                values: vec![1.0, 2.0],
            },
            &mut cache,
        )
        .unwrap()
        .is_none());
}
