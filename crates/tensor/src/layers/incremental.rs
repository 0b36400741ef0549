//! Parity-phased activation caches for incremental (streaming) inference.
//!
//! A sliding-window detector recomputes its whole backbone on every push even
//! though consecutive windows share all but one sample. For a stride-2
//! backbone the obstacle is alignment: sliding the window by one flips which
//! input pairs each kernel application covers, so the previous push's
//! activations are never directly reusable. The classic fix is to *phase* the
//! cache: keep one cache line per alignment — even/odd at the first layer —
//! and apply the idea recursively, because each convolution's output stream
//! flips its own children's alignment again.
//!
//! Concretely, every kernel-2/stride-2 convolution splits its input stream
//! `s` into two *phase children*: the even child holds `f(s[2j], s[2j+1])`,
//! the odd child holds `f(s[2j+1], s[2j+2])`. A new element `s[t]` completes
//! exactly one pair, `(s[t-1], s[t])` — the even child's when `t` is odd, the
//! odd child's otherwise — so one push propagates exactly **one new output
//! column per layer** down a single path of the phase tree, and the window's
//! rightmost receptive-field frontier is the only thing ever recomputed. The
//! two elements the final [`crate::layers::Flatten`]+[`crate::layers::Linear`]
//! head needs are always the active leaf stream's previous and newest
//! columns, so the head output for the window ending at the pushed sample
//! falls out of the same chain.
//!
//! State per convolution is one remembered column per phase stream (the
//! degenerate ring buffer the pairing needs); the flatten layer keeps the
//! previous `T - 1` columns of each leaf stream.
//!
//! Only the layers VARADE is built from stream: unpadded kernel-2/stride-2
//! convolutions over even time lengths, ReLU, flatten and linear. Anything
//! else — a padded or overlapping convolution, an odd window, a residual
//! block, the LSTM — cannot stream columns exactly, so planning its cache
//! ([`crate::Layer::make_incremental_cache`]) fails with
//! [`TensorError::InvalidInput`] instead of silently falling back to a
//! full recompute. Such models score through
//! [`crate::Layer::forward_infer`] only.
//!
//! # Column kernels
//!
//! A column is one output vector per layer per push, so the incremental path
//! runs matrix-vector products, not the tiled batch kernels: the k2/s2
//! convolution maps the pair `(a, b)` of `in` values to `out` values, the
//! head maps `in` features to `out` values. [`Conv1d`](crate::layers::Conv1d)
//! and [`Linear`](crate::layers::Linear) each run one column kernel over
//! weights packed once per layer, so the innermost loop — and so the SIMD
//! lanes — runs over output channels, 16 at a time:
//!
//! * outputs are split into blocks of 16, and each block is **one contiguous
//!   slab** `[1 + rows, 16]`: its 16 bias lanes, then one 16-lane row per
//!   input — `rows = in · kernel`, row `i·kernel + k` holding `weight[o, i,
//!   k]` for the convolution (`[in, 2, 16]` for k2/s2), row `i` holding
//!   `weight[o, i]` for the head;
//! * the last block is padded with zero bias lanes and zero weights up to
//!   16 lanes, so every block runs the same full-width loop and there is no
//!   remainder loop. Padded lanes are computed and discarded;
//! * each 16-lane row is one `Lanes` value, aligned to its 64-byte cache
//!   line, so a kernel's speed does not depend on where the allocator put
//!   the packing.
//!
//! A block pass therefore reads its slab front to back instead of striding
//! through the whole matrix once per block, which is what bounds a push at
//! the paper's model size, where the weights do not fit in cache.
//!
//! The packing belongs to the layer, so a fitted model behind an `Arc` holds
//! one copy however many streams it serves. It is built on first use and
//! dropped by every `&mut` path that can move the weights or the bias
//! (`visit_params`, `visit_tensors_mut`), so it never outlives the
//! parameters it was packed from.
//!
//! Each output lane starts from its bias and adds the inputs in input
//! order, `o += w0·a + w1·b` per input channel for the k2/s2 convolution
//! (`k2s2_column`) and `o += x·w` per feature for the head
//! (`linear_column`). That is exactly the per-output association of the
//! full-window passes — [`crate::kernels::conv1d_k2s2`] for the
//! convolution, `linear_column` itself, once per row, for the head — only
//! the loop nest is interchanged, and lanes never combine — so the
//! incremental columns are **bit-identical** to the full
//! [`crate::Layer::forward_infer`] pass.
//!
//! Each kernel body is compiled twice, for the baseline target and again
//! with AVX2, and the run-time pick of [`crate::kernels`] runs the wider
//! build when the CPU has AVX2 (see that module's "Builds" section for why
//! the two agree bit for bit). The unit tests in this module compare both
//! builds against a per-output loop. A third build for AVX-512 (one 16-lane
//! register per block) measured no faster than AVX2, so there is none.
//!
//! `linear_column` serves training too. The training forward of
//! [`Linear`](crate::layers::Linear) runs it once per batch row; the
//! training forward of [`Conv1d`](crate::layers::Conv1d), and its inference
//! path for any shape but unpadded k2/s2, runs it once per output position
//! over a row holding the `in · kernel` input taps under that position. So
//! every conv output adds `x·w` **tap by tap**, in `(ic, kk)` order:
//! `o += w0·a` then `o += w1·b`. The k2/s2 kernels (`k2s2_column`,
//! `conv1d_k2s2`) add the two taps of an input channel to each other first,
//! `o += (w0·a + w1·b)`. The two associations round differently in the
//! last bit, so they stay apart: merging them either way would move every
//! trained weight or every served score.

use std::collections::VecDeque;
use std::sync::OnceLock;

use crate::kernels::{builds, KernelBuild};
use crate::TensorError;

/// One unit of work flowing through an incremental pipeline.
#[derive(Debug, Clone)]
pub enum StreamStep {
    /// The newest column of phase stream `stream`: one value per channel.
    /// The root input stream is `stream == 0`; each kernel-2/stride-2
    /// convolution maps stream `s` to its even child `2s` or odd child
    /// `2s + 1` depending on the pair's alignment.
    Column {
        /// Phase-stream identifier at the current depth of the pipeline.
        stream: usize,
        /// The column, one value per channel.
        values: Vec<f32>,
    },
    /// A flattened feature vector (post-[`crate::layers::Flatten`]).
    Features(Vec<f32>),
}

/// Per-layer state for [`crate::Layer::forward_incremental`], created by
/// [`crate::Layer::make_incremental_cache`]. Opaque: callers thread it
/// through, layers interpret it.
#[derive(Debug, Clone)]
pub struct IncrementalCache {
    pub(crate) node: CacheNode,
}

#[derive(Debug, Clone)]
pub(crate) enum CacheNode {
    /// Phase-tree state of one kernel-2/stride-2 convolution.
    ConvK2S2(ConvK2S2Cache),
    /// Stateless element-wise layers (activations).
    Elementwise,
    /// Leaf-stream history of a flatten layer.
    Flatten(FlattenCache),
    /// Stateless dense head.
    Linear,
    /// One child cache per layer of a container.
    Seq(Vec<IncrementalCache>),
}

/// One phase stream's state inside a [`CacheNode::ConvK2S2`].
#[derive(Debug, Clone, Default)]
pub(crate) struct PhaseStream {
    /// The stream's previous column, waiting to pair with the next one.
    pub(crate) prev: Option<Vec<f32>>,
    /// Elements seen on this stream so far.
    pub(crate) seen: u64,
}

#[derive(Debug, Clone)]
pub(crate) struct ConvK2S2Cache {
    /// Phase streams indexed by stream id, grown on demand (a window of
    /// length `W` touches at most `W / 2^{depth+1}`... streams at this depth,
    /// bounded by the ids that actually flow in).
    pub(crate) streams: Vec<PhaseStream>,
}

#[derive(Debug, Clone)]
pub(crate) struct FlattenCache {
    /// Expected input time length (2 for the VARADE backbone).
    pub(crate) time: usize,
    /// Channels per column.
    pub(crate) channels: usize,
    /// Last `time - 1` columns per leaf stream, grown on demand.
    pub(crate) streams: Vec<VecDeque<Vec<f32>>>,
}

impl IncrementalCache {
    pub(crate) fn conv_k2s2() -> Self {
        Self {
            node: CacheNode::ConvK2S2(ConvK2S2Cache {
                streams: Vec::new(),
            }),
        }
    }

    pub(crate) fn elementwise() -> Self {
        Self {
            node: CacheNode::Elementwise,
        }
    }

    pub(crate) fn flatten(channels: usize, time: usize) -> Self {
        Self {
            node: CacheNode::Flatten(FlattenCache {
                time,
                channels,
                streams: Vec::new(),
            }),
        }
    }

    pub(crate) fn linear() -> Self {
        Self {
            node: CacheNode::Linear,
        }
    }

    pub(crate) fn seq(children: Vec<IncrementalCache>) -> Self {
        Self {
            node: CacheNode::Seq(children),
        }
    }

    /// Forgets every buffered column and phase state, returning the cache to
    /// its freshly planned condition (the layer topology it was planned for
    /// is kept). Used to invalidate a cache after anything that changes what
    /// the stream's history would have produced — a model swap, a stream
    /// reset — before re-priming from scratch.
    pub fn clear(&mut self) {
        match &mut self.node {
            CacheNode::ConvK2S2(c) => c.streams.clear(),
            CacheNode::Flatten(f) => f.streams.clear(),
            CacheNode::Seq(children) => children.iter_mut().for_each(IncrementalCache::clear),
            CacheNode::Elementwise | CacheNode::Linear => {}
        }
    }
}

/// A layer's weights and bias repacked for its column kernel (see the
/// module docs): built on first use, dropped with [`PackedColumns::clear`]
/// wherever the parameters can move. A clone carries the packing along with
/// the parameters it was built from.
#[derive(Clone, Default)]
pub(crate) struct PackedColumns(OnceLock<Vec<Lanes>>);

impl PackedColumns {
    /// The packed weights, running `pack` if none are cached.
    pub(crate) fn get_or_pack(&self, pack: impl FnOnce() -> Vec<Lanes>) -> &[Lanes] {
        self.0.get_or_init(pack)
    }

    /// Drops the packed weights; the next column repacks.
    pub(crate) fn clear(&mut self) {
        self.0.take();
    }
}

impl std::fmt::Debug for PackedColumns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.get() {
            Some(packed) => write!(f, "PackedColumns({} values)", packed.len() * BLOCK),
            None => f.write_str("PackedColumns(empty)"),
        }
    }
}

/// Output lanes one register-resident accumulator block covers: four SSE or
/// two AVX vectors of `f32`.
const BLOCK: usize = 16;

/// One 16-lane row of a packed layer: exactly one 64-byte cache line, and
/// aligned to one, so no vector load of either build straddles two lines
/// and a push costs the same wherever the allocator puts the packing. (Rows
/// 16 or 48 bytes past a line split half the AVX2 loads, which made a push
/// slower and its latency tail wider.)
#[derive(Clone, Copy, Default)]
#[repr(C, align(64))]
pub(crate) struct Lanes([f32; BLOCK]);

/// Packs a layer's weight `[out, rows]` and bias `[out]` block-major for
/// the column kernels: output block `b` (outputs `16·b .. 16·b + 16`) is one
/// contiguous slab `[1 + rows, 16]` whose first row is the block's bias and
/// whose row `1 + r` holds `weight[16·b + l, r]` in lane `l`. The last block
/// is padded with zero bias lanes and zero weights up to a full 16 lanes.
pub(crate) fn pack_linear(weight: &[f32], bias: &[f32], rows: usize) -> Vec<Lanes> {
    let out_f = bias.len();
    let slab = 1 + rows;
    let mut packed = vec![Lanes::default(); out_f.div_ceil(BLOCK) * slab];
    for (o, (w_o, &b)) in weight.chunks_exact(rows).zip(bias).enumerate() {
        let (block, lane) = (&mut packed[(o / BLOCK) * slab..], o % BLOCK);
        block[0].0[lane] = b;
        for (r, &w) in w_o.iter().enumerate() {
            block[1 + r].0[lane] = w;
        }
    }
    packed
}

/// One k2/s2 convolution column over `pack_linear(w, b, 2·in)` weights:
/// for every output `o`, `b[o]` plus `w[o, i, 0]·prev[i] + w[o, i,
/// 1]·new[i]` accumulated in input order — the scalar `conv1d_k2s2`
/// association.
pub(crate) fn k2s2_column(packed: &[Lanes], prev: &[f32], new: &[f32], out: &mut [f32]) {
    k2s2_column_on(KernelBuild::host(), packed, prev, new, out);
}

builds!(
    k2s2_column_on,
    k2s2_column_avx2,
    k2s2_column_body(packed: &[Lanes], prev: &[f32], new: &[f32], out: &mut [f32])
);

#[inline(always)]
fn k2s2_column_body(packed: &[Lanes], prev: &[f32], new: &[f32], out: &mut [f32]) {
    for (slab, out) in packed
        .chunks_exact(1 + 2 * prev.len())
        .zip(out.chunks_mut(BLOCK))
    {
        let (bias, taps) = slab.split_first().expect("a slab starts with its bias");
        let (pairs, _) = taps.as_chunks::<2>();
        let mut acc = bias.0;
        for ([Lanes(w0), Lanes(w1)], (&a, &b)) in pairs.iter().zip(prev.iter().zip(new)) {
            for l in 0..BLOCK {
                acc[l] += w0[l] * a + w1[l] * b;
            }
        }
        for (o, v) in out.iter_mut().zip(acc) {
            *o = v;
        }
    }
}

/// One dense column over `pack_linear(w, b, in)` weights: for every output
/// `o`, `b[o]` plus `x[i]·w[o, i]` accumulated in input order — the scalar
/// `linear` association.
pub(crate) fn linear_column(packed: &[Lanes], x: &[f32], out: &mut [f32]) {
    linear_column_on(KernelBuild::host(), packed, x, out);
}

builds!(
    linear_column_on,
    linear_column_avx2,
    linear_column_body(packed: &[Lanes], x: &[f32], out: &mut [f32])
);

#[inline(always)]
fn linear_column_body(packed: &[Lanes], x: &[f32], out: &mut [f32]) {
    for (slab, out) in packed.chunks_exact(1 + x.len()).zip(out.chunks_mut(BLOCK)) {
        let (bias, weights) = slab.split_first().expect("a slab starts with its bias");
        let mut acc = bias.0;
        for (Lanes(w), &xv) in weights.iter().zip(x) {
            for l in 0..BLOCK {
                acc[l] += xv * w[l];
            }
        }
        for (o, v) in out.iter_mut().zip(acc) {
            *o = v;
        }
    }
}

/// The error every layer returns when handed a cache it did not plan.
pub(crate) fn cache_mismatch(layer: &'static str) -> TensorError {
    TensorError::InvalidInput {
        layer,
        reason: "incremental cache was planned for a different layer".into(),
    }
}

/// The error for a step kind a layer cannot consume.
pub(crate) fn step_mismatch(layer: &'static str, got: &StreamStep) -> TensorError {
    let kind = match got {
        StreamStep::Column { .. } => "column",
        StreamStep::Features(_) => "features",
    };
    TensorError::InvalidInput {
        layer,
        reason: format!("incremental step kind `{kind}` is not consumable here"),
    }
}

/// Grows a per-stream vector to cover `stream`, filling with defaults.
pub(crate) fn grow_to<T: Default>(streams: &mut Vec<T>, stream: usize) {
    if stream >= streams.len() {
        streams.resize_with(stream + 1, T::default);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::test_support::{bits, runnable_builds, values};

    /// The shapes the kernels must agree on: a full 16-lane block, a block
    /// plus a padded one, padded blocks only, a single lane and the
    /// window-64 head.
    const SHAPES: [(usize, usize); 5] = [(86, 16), (16, 24), (3, 5), (1, 1), (128, 172)];

    #[test]
    fn linear_column_builds_match_the_per_output_loop_bit_for_bit() {
        for (in_f, out_f) in SHAPES {
            let (weight, bias, x) = (values(out_f * in_f, 1), values(out_f, 2), values(in_f, 3));
            let mut expected = bias.clone();
            for (o, e) in expected.iter_mut().enumerate() {
                for (i, &xv) in x.iter().enumerate() {
                    *e += xv * weight[o * in_f + i];
                }
            }
            let packed = pack_linear(&weight, &bias, in_f);
            for build in runnable_builds() {
                let mut out = vec![f32::NAN; out_f];
                linear_column_on(build, &packed, &x, &mut out);
                assert_eq!(bits(&out), bits(&expected), "{build:?} {in_f}->{out_f}");
            }
        }
    }

    #[test]
    fn k2s2_column_builds_match_the_per_output_loop_bit_for_bit() {
        for (in_c, out_c) in SHAPES {
            let (weight, bias) = (values(out_c * in_c * 2, 4), values(out_c, 5));
            let (prev, new) = (values(in_c, 6), values(in_c, 7));
            let mut expected = bias.clone();
            for (o, e) in expected.iter_mut().enumerate() {
                for i in 0..in_c {
                    let w = &weight[(o * in_c + i) * 2..];
                    *e += w[0] * prev[i] + w[1] * new[i];
                }
            }
            let packed = pack_linear(&weight, &bias, 2 * in_c);
            for build in runnable_builds() {
                let mut out = vec![f32::NAN; out_c];
                k2s2_column_on(build, &packed, &prev, &new, &mut out);
                assert_eq!(bits(&out), bits(&expected), "{build:?} {in_c}->{out_c}");
            }
        }
    }

    #[test]
    fn clear_resets_every_node_kind() {
        let mut conv = IncrementalCache::conv_k2s2();
        if let CacheNode::ConvK2S2(c) = &mut conv.node {
            c.streams.push(PhaseStream {
                prev: Some(vec![1.0; 3]),
                seen: 4,
            });
        }
        let mut flat = IncrementalCache::flatten(2, 2);
        if let CacheNode::Flatten(f) = &mut flat.node {
            f.streams.push(VecDeque::from([vec![1.0, 2.0]]));
        }
        let mut seq = IncrementalCache::seq(vec![conv, flat]);
        seq.clear();
        let CacheNode::Seq(children) = &seq.node else {
            panic!("seq node survived clear");
        };
        for child in children {
            match &child.node {
                CacheNode::ConvK2S2(c) => assert!(c.streams.is_empty()),
                CacheNode::Flatten(f) => assert!(f.streams.is_empty()),
                _ => {}
            }
        }
    }
}
