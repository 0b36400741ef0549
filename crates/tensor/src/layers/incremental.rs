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
//! weights packed once per layer, transposed so the innermost loop — and so
//! the SIMD lanes — runs over output channels:
//!
//! * convolution: `[in, 2, out]`, element `(i, k, o)` = `weight[o, i, k]`;
//! * head: `[in, out]`, element `(i, o)` = `weight[o, i]`.
//!
//! The packing belongs to the layer, so a fitted model behind an `Arc` holds
//! one copy however many streams it serves. It is built on the first column
//! and dropped by every `&mut` path that can move the weights (training
//! `forward`, `visit_params`, `visit_tensors_mut`), so it never outlives
//! the weights it was packed from.
//!
//! Each output lane starts from its bias and adds the inputs in input
//! order, `o += w0·a + w1·b` per input channel for the convolution and
//! `o += x·w` per feature for the head. That is exactly the per-output
//! association of [`crate::kernels::conv1d_k2s2`] and
//! [`crate::kernels::linear`] — only the loop nest is interchanged, and lanes
//! never combine — so the incremental columns are **bit-identical** to the
//! full [`crate::Layer::forward_infer`] pass.

use std::collections::VecDeque;
use std::sync::OnceLock;

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

/// A layer's weights repacked for its column kernel (see the module docs):
/// built on the first incremental call, dropped with
/// [`PackedColumns::clear`] wherever the weights can move. A clone carries
/// the packing along with the weights it was built from.
#[derive(Clone, Default)]
pub(crate) struct PackedColumns(OnceLock<Vec<f32>>);

impl PackedColumns {
    /// The packed weights, running `pack` if none are cached.
    pub(crate) fn get_or_pack(&self, pack: impl FnOnce() -> Vec<f32>) -> &[f32] {
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
            Some(packed) => write!(f, "PackedColumns({} values)", packed.len()),
            None => f.write_str("PackedColumns(empty)"),
        }
    }
}

/// Output lanes one register-resident accumulator block covers: four SSE or
/// two AVX vectors of `f32`.
const BLOCK: usize = 16;

/// Packs a k2/s2 convolution weight `[out, in, 2]` as `[in, 2, out]`.
pub(crate) fn pack_k2s2(weight: &[f32], in_c: usize, out_c: usize) -> Vec<f32> {
    let mut packed = vec![0.0f32; weight.len()];
    for oc in 0..out_c {
        for ic in 0..in_c {
            for k in 0..2 {
                packed[(ic * 2 + k) * out_c + oc] = weight[(oc * in_c + ic) * 2 + k];
            }
        }
    }
    packed
}

/// Packs a dense weight `[out, in]` as `[in, out]`.
pub(crate) fn pack_linear(weight: &[f32], in_f: usize, out_f: usize) -> Vec<f32> {
    let mut packed = vec![0.0f32; weight.len()];
    for o in 0..out_f {
        for i in 0..in_f {
            packed[i * out_f + o] = weight[o * in_f + i];
        }
    }
    packed
}

/// One k2/s2 convolution column over `[in, 2, out]`-packed weights: for
/// every output `o`, `bias[o]` plus `w[o, i, 0]·prev[i] + w[o, i, 1]·new[i]`
/// accumulated in input order — the scalar `conv1d_k2s2` association.
pub(crate) fn k2s2_column(
    packed: &[f32],
    bias: &[f32],
    prev: &[f32],
    new: &[f32],
    out: &mut [f32],
) {
    let out_c = out.len();
    let taps = prev.iter().zip(new);
    let mut start = 0;
    while start + BLOCK <= out_c {
        let mut acc: [f32; BLOCK] = bias[start..start + BLOCK]
            .try_into()
            .expect("block-sized bias slice");
        for (row, (&a, &b)) in packed.chunks_exact(2 * out_c).zip(taps.clone()) {
            let w0 = &row[start..start + BLOCK];
            let w1 = &row[out_c + start..out_c + start + BLOCK];
            for l in 0..BLOCK {
                acc[l] += w0[l] * a + w1[l] * b;
            }
        }
        out[start..start + BLOCK].copy_from_slice(&acc);
        start += BLOCK;
    }
    // Remainder lanes: the same association, one output at a time.
    let tail = &mut out[start..];
    tail.copy_from_slice(&bias[start..]);
    for (row, (&a, &b)) in packed.chunks_exact(2 * out_c).zip(taps) {
        let w0 = &row[start..out_c];
        let w1 = &row[out_c + start..];
        for ((o, &w0), &w1) in tail.iter_mut().zip(w0).zip(w1) {
            *o += w0 * a + w1 * b;
        }
    }
}

/// One dense column over `[in, out]`-packed weights: for every output `o`,
/// `bias[o]` plus `x[i]·w[o, i]` accumulated in input order — the scalar
/// `linear` association.
pub(crate) fn linear_column(packed: &[f32], bias: &[f32], x: &[f32], out: &mut [f32]) {
    let out_f = out.len();
    let mut start = 0;
    while start + BLOCK <= out_f {
        let mut acc: [f32; BLOCK] = bias[start..start + BLOCK]
            .try_into()
            .expect("block-sized bias slice");
        for (row, &xv) in packed.chunks_exact(out_f).zip(x) {
            let w = &row[start..start + BLOCK];
            for l in 0..BLOCK {
                acc[l] += xv * w[l];
            }
        }
        out[start..start + BLOCK].copy_from_slice(&acc);
        start += BLOCK;
    }
    let tail = &mut out[start..];
    tail.copy_from_slice(&bias[start..]);
    for (row, &xv) in packed.chunks_exact(out_f).zip(x) {
        for (o, &w) in tail.iter_mut().zip(&row[start..]) {
            *o += xv * w;
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
