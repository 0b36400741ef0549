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
//! Every cache node owns the buffers its layer writes: the convolution its
//! remembered columns (a new column is copied in) and its output column,
//! an activation its output, the flatten layer a fixed ring per leaf
//! stream and its feature vector, the head its output. The served push
//! runs [`crate::Layer::step_incremental`], whose [`StepRef`] steps borrow
//! those buffers, so once every phase stream has been seen a push makes no
//! heap allocation. [`crate::Layer::forward_incremental`] is the same step
//! on owned [`StreamStep`]s.
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
//! The kernels are **register-tiled** over output blocks: one pass over the
//! inputs advances a tile of `G` blocks, broadcasting each input once and
//! adding it into `G` independent accumulator blocks, then the next tile;
//! the last tile takes the blocks left over. One block alone is one
//! dependent chain of adds per lane, so its pass waits on the add's latency
//! (about 1 ns per input row at the head's 128 × 172) while the FP ports
//! idle; `G` chains keep them busy. Each kernel writes whole blocks, so its
//! output buffer is `column_len` long and the padded lanes are scratch.
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
//! Each kernel body is compiled for the baseline target, again with AVX2
//! and again with AVX-512, and the run-time pick of [`crate::kernels`] runs
//! the widest build the CPU has (see that module's "Builds" section for why
//! they agree bit for bit). Each build has its own tile width, chosen by
//! measurement: three blocks for the baseline (four spill SSE2's 16
//! registers), four for AVX2 (eight `ymm` chains) and four for AVX-512,
//! where one block is one `zmm` register. Untiled, the AVX-512 build was
//! no faster than AVX2, since both waited on the same chain of adds; tiled,
//! it takes the head from about 1.0 µs (AVX2, tiled) to 0.7 µs. The unit
//! tests in this module compare every build the CPU runs against a
//! per-output loop, at every tile remainder.
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

use std::sync::OnceLock;

use crate::kernels::{builds, KernelBuild};
use crate::TensorError;

/// One unit of work flowing through an incremental pipeline, owning its
/// values: what [`crate::Layer::forward_incremental`] takes and returns.
/// The served path passes the borrowed [`StepRef`] instead.
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

impl StreamStep {
    /// The step with its values borrowed.
    pub fn as_step_ref(&self) -> StepRef<'_> {
        match self {
            StreamStep::Column { stream, values } => StepRef::Column {
                stream: *stream,
                values,
            },
            StreamStep::Features(values) => StepRef::Features(values),
        }
    }
}

/// A [`StreamStep`] whose values are borrowed: from the caller's sample for
/// the pipeline's input, from the cache of the layer that computed them
/// otherwise. What [`crate::Layer::step_incremental`] takes and returns, so
/// a primed push moves no values through the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepRef<'a> {
    /// As [`StreamStep::Column`].
    Column {
        /// Phase-stream identifier at the current depth of the pipeline.
        stream: usize,
        /// The column, one value per channel.
        values: &'a [f32],
    },
    /// As [`StreamStep::Features`].
    Features(&'a [f32]),
}

impl StepRef<'_> {
    /// The step's values.
    pub fn values(&self) -> &[f32] {
        match self {
            StepRef::Column { values, .. } | StepRef::Features(values) => values,
        }
    }

    /// The step with its values copied out.
    pub fn to_stream_step(&self) -> StreamStep {
        match *self {
            StepRef::Column { stream, values } => StreamStep::Column {
                stream,
                values: values.to_vec(),
            },
            StepRef::Features(values) => StreamStep::Features(values.to_vec()),
        }
    }
}

/// Per-layer state for [`crate::Layer::forward_incremental`], created by
/// [`crate::Layer::make_incremental_cache`]. Opaque: callers thread it
/// through, layers interpret it.
///
/// Every node owns the buffers its layer writes — a convolution's
/// remembered columns and output column, an activation's output, the
/// flatten history and feature vector, the head output — and reuses them
/// on every push. Once each phase stream has been seen, a push allocates
/// nothing, and [`IncrementalCache::clear`] keeps the buffers for the next
/// priming.
#[derive(Debug, Clone)]
pub struct IncrementalCache {
    pub(crate) node: CacheNode,
}

#[derive(Debug, Clone)]
pub(crate) enum CacheNode {
    /// Phase-tree state of one kernel-2/stride-2 convolution.
    ConvK2S2(ConvK2S2Cache),
    /// An element-wise layer's (activation's) output.
    Elementwise(Vec<f32>),
    /// Leaf-stream history of a flatten layer.
    Flatten(FlattenCache),
    /// A dense head's output, [`column_len`] long.
    Linear(Vec<f32>),
    /// One child cache per layer of a container.
    Seq(Vec<IncrementalCache>),
}

/// One phase stream's state inside a [`CacheNode::ConvK2S2`].
#[derive(Debug, Clone, Default)]
pub(crate) struct PhaseStream {
    /// The stream's previous column, waiting to pair with the next one;
    /// meaningful once `seen > 0`.
    pub(crate) prev: Vec<f32>,
    /// Elements seen on this stream so far.
    pub(crate) seen: u64,
}

#[derive(Debug, Clone)]
pub(crate) struct ConvK2S2Cache {
    /// Phase streams indexed by stream id, grown as ids first flow in (a
    /// window of length `W` reaching a convolution at time length `T`
    /// carries `W / T` of them).
    pub(crate) streams: Vec<PhaseStream>,
    /// The newest output column, [`column_len`] long.
    pub(crate) out: Vec<f32>,
}

#[derive(Debug, Clone)]
pub(crate) struct FlattenCache {
    /// Expected input time length (2 for the VARADE backbone).
    pub(crate) time: usize,
    /// Channels per column.
    pub(crate) channels: usize,
    /// The last `time - 1` columns of each leaf stream, grown on demand.
    pub(crate) streams: Vec<LeafHistory>,
    /// The newest feature vector, `channels · time` long.
    pub(crate) features: Vec<f32>,
}

/// A leaf stream's last `time - 1` columns: a ring of whole columns.
#[derive(Debug, Clone, Default)]
pub(crate) struct LeafHistory {
    /// `time - 1` columns back to back, allocated on the stream's first
    /// column.
    pub(crate) columns: Vec<f32>,
    /// Columns held, up to `time - 1`.
    pub(crate) len: usize,
    /// The ring slot of the oldest column once full.
    pub(crate) oldest: usize,
}

impl IncrementalCache {
    pub(crate) fn conv_k2s2(out_channels: usize) -> Self {
        Self {
            node: CacheNode::ConvK2S2(ConvK2S2Cache {
                streams: Vec::new(),
                out: vec![0.0; column_len(out_channels)],
            }),
        }
    }

    pub(crate) fn elementwise() -> Self {
        Self {
            node: CacheNode::Elementwise(Vec::new()),
        }
    }

    pub(crate) fn flatten(channels: usize, time: usize) -> Self {
        Self {
            node: CacheNode::Flatten(FlattenCache {
                time,
                channels,
                streams: Vec::new(),
                features: vec![0.0; channels * time],
            }),
        }
    }

    pub(crate) fn linear(out_features: usize) -> Self {
        Self {
            node: CacheNode::Linear(vec![0.0; column_len(out_features)]),
        }
    }

    pub(crate) fn seq(children: Vec<IncrementalCache>) -> Self {
        Self {
            node: CacheNode::Seq(children),
        }
    }

    /// Forgets every buffered column and phase state, returning the cache to
    /// its freshly planned condition (the layer topology it was planned for
    /// is kept, and so are its buffers). Used to invalidate a cache after
    /// anything that changes what the stream's history would have produced
    /// — a model swap, a stream reset — before re-priming from scratch.
    pub fn clear(&mut self) {
        match &mut self.node {
            CacheNode::ConvK2S2(c) => c.streams.iter_mut().for_each(|s| s.seen = 0),
            CacheNode::Flatten(f) => f.streams.iter_mut().for_each(|s| {
                s.len = 0;
                s.oldest = 0;
            }),
            CacheNode::Seq(children) => children.iter_mut().for_each(IncrementalCache::clear),
            CacheNode::Elementwise(_) | CacheNode::Linear(_) => {}
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

/// Output lanes one register-resident accumulator block covers: four SSE,
/// two AVX or one AVX-512 vector of `f32`.
const BLOCK: usize = 16;

/// The length of a column kernel's output buffer for `outputs` outputs:
/// whole 16-lane blocks, so every block stores its lanes with one
/// full-width write (the padded lanes are scratch).
pub(crate) fn column_len(outputs: usize) -> usize {
    outputs.div_ceil(BLOCK) * BLOCK
}

/// One 16-lane row of a packed layer: exactly one 64-byte cache line, and
/// aligned to one, so no vector load of any build straddles two lines
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
/// association. `out` is [`column_len`] long.
pub(crate) fn k2s2_column(packed: &[Lanes], prev: &[f32], new: &[f32], out: &mut [f32]) {
    k2s2_column_on(KernelBuild::host(), packed, prev, new, out);
}

builds!(
    k2s2_column_on,
    k2s2_column_body(packed: &[Lanes], prev: &[f32], new: &[f32], out: &mut [f32]),
    tiles = [3, 4, 4],
);

#[inline(always)]
fn k2s2_column_body<const G: usize>(packed: &[Lanes], prev: &[f32], new: &[f32], out: &mut [f32]) {
    let blocks = packed.len() / (1 + 2 * prev.len());
    for_each_tile::<G>(
        blocks,
        &mut K2S2Tiles {
            packed,
            prev,
            new,
            out,
        },
    );
}

struct K2S2Tiles<'a> {
    packed: &'a [Lanes],
    prev: &'a [f32],
    new: &'a [f32],
    out: &'a mut [f32],
}

impl Tiles for K2S2Tiles<'_> {
    #[inline(always)]
    fn tile<const N: usize>(&mut self, first: usize) {
        let (mut acc, weights) = tile_slabs::<N>(self.packed, first, 1 + 2 * self.prev.len());
        let taps = weights.map(|w| w.as_chunks::<2>().0);
        for (i, (&a, &b)) in self.prev.iter().zip(self.new).enumerate() {
            for g in 0..N {
                let [Lanes(w0), Lanes(w1)] = &taps[g][i];
                for l in 0..BLOCK {
                    acc[g][l] += w0[l] * a + w1[l] * b;
                }
            }
        }
        store(acc, first, self.out);
    }
}

/// One dense column over `pack_linear(w, b, in)` weights: for every output
/// `o`, `b[o]` plus `x[i]·w[o, i]` accumulated in input order — the scalar
/// `linear` association. `out` is [`column_len`] long.
pub(crate) fn linear_column(packed: &[Lanes], x: &[f32], out: &mut [f32]) {
    linear_column_on(KernelBuild::host(), packed, x, out);
}

builds!(
    linear_column_on,
    linear_column_body(packed: &[Lanes], x: &[f32], out: &mut [f32]),
    tiles = [3, 4, 4],
);

#[inline(always)]
fn linear_column_body<const G: usize>(packed: &[Lanes], x: &[f32], out: &mut [f32]) {
    let blocks = packed.len() / (1 + x.len());
    for_each_tile::<G>(blocks, &mut LinearTiles { packed, x, out });
}

struct LinearTiles<'a> {
    packed: &'a [Lanes],
    x: &'a [f32],
    out: &'a mut [f32],
}

impl Tiles for LinearTiles<'_> {
    #[inline(always)]
    fn tile<const N: usize>(&mut self, first: usize) {
        let (mut acc, weights) = tile_slabs::<N>(self.packed, first, 1 + self.x.len());
        for (i, &xv) in self.x.iter().enumerate() {
            for g in 0..N {
                let Lanes(w) = &weights[g][i];
                for l in 0..BLOCK {
                    acc[g][l] += xv * w[l];
                }
            }
        }
        store(acc, first, self.out);
    }
}

/// A column kernel's pass over `N` consecutive output blocks
/// (`k2s2_column`, `linear_column`).
trait Tiles {
    /// Computes blocks `first .. first + N` into their outputs.
    fn tile<const N: usize>(&mut self, first: usize);
}

/// Runs `kernel` over `blocks` blocks, `G` at a time, then over the fewer
/// than `G` left as one narrower tile.
#[inline(always)]
fn for_each_tile<const G: usize>(blocks: usize, kernel: &mut impl Tiles) {
    const { assert!(G >= 1 && G <= 8, "tiles span one to eight blocks") };
    let mut first = 0;
    while blocks - first >= G {
        kernel.tile::<G>(first);
        first += G;
    }
    match blocks - first {
        0 => {}
        1 => kernel.tile::<1>(first),
        2 => kernel.tile::<2>(first),
        3 => kernel.tile::<3>(first),
        4 => kernel.tile::<4>(first),
        5 => kernel.tile::<5>(first),
        6 => kernel.tile::<6>(first),
        _ => kernel.tile::<7>(first),
    }
}

/// The accumulators of blocks `first .. first + N`, each starting at its
/// bias lanes, and the blocks' weight rows; a block's slab is `slab` rows.
#[inline(always)]
fn tile_slabs<const N: usize>(
    packed: &[Lanes],
    first: usize,
    slab: usize,
) -> ([[f32; BLOCK]; N], [&[Lanes]; N]) {
    let slabs: [&[Lanes]; N] = std::array::from_fn(|g| &packed[(first + g) * slab..][..slab]);
    (
        std::array::from_fn(|g| slabs[g][0].0),
        std::array::from_fn(|g| &slabs[g][1..]),
    )
}

/// Writes a tile's accumulators to the outputs of blocks `first ..`: whole
/// 16-lane blocks, padded lanes included.
#[inline(always)]
fn store<const N: usize>(acc: [[f32; BLOCK]; N], first: usize, out: &mut [f32]) {
    for (g, acc) in acc.iter().enumerate() {
        out[(first + g) * BLOCK..][..BLOCK].copy_from_slice(acc);
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
pub(crate) fn step_mismatch(layer: &'static str, got: &StepRef<'_>) -> TensorError {
    let kind = match got {
        StepRef::Column { .. } => "column",
        StepRef::Features(_) => "features",
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

    /// The `(in, out)` shapes the kernels must agree on: a full 16-lane
    /// block, a block plus a padded one, padded blocks only, a single lane,
    /// the window-64 head (11 blocks) and every count of 1 to 9 blocks, so
    /// each build's tiles leave every remainder, with a full or a padded
    /// last block.
    fn shapes() -> Vec<(usize, usize)> {
        let mut shapes = vec![(86, 16), (16, 24), (3, 5), (1, 1), (128, 172)];
        shapes.extend((1..=9).map(|blocks| (5 + blocks, 16 * blocks - (blocks % 2) * 7)));
        shapes
    }

    /// `out` after a kernel wrote its [`column_len`] buffer: the outputs,
    /// without the padded lanes.
    fn run(out: usize, kernel: impl FnOnce(&mut [f32])) -> Vec<f32> {
        let mut column = vec![f32::NAN; column_len(out)];
        kernel(&mut column);
        column.truncate(out);
        column
    }

    #[test]
    fn linear_column_builds_match_the_per_output_loop_bit_for_bit() {
        let builds = runnable_builds();
        for (in_f, out_f) in shapes() {
            let (weight, bias, x) = (values(out_f * in_f, 1), values(out_f, 2), values(in_f, 3));
            let mut expected = bias.clone();
            for (o, e) in expected.iter_mut().enumerate() {
                for (i, &xv) in x.iter().enumerate() {
                    *e += xv * weight[o * in_f + i];
                }
            }
            let packed = pack_linear(&weight, &bias, in_f);
            for &build in &builds {
                let out = run(out_f, |out| linear_column_on(build, &packed, &x, out));
                assert_eq!(bits(&out), bits(&expected), "{build:?} {in_f}->{out_f}");
            }
        }
    }

    #[test]
    fn k2s2_column_builds_match_the_per_output_loop_bit_for_bit() {
        let builds = runnable_builds();
        for (in_c, out_c) in shapes() {
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
            for &build in &builds {
                let out = run(out_c, |out| {
                    k2s2_column_on(build, &packed, &prev, &new, out)
                });
                assert_eq!(bits(&out), bits(&expected), "{build:?} {in_c}->{out_c}");
            }
        }
    }

    #[test]
    fn clear_resets_every_node_kind() {
        let mut conv = IncrementalCache::conv_k2s2(2);
        if let CacheNode::ConvK2S2(c) = &mut conv.node {
            c.streams.push(PhaseStream {
                prev: vec![1.0; 3],
                seen: 4,
            });
        }
        let mut flat = IncrementalCache::flatten(2, 3);
        if let CacheNode::Flatten(f) = &mut flat.node {
            f.streams.push(LeafHistory {
                columns: vec![1.0, 2.0, 3.0, 4.0],
                len: 2,
                oldest: 1,
            });
        }
        let mut seq = IncrementalCache::seq(vec![conv, flat]);
        seq.clear();
        let CacheNode::Seq(children) = &seq.node else {
            panic!("seq node survived clear");
        };
        for child in children {
            match &child.node {
                CacheNode::ConvK2S2(c) => {
                    assert!(c.streams.iter().all(|s| s.seen == 0));
                    assert_eq!(c.streams[0].prev.capacity(), 3);
                }
                CacheNode::Flatten(f) => {
                    assert!(f.streams.iter().all(|s| s.len == 0 && s.oldest == 0));
                    assert_eq!(f.streams[0].columns.capacity(), 4);
                }
                _ => {}
            }
        }
    }
}
