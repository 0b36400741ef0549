//! Streaming front-end for real-time edge inference.
//!
//! The autoregressive design of VARADE "is naturally suited to handle
//! streaming data with minimal latency" (paper §3.1): every new sample slides
//! the context window by one and yields a new anomaly score. This module wraps
//! a fitted [`VaradeDetector`] behind a push-based API that mirrors the
//! inference script running on the Jetson boards (§4.3).

use std::time::Duration;

use varade_obs::spanclock::SpanStamp;
use varade_timeseries::{MinMaxNormalizer, SeriesError, StreamingWindow};

use crate::{EncoderCache, VaradeDetector, VaradeError};

/// Cumulative timing of the work done by [`StreamingVarade::push`], the
/// instrumentation hook behind the `varade-bench` throughput experiments.
///
/// The model-scoring time is recorded separately from the total push time so
/// that the bookkeeping overhead (normalization, window buffering) stays
/// visible next to the model's incremental columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PushStats {
    /// Samples pushed so far (including warm-up samples).
    pub pushes: u64,
    /// Scores produced so far (pushes after warm-up).
    pub scores: u64,
    /// Wall-clock time spent inside the whole `push` path.
    pub total_time: Duration,
    /// Wall-clock time spent in the model's scoring forward pass alone.
    pub scoring_time: Duration,
    /// Wall-clock time spent in the normalizer transform (zero for a stream
    /// without a normalizer). Accumulated only when per-stage timing is on
    /// (see [`StreamState::set_stage_timing`]); zero otherwise.
    pub normalize_time: Duration,
    /// Wall-clock time spent on the rest of admission: checking and copying
    /// the sample, writing it into the window ring, and copying the context
    /// window out where one is built — for [`StreamState::admit`]'s
    /// [`ScoreRequest`], never for a primed incremental push (a cold replay
    /// builds it inside the scoring span). Accumulated only when per-stage
    /// timing is on; zero otherwise.
    pub assembly_time: Duration,
}

impl PushStats {
    /// Mean latency of one scoring forward pass, `None` before the first
    /// score.
    ///
    /// The division goes through `f64` rather than `Duration / u32`: merged
    /// fleet accumulators can legitimately exceed `u32::MAX` scores, where a
    /// truncating cast would silently divide by the wrong count — or wrap to
    /// zero and panic.
    pub fn mean_scoring_latency(&self) -> Option<Duration> {
        (self.scores > 0)
            .then(|| Duration::from_secs_f64(self.scoring_time.as_secs_f64() / self.scores as f64))
    }

    /// Overall push throughput in samples per second, `None` until any time
    /// has been accumulated.
    pub fn samples_per_sec(&self) -> Option<f64> {
        let secs = self.total_time.as_secs_f64();
        (secs > 0.0).then(|| self.pushes as f64 / secs)
    }

    /// Folds another accumulator into this one — the aggregation primitive
    /// behind multi-stream stats: per-stream `PushStats` merge into per-shard
    /// totals, per-shard totals into a fleet-wide figure. Counters and times
    /// add; merging is commutative and [`PushStats::default`] is its identity.
    ///
    /// Note that merged *times* are summed CPU time across streams, so
    /// [`PushStats::samples_per_sec`] on a merged value is per-core
    /// throughput; aggregate wall-clock throughput must divide by elapsed
    /// wall time instead (the fleet stats do).
    pub fn merge(&mut self, other: &PushStats) {
        self.pushes += other.pushes;
        self.scores += other.scores;
        self.total_time += other.total_time;
        self.scoring_time += other.scoring_time;
        self.normalize_time += other.normalize_time;
        self.assembly_time += other.assembly_time;
    }
}

/// One pending scoring job produced by [`StreamState::admit`]: the context
/// window that was live when the sample arrived, and the (normalized) sample
/// itself. The score of the pair is the anomaly score of the sample.
///
/// Building one copies the whole context window out of the stream's ring;
/// the incremental push path ([`StreamState::push_timed`]) never does.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreRequest {
    /// Channel-major context window (`[channels * window]` values).
    pub context: Vec<f32>,
    /// The normalized sample that followed the context, one value per channel.
    pub row: Vec<f32>,
}

/// The cheap per-stream half of a streaming scorer: normalizer, window
/// buffer, pending context and [`PushStats`] — everything *except* the model.
///
/// [`StreamingVarade`] pairs one `StreamState` with an owned detector for the
/// single-stream case; the fleet engine keeps one `StreamState` per logical
/// stream (a few KB each) against a single shared `Arc<VaradeDetector>`, so
/// admitting a thousand streams costs buffer memory, not model copies.
#[derive(Debug, Clone)]
pub struct StreamState {
    normalizer: Option<MinMaxNormalizer>,
    /// The last `window` normalized samples. A sample joins it only after it
    /// has been scored against it, so between pushes it is exactly the
    /// context of the next sample.
    buffer: StreamingWindow,
    /// The newest admitted sample, normalized — scratch reused by every push.
    row: Vec<f32>,
    stats: PushStats,
    /// Whether pushes time the normalize/assembly stages individually (see
    /// [`StreamState::set_stage_timing`]); off by default so the untimed hot
    /// path carries no extra clock reads.
    stage_timing: bool,
    /// Parity-phased activation cache for the incremental scoring path:
    /// `None` until the first scored push plans it from the detector it
    /// scores against, and again after every invalidation.
    cache: Option<EncoderCache>,
    /// The model version (see the fleet's per-group slots) this stream's
    /// cache was last validated against; `0` means "never synced".
    model_version: u64,
}

impl StreamState {
    /// Creates the state for one stream of `n_channels`-wide samples scored
    /// against `window`-length contexts. Pass the training
    /// [`MinMaxNormalizer`] to normalize raw samples on the fly, or `None`
    /// if the stream is already normalized.
    ///
    /// # Errors
    ///
    /// Returns [`VaradeError::Series`] if `n_channels` or `window` is zero.
    pub fn new(
        n_channels: usize,
        window: usize,
        normalizer: Option<MinMaxNormalizer>,
    ) -> Result<Self, VaradeError> {
        Ok(Self {
            normalizer,
            buffer: StreamingWindow::new(n_channels, window)?,
            row: Vec::with_capacity(n_channels),
            stats: PushStats::default(),
            stage_timing: false,
            cache: None,
            model_version: 0,
        })
    }

    /// Drops the stream's [`EncoderCache`], if any: the next scored push
    /// plans a fresh one from the detector it scores against, then replays
    /// its context window to prime it under whatever model is current.
    ///
    /// This is the **single** invalidation point shared by every path that
    /// changes what the cache's history would have produced — a model hot
    /// swap ([`StreamingVarade::swap_detector`], the fleet's `publish_model`
    /// pickup) — so no caller can forget half the bookkeeping and score a
    /// new model against columns computed under an old one.
    pub fn invalidate_cache(&mut self) {
        self.cache = None;
    }

    /// The model version this stream last synced its cache against (`0`
    /// before the first [`StreamState::sync_model_version`]).
    pub fn model_version(&self) -> u64 {
        self.model_version
    }

    /// Records that this stream now scores against model `version`,
    /// invalidating the cache (via [`StreamState::invalidate_cache`]) when
    /// the version actually changed. Returns `true` on a change — the fleet
    /// shards trace it as a cache invalidation at the round boundary where
    /// they pick the new model up.
    pub fn sync_model_version(&mut self, version: u64) -> bool {
        if self.model_version == version {
            return false;
        }
        self.invalidate_cache();
        self.model_version = version;
        true
    }

    /// Replaces the stream's cache with `cache` (planned by
    /// [`VaradeDetector::incremental_cache`] for the detector the stream
    /// scores against). A stream plans its own on its first scored push, so
    /// this only hands it a particular one. A cache whose last ingested
    /// sample is not the window's newest is replayed, not trusted, so
    /// attaching mid-stream is safe.
    pub fn attach_cache(&mut self, cache: EncoderCache) {
        self.cache = Some(cache);
    }

    /// Read access to the stream's cache: `None` before its first scored
    /// push and after an invalidation.
    pub fn cache(&self) -> Option<&EncoderCache> {
        self.cache.as_ref()
    }

    /// Number of channels per sample.
    pub fn n_channels(&self) -> usize {
        self.buffer.n_channels()
    }

    /// Cumulative push/scoring timing since construction (or the last
    /// [`StreamState::reset_stats`]).
    pub fn stats(&self) -> PushStats {
        self.stats
    }

    /// Clears the timing accumulator; the window buffer keeps its history.
    pub fn reset_stats(&mut self) {
        self.stats = PushStats::default();
    }

    /// Normalizes one raw sample, hands back the [`ScoreRequest`] pairing it
    /// with the context that was live when it arrived (once the warm-up is
    /// over), and slides the window. The caller scores the request itself —
    /// e.g. through [`VaradeDetector::score_window_incremental`] against a
    /// cache of its own — and folds the timing back in through
    /// [`StreamState::record`]. The stream's own cache never sees it.
    ///
    /// Every request carries a fresh copy of the whole context window. A
    /// caller with a detector at hand should use [`StreamState::push_timed`]
    /// (or [`StreamState::push_against`]), whose incremental path copies
    /// nothing but the new row.
    ///
    /// With per-stage timing on ([`StreamState::set_stage_timing`]) the
    /// admission is split into [`PushStats::normalize_time`] (the
    /// normalizer transform; zero without a normalizer) and
    /// [`PushStats::assembly_time`] (everything else: sample checks, ring
    /// write and context copy-out). With it off, the default, admission
    /// reads no clock at all.
    ///
    /// # Errors
    ///
    /// Returns [`VaradeError::Series`] if the sample width does not match the
    /// channel count, or if a value is NaN or infinite
    /// ([`SeriesError::NonFiniteValue`], whose `step` is the stream's sample
    /// index). A rejected sample reaches neither the window nor the cache.
    pub fn admit(&mut self, sample: &[f32]) -> Result<Option<ScoreRequest>, VaradeError> {
        let started = self.stage_timing.then(SpanStamp::now);
        let (due, normalize) = self.admit_row(sample)?;
        let request = due.then(|| ScoreRequest {
            context: self
                .buffer
                .to_window()
                .expect("a sample is due a score only behind a full window"),
            row: self.row.clone(),
        });
        self.commit_row();
        if let Some(started) = started {
            self.stats.normalize_time += normalize;
            self.stats.assembly_time += SpanStamp::now()
                .duration_since(started)
                .saturating_sub(normalize);
        }
        Ok(request)
    }

    /// The admission body every push shares: checks the raw sample, copies
    /// it into the scratch row and normalizes it there. Returns whether a
    /// full context window precedes the sample, i.e. whether it is due a
    /// score, and the normalizer's time (zero unless stage timing is on and
    /// the stream has a normalizer), for the caller to account. Neither the
    /// window nor the cache sees the sample yet: the caller scores it
    /// against the window first, then [`StreamState::commit_row`]s it.
    fn admit_row(&mut self, sample: &[f32]) -> Result<(bool, Duration), VaradeError> {
        let expected = self.buffer.n_channels();
        if sample.len() != expected {
            return Err(SeriesError::ChannelCountMismatch {
                expected,
                got: sample.len(),
            }
            .into());
        }
        if let Some(channel) = sample.iter().position(|v| !v.is_finite()) {
            return Err(SeriesError::NonFiniteValue {
                step: usize::try_from(self.buffer.samples_seen()).unwrap_or(usize::MAX),
                channel,
            }
            .into());
        }
        self.row.clear();
        self.row.extend_from_slice(sample);
        let mut normalize = Duration::ZERO;
        if let Some(norm) = &self.normalizer {
            let started = self.stage_timing.then(SpanStamp::now);
            norm.transform_row(&mut self.row)?;
            if let Some(started) = started {
                normalize = SpanStamp::now().duration_since(started);
            }
        }
        Ok((self.buffer.is_full(), normalize))
    }

    /// Slides the window by the admitted row: one value per channel.
    fn commit_row(&mut self) {
        self.buffer
            .push_row(&self.row)
            .expect("admitted rows have the window's width");
    }

    /// Switches per-stage admission timing on or off: when on, every
    /// [`StreamState::admit`] (and so every push) splits its cost into
    /// [`PushStats::normalize_time`] and [`PushStats::assembly_time`].
    pub fn set_stage_timing(&mut self, on: bool) {
        if on {
            // Pay the span-clock calibration now, not inside the first
            // timed push.
            varade_obs::spanclock::warm();
        }
        self.stage_timing = on;
    }

    /// Whether per-stage admission timing is on.
    pub fn stage_timing(&self) -> bool {
        self.stage_timing
    }

    /// Folds one completed push into the stats: `scored` says whether the
    /// push produced a score, `total_time` covers the whole push path and
    /// `scoring_time` the model forward alone (zero for warm-up pushes).
    pub fn record(&mut self, scored: bool, total_time: Duration, scoring_time: Duration) {
        self.stats.pushes += 1;
        if scored {
            self.stats.scores += 1;
            self.stats.scoring_time += scoring_time;
        }
        self.stats.total_time += total_time;
    }

    /// One-stop push against a fitted detector — the whole body of
    /// [`StreamingVarade::push`]: [`StreamState::push_timed`], then
    /// [`StreamState::record`].
    ///
    /// # Errors
    ///
    /// As [`StreamState::push_timed`].
    pub fn push_against(
        &mut self,
        sample: &[f32],
        detector: &VaradeDetector,
    ) -> Result<Option<f32>, VaradeError> {
        let pushed = self.push_timed(sample, detector, SpanStamp::now())?;
        self.record(
            pushed.score.is_some(),
            pushed.admit_time + pushed.scoring_time,
            pushed.scoring_time,
        );
        Ok(pushed.score)
    }

    /// Admits one raw sample and scores it against `detector`, without
    /// recording it in the stats — the push path shared by
    /// [`StreamingVarade::push`] (through [`StreamState::push_against`]) and
    /// the fleet shards, which record the returned split themselves.
    ///
    /// The push is timed from `started`, a stamp the caller reads just
    /// before the call — or one it already holds for the sample, so that a
    /// fleet shard's pop stamp also opens the push span. The push itself
    /// reads the clock three times: admission end, scoring end and push end
    /// ([`TimedPush::finished`], which a caller can reuse as the next span's
    /// start).
    ///
    /// Every score goes through the stream's [`EncoderCache`]. The first
    /// scored push after creation or an invalidation plans one from
    /// `detector` and primes it by replaying the context window; after that
    /// a push touches only the new row: it is checked and normalized, the
    /// cache's last ingested sample is compared with the window's newest (one
    /// value per channel), one column per layer is computed, and the row is
    /// written into the window ring.
    ///
    /// # Errors
    ///
    /// Returns [`VaradeError::Series`] for a wrong sample width or a NaN or
    /// infinite value (see [`StreamState::admit`]) — before anything is
    /// scored — and whatever the detector's scoring path produces. A scoring
    /// error still slides the window, as a push through
    /// [`StreamState::admit`] would.
    pub fn push_timed(
        &mut self,
        sample: &[f32],
        detector: &VaradeDetector,
        started: SpanStamp,
    ) -> Result<TimedPush, VaradeError> {
        let (due, normalize_time) = self.admit_row(sample)?;
        let admitted = SpanStamp::now();
        let score = due.then(|| {
            let cache = match &mut self.cache {
                Some(cache) => cache,
                slot @ None => slot.insert(detector.incremental_cache()?),
            };
            detector.score_next_incremental(cache, &self.buffer, &self.row)
        });
        let scored = SpanStamp::now();
        self.commit_row();
        let finished = SpanStamp::now();
        let admit_time = admitted.duration_since(started) + finished.duration_since(scored);
        if self.stage_timing {
            self.stats.normalize_time += normalize_time;
            self.stats.assembly_time += admit_time.saturating_sub(normalize_time);
        }
        Ok(TimedPush {
            score: score.transpose()?,
            admit_time,
            normalize_time,
            scoring_time: scored.duration_since(admitted),
            finished,
        })
    }
}

/// One push through [`StreamState::push_timed`]: the score and where the
/// push's time went, for the caller to [`StreamState::record`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedPush {
    /// The sample's anomaly score; `None` while the window warms up.
    pub score: Option<f32>,
    /// Admission, from the caller's start stamp: sample checks,
    /// normalization and the window-ring write.
    pub admit_time: Duration,
    /// The normalizer's share of [`TimedPush::admit_time`]: zero unless
    /// per-stage timing is on ([`StreamState::set_stage_timing`]) and the
    /// stream has a normalizer. The rest of the admission is assembly.
    pub normalize_time: Duration,
    /// The model: incremental columns, or planning and priming the cache by
    /// a cold replay.
    pub scoring_time: Duration,
    /// The stamp that closed the push.
    pub finished: SpanStamp,
}

/// A push-based streaming scorer built on a fitted [`VaradeDetector`].
///
/// Samples are normalized with the training normalizer, buffered into the
/// detector's context window and scored one at a time. Every push is timed
/// into a [`PushStats`] accumulator (see [`StreamingVarade::stats`]); its
/// four span-clock reads cost nanoseconds against the model's columns, so
/// the hook stays on unconditionally.
///
/// Internally this is one [`StreamState`] paired with an owned detector —
/// the same composition the fleet engine multiplexes across many streams.
pub struct StreamingVarade {
    detector: VaradeDetector,
    state: StreamState,
}

impl std::fmt::Debug for StreamingVarade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingVarade")
            .field("detector", &self.detector)
            .field("state", &self.state)
            .finish()
    }
}

impl StreamingVarade {
    /// Wraps a fitted detector. Pass the training [`MinMaxNormalizer`] to
    /// normalize raw sensor samples on the fly, or `None` if the stream is
    /// already normalized.
    ///
    /// # Errors
    ///
    /// Returns [`VaradeError::NotFitted`] if the detector has not been fitted.
    pub fn new(
        detector: VaradeDetector,
        n_channels: usize,
        normalizer: Option<MinMaxNormalizer>,
    ) -> Result<Self, VaradeError> {
        if detector.model().is_none() {
            return Err(VaradeError::NotFitted);
        }
        let window = detector.config().window;
        let state = StreamState::new(n_channels, window, normalizer)?;
        Ok(Self { detector, state })
    }

    /// Hot-swaps the wrapped detector mid-stream, returning the old one —
    /// the single-stream counterpart of the fleet's `publish_model`. The new
    /// detector must be fitted with the same window and channel count (the
    /// stream's buffer layout); everything else — weights, scoring rule,
    /// even `base_feature_maps` — may differ. The stream's cache is
    /// dropped through [`StreamState::invalidate_cache`], so the next scored
    /// push plans one against the new detector (its layer shapes may have
    /// changed) and replays the shared window history under the new model:
    /// pushes are never dropped and no score mixes two models.
    ///
    /// # Errors
    ///
    /// Returns [`VaradeError::NotFitted`] for an unfitted replacement and
    /// [`VaradeError::InvalidConfig`] on a window or channel-count mismatch;
    /// the wrapper is left unchanged on error.
    pub fn swap_detector(&mut self, new: VaradeDetector) -> Result<VaradeDetector, VaradeError> {
        let Some(new_channels) = new.n_channels() else {
            return Err(VaradeError::NotFitted);
        };
        if new.config().window != self.detector.config().window {
            return Err(VaradeError::InvalidConfig(format!(
                "hot swap window mismatch: stream buffers are sized for {}, replacement wants {}",
                self.detector.config().window,
                new.config().window
            )));
        }
        if new_channels != self.state.n_channels() {
            return Err(VaradeError::InvalidConfig(format!(
                "hot swap channel mismatch: stream carries {} channels, replacement wants {}",
                self.state.n_channels(),
                new_channels
            )));
        }
        self.state.invalidate_cache();
        Ok(std::mem::replace(&mut self.detector, new))
    }

    /// Switches per-stage admission timing on or off (see
    /// [`StreamState::set_stage_timing`]): when on, [`StreamingVarade::stats`]
    /// additionally splits the push cost into normalize and window-assembly
    /// time, at the cost of up to three span-clock reads per push. Off by
    /// default.
    pub fn set_stage_timing(&mut self, on: bool) {
        self.state.set_stage_timing(on);
    }

    /// Whether per-stage admission timing is on.
    pub fn stage_timing(&self) -> bool {
        self.state.stage_timing()
    }

    /// Number of scores produced so far.
    pub fn scores_emitted(&self) -> u64 {
        self.state.stats().scores
    }

    /// Cumulative push/scoring timing since construction (or the last
    /// [`StreamingVarade::reset_stats`]).
    pub fn stats(&self) -> PushStats {
        self.state.stats()
    }

    /// Clears the timing accumulator, e.g. after a warm-up phase whose
    /// latencies should not pollute a measurement.
    pub fn reset_stats(&mut self) {
        self.state.reset_stats();
    }

    /// Read access to the wrapped detector.
    pub fn detector(&self) -> &VaradeDetector {
        &self.detector
    }

    /// [`crate::BackendKind::Scalar`], a constant. Stays until ROADMAP item
    /// 6(c)'s benchmark-tagged change removes perfbench's call.
    pub fn backend_kind(&self) -> crate::BackendKind {
        self.detector.backend_kind()
    }

    /// Consumes the wrapper and returns the underlying detector.
    pub fn into_detector(self) -> VaradeDetector {
        self.detector
    }

    /// Pushes one raw sample; returns an anomaly score once the context window
    /// is full (the first `window` samples only warm up the buffer).
    ///
    /// # Errors
    ///
    /// Returns [`VaradeError::Series`] with
    /// [`SeriesError::ChannelCountMismatch`] if the sample width does not
    /// match the channel count, and with [`SeriesError::NonFiniteValue`] if a
    /// value is NaN or infinite. A rejected sample reaches neither the window
    /// nor the cache.
    pub fn push(&mut self, sample: &[f32]) -> Result<Option<f32>, VaradeError> {
        let Self { detector, state } = self;
        state.push_against(sample, detector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VaradeConfig;
    use std::time::Instant;
    use varade_detectors::AnomalyDetector;
    use varade_timeseries::MultivariateSeries;

    fn tiny_config() -> VaradeConfig {
        VaradeConfig {
            window: 8,
            base_feature_maps: 8,
            epochs: 3,
            batch_size: 8,
            learning_rate: 2e-3,
            max_train_windows: 64,
            ..VaradeConfig::default()
        }
    }

    fn wave_series(n: usize) -> MultivariateSeries {
        let mut s = MultivariateSeries::new(vec!["a".into(), "b".into()], 10.0).unwrap();
        for t in 0..n {
            let v = (t as f32 * 0.3).sin();
            s.push_row(&[v, -v * 0.5]).unwrap();
        }
        s
    }

    fn fitted_detector() -> VaradeDetector {
        let mut det = VaradeDetector::new(tiny_config());
        det.fit(&wave_series(200)).unwrap();
        det
    }

    #[test]
    fn requires_a_fitted_detector() {
        let det = VaradeDetector::new(tiny_config());
        assert!(matches!(
            StreamingVarade::new(det, 2, None),
            Err(VaradeError::NotFitted)
        ));
    }

    #[test]
    fn emits_scores_only_after_warmup() {
        let mut stream = StreamingVarade::new(fitted_detector(), 2, None).unwrap();
        let test = wave_series(30);
        let mut scores = Vec::new();
        for t in 0..test.len() {
            if let Some(s) = stream.push(test.row(t)).unwrap() {
                scores.push(s);
            }
        }
        // Window = 8: the first score appears with the 9th sample.
        assert_eq!(scores.len(), 30 - 8);
        assert_eq!(stream.scores_emitted(), (30 - 8) as u64);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn streaming_scores_match_batch_scores() {
        let window = tiny_config().window;
        let mut det = fitted_detector();
        let test = wave_series(40);
        let batch_scores = det.score_series(&test).unwrap();
        let mut stream = StreamingVarade::new(det, 2, None).unwrap();
        let mut streamed = vec![f32::NAN; test.len()];
        for (t, slot) in streamed.iter_mut().enumerate() {
            if let Some(s) = stream.push(test.row(t)).unwrap() {
                *slot = s;
            }
        }
        // Warm-up pushes emit nothing; the first score lands exactly at
        // t == window (window 8 ⇒ the 9th sample). The comparison starts at
        // the true boundary — skipping the first emitted score would let a
        // first-window-only bug through.
        for (t, s) in streamed.iter().enumerate().take(window) {
            assert!(s.is_nan(), "warm-up push {t} emitted a score");
        }
        // `score_series` runs the same incremental arithmetic over the whole
        // series, so every push is bit-identical to it.
        for (t, (streamed, batch)) in streamed.iter().zip(&batch_scores).enumerate().skip(window) {
            assert_eq!(
                streamed.to_bits(),
                batch.to_bits(),
                "mismatch at {t}: {streamed} vs {batch}"
            );
        }
    }

    #[test]
    fn push_stats_accumulate_and_reset() {
        let mut stream = StreamingVarade::new(fitted_detector(), 2, None).unwrap();
        assert_eq!(stream.stats(), PushStats::default());
        assert!(stream.stats().mean_scoring_latency().is_none());
        assert!(stream.stats().samples_per_sec().is_none());
        let test = wave_series(20);
        for t in 0..test.len() {
            stream.push(test.row(t)).unwrap();
        }
        let stats = stream.stats();
        assert_eq!(stats.pushes, 20);
        assert_eq!(stats.scores, 20 - 8);
        assert!(stats.total_time >= stats.scoring_time);
        assert!(stats.scoring_time > Duration::ZERO);
        let mean = stats.mean_scoring_latency().unwrap();
        assert!(mean > Duration::ZERO);
        assert!(stats.samples_per_sec().unwrap() > 0.0);
        stream.reset_stats();
        assert_eq!(stream.stats(), PushStats::default());
        assert_eq!(stream.scores_emitted(), 0);
        // The context buffer survives a reset: the next push scores
        // immediately instead of warming up again.
        assert!(stream.push(test.row(0)).unwrap().is_some());
    }

    #[test]
    fn rejects_wrong_sample_width() {
        let mut stream = StreamingVarade::new(fitted_detector(), 2, None).unwrap();
        let err = stream.push(&[1.0]).unwrap_err();
        assert!(
            matches!(
                err,
                VaradeError::Series(SeriesError::ChannelCountMismatch {
                    expected: 2,
                    got: 1
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn push_stats_merge_sums_counters_and_times() {
        let a = PushStats {
            pushes: 10,
            scores: 7,
            total_time: Duration::from_micros(500),
            scoring_time: Duration::from_micros(300),
            normalize_time: Duration::from_micros(40),
            assembly_time: Duration::from_micros(80),
        };
        let b = PushStats {
            pushes: 4,
            scores: 2,
            total_time: Duration::from_micros(100),
            scoring_time: Duration::from_micros(60),
            normalize_time: Duration::from_micros(10),
            assembly_time: Duration::from_micros(15),
        };
        let mut left = a;
        left.merge(&b);
        let mut right = b;
        right.merge(&a);
        // Commutative, and the default is the identity.
        assert_eq!(left, right);
        assert_eq!(left.pushes, 14);
        assert_eq!(left.scores, 9);
        assert_eq!(left.total_time, Duration::from_micros(600));
        assert_eq!(left.scoring_time, Duration::from_micros(360));
        assert_eq!(left.normalize_time, Duration::from_micros(50));
        assert_eq!(left.assembly_time, Duration::from_micros(95));
        let mut with_identity = a;
        with_identity.merge(&PushStats::default());
        assert_eq!(with_identity, a);
    }

    #[test]
    fn stream_state_admit_and_record_mirror_push() {
        // Drive a raw StreamState through admit/record the way a caller
        // scoring its own requests would, and check it produces the same
        // due pushes and stats bookkeeping as push_against.
        let det = fitted_detector();
        let window = tiny_config().window;
        let mut manual = StreamState::new(2, window, None).unwrap();
        let mut pushed = StreamState::new(2, window, None).unwrap();
        let mut manual_requests = Vec::new();
        for t in 0..window + 6 {
            let sample = [t as f32 * 0.1, -(t as f32) * 0.1];
            let request = manual.admit(&sample).unwrap();
            if let Some(req) = &request {
                assert_eq!(req.row, sample);
                assert_eq!(req.context.len(), 2 * window);
                manual_requests.push(req.clone());
                manual.record(true, Duration::from_micros(2), Duration::from_micros(1));
            } else {
                manual.record(false, Duration::from_micros(2), Duration::ZERO);
            }
            let score = pushed.push_against(&sample, &det).unwrap();
            assert_eq!(score.is_some(), request.is_some());
            assert_eq!(score.is_some(), t >= window);
        }
        // Requests start with the sample after the first full window.
        assert_eq!(manual_requests.len(), 6);
        assert_eq!(manual.stats().pushes, (window + 6) as u64);
        assert_eq!(manual.stats().scores, 6);
        assert_eq!(pushed.stats().pushes, manual.stats().pushes);
        assert_eq!(pushed.stats().scores, manual.stats().scores);
        // The first request's context is the first `window` samples,
        // channel-major.
        let first: Vec<f32> = (0..2)
            .flat_map(|c| (0..window).map(move |t| (t, c)))
            .map(|(t, c)| [t as f32 * 0.1, -(t as f32) * 0.1][c])
            .collect();
        assert_eq!(manual_requests[0].context, first);
        assert_eq!(
            manual_requests[0].row,
            [window as f32 * 0.1, -(window as f32) * 0.1]
        );
    }

    #[test]
    fn stage_timing_splits_admission_without_changing_scores() {
        let test = wave_series(40);
        let mut plain = StreamingVarade::new(fitted_detector(), 2, None).unwrap();
        let mut timed = StreamingVarade::new(fitted_detector(), 2, None).unwrap();
        assert!(!timed.stage_timing());
        timed.set_stage_timing(true);
        assert!(timed.stage_timing());
        for t in 0..test.len() {
            let a = plain.push(test.row(t)).unwrap();
            let b = timed.push(test.row(t)).unwrap();
            // Stage timing is observation only: identical scores.
            assert_eq!(a.map(f32::to_bits), b.map(f32::to_bits));
        }
        // The untimed stream accumulates no stage split; the timed one does,
        // and the split stays inside the total.
        assert_eq!(plain.stats().assembly_time, Duration::ZERO);
        assert_eq!(plain.stats().normalize_time, Duration::ZERO);
        let stats = timed.stats();
        assert!(stats.assembly_time > Duration::ZERO);
        // No normalizer attached: the normalize stage is exactly zero.
        assert_eq!(stats.normalize_time, Duration::ZERO);
        assert!(stats.assembly_time + stats.scoring_time <= stats.total_time);
    }

    #[test]
    fn stage_timed_admit_matches_untimed_and_measures_the_normalizer() {
        let train_raw = {
            let mut s = MultivariateSeries::new(vec!["a".into(), "b".into()], 10.0).unwrap();
            for t in 0..50 {
                s.push_row(&[t as f32, -(t as f32)]).unwrap();
            }
            s
        };
        let normalizer = MinMaxNormalizer::fit(&train_raw).unwrap();
        let mut plain = StreamState::new(2, 4, Some(normalizer.clone())).unwrap();
        let mut timed = StreamState::new(2, 4, Some(normalizer)).unwrap();
        timed.set_stage_timing(true);
        for t in 0..12 {
            let sample = [t as f32, -(t as f32)];
            let a = plain.admit(&sample).unwrap();
            let b = timed.admit(&sample).unwrap();
            assert_eq!(a, b, "push {t}");
        }
        assert!(
            timed.stats().normalize_time > Duration::ZERO,
            "normalizer span never measured"
        );
        assert!(timed.stats().assembly_time > Duration::ZERO);
        // The untimed state reads no clock, so it accumulates no split.
        assert_eq!(plain.stats().normalize_time, Duration::ZERO);
        assert_eq!(plain.stats().assembly_time, Duration::ZERO);
        // Width validation is preserved.
        assert!(timed.admit(&[1.0]).is_err());
    }

    #[test]
    fn timed_push_reports_its_split_from_the_callers_stamp() {
        let det = fitted_detector();
        let window = tiny_config().window;
        let test = wave_series(40);
        let normalizer = MinMaxNormalizer::fit(&wave_series(50)).unwrap();
        let mut timed = StreamState::new(2, window, Some(normalizer.clone())).unwrap();
        timed.attach_cache(det.incremental_cache().unwrap());
        timed.set_stage_timing(true);
        let mut plain = StreamState::new(2, window, Some(normalizer)).unwrap();
        plain.attach_cache(det.incremental_cache().unwrap());
        let (mut normalize, mut assembly) = (Duration::ZERO, Duration::ZERO);
        for t in 0..test.len() {
            // A stamp read well before the call opens the push span.
            let started = SpanStamp::now();
            let spin = Instant::now();
            while spin.elapsed() < Duration::from_micros(20) {
                std::hint::spin_loop();
            }
            let got = timed.push_timed(test.row(t), &det, started).unwrap();
            let want = plain
                .push_timed(test.row(t), &det, SpanStamp::now())
                .unwrap();
            assert_eq!(got.score.map(f32::to_bits), want.score.map(f32::to_bits));
            assert!(got.admit_time >= Duration::from_micros(10), "{got:?}");
            assert!(got.normalize_time <= got.admit_time);
            assert!(got.finished.duration_since(started) >= got.admit_time + got.scoring_time);
            // Without stage timing the normalizer is not timed.
            assert_eq!(want.normalize_time, Duration::ZERO);
            normalize += got.normalize_time;
            assembly += got.admit_time - got.normalize_time;
        }
        // Stage timing folds the returned split into the stats, and the
        // push records nothing else: `record` is the caller's.
        assert!(normalize > Duration::ZERO, "normalizer span never measured");
        assert_eq!(timed.stats().normalize_time, normalize);
        assert_eq!(timed.stats().assembly_time, assembly);
        assert_eq!(timed.stats().pushes, 0);
        assert_eq!(plain.stats().assembly_time, Duration::ZERO);
    }

    #[test]
    fn non_finite_samples_are_rejected_before_the_window_or_the_cache() {
        let test = wave_series(40);
        let clean: Vec<Option<f32>> = {
            let mut stream = StreamingVarade::new(fitted_detector(), 2, None).unwrap();
            (0..test.len())
                .map(|t| stream.push(test.row(t)).unwrap())
                .collect()
        };
        let mut stream = StreamingVarade::new(fitted_detector(), 2, None).unwrap();
        let bad = [
            ([f32::NAN, 0.0], 0),
            ([0.0, f32::INFINITY], 1),
            ([f32::NEG_INFINITY, 1.0], 0),
        ];
        let mut scores = Vec::new();
        for t in 0..test.len() {
            // During the warm-up and once the cache is primed.
            if t == 3 || t == 20 {
                for (sample, channel) in &bad {
                    let err = stream.push(sample).unwrap_err();
                    assert!(
                        matches!(
                            err,
                            VaradeError::Series(SeriesError::NonFiniteValue { step, channel: c })
                                if step == t && c == *channel
                        ),
                        "{err:?}"
                    );
                }
            }
            scores.push(stream.push(test.row(t)).unwrap());
        }
        // Rejected samples are not pushes, and every score is the clean
        // stream's, bit for bit.
        assert_eq!(stream.stats().pushes, test.len() as u64);
        let bits = |v: &[Option<f32>]| v.iter().map(|s| s.map(f32::to_bits)).collect::<Vec<_>>();
        assert_eq!(bits(&scores), bits(&clean));

        // The copy-out admission path refuses them too, normalizer or not:
        // the normalizer would clamp an infinity to a finite value.
        let train_raw = wave_series(50);
        let normalizer = MinMaxNormalizer::fit(&train_raw).unwrap();
        let mut state = StreamState::new(2, 4, Some(normalizer)).unwrap();
        assert!(state.admit(&[f32::INFINITY, 0.0]).is_err());
        assert!(state.admit(&[0.0, f32::NAN]).is_err());
        for t in 0..4 {
            assert!(state.admit(test.row(t)).unwrap().is_none());
        }
        assert!(state.admit(test.row(4)).unwrap().is_some());
    }

    #[test]
    fn a_primed_cache_from_another_stream_is_replayed_not_trusted() {
        // The zero-copy path trusts a primed cache only when its last
        // ingested sample is the window's newest; a cache primed on other
        // data must be replayed against this stream's window.
        let det = fitted_detector();
        let window = tiny_config().window;
        let test = wave_series(40);
        let mut donor = StreamState::new(2, window, None).unwrap();
        assert!(donor.cache().is_none());
        for t in 0..20 {
            donor.push_against(test.row(t + 13), &det).unwrap();
        }
        let foreign = donor
            .cache()
            .expect("a scored push plans the cache")
            .clone();
        assert!(foreign.is_primed());

        let mut state = StreamState::new(2, window, None).unwrap();
        for t in 0..window {
            assert!(state.push_against(test.row(t), &det).unwrap().is_none());
        }
        state.attach_cache(foreign);
        let got = state.push_against(test.row(window), &det).unwrap().unwrap();
        let context: Vec<f32> = (0..2)
            .flat_map(|c| (0..window).map(move |t| (t, c)))
            .map(|(t, c)| test.value(t, c))
            .collect();
        let want = det.score_window(&context, test.row(window)).unwrap();
        assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
    }

    #[test]
    fn stream_state_applies_normalizer_and_validates_width() {
        let train_raw = {
            let mut s = MultivariateSeries::new(vec!["a".into()], 10.0).unwrap();
            for t in 0..50 {
                s.push_row(&[t as f32]).unwrap();
            }
            s
        };
        let normalizer = MinMaxNormalizer::fit(&train_raw).unwrap();
        let mut state = StreamState::new(1, 4, Some(normalizer)).unwrap();
        assert_eq!(state.n_channels(), 1);
        assert!(state.admit(&[1.0, 2.0]).is_err());
        for t in 0..4 {
            assert!(state.admit(&[t as f32]).unwrap().is_none());
        }
        let req = state.admit(&[49.0]).unwrap().unwrap();
        // 49 is the training max, so it normalizes to 1.0.
        assert!((req.row[0] - 1.0).abs() < 1e-6);
        assert!(StreamState::new(0, 4, None).is_err());
        assert!(StreamState::new(1, 0, None).is_err());
    }

    #[test]
    fn applies_normalizer_when_provided() {
        let train_raw = {
            // Raw data in volts-scale so normalization matters.
            let mut s = MultivariateSeries::new(vec!["a".into(), "b".into()], 10.0).unwrap();
            for t in 0..200 {
                let v = (t as f32 * 0.3).sin() * 100.0 + 200.0;
                s.push_row(&[v, -v]).unwrap();
            }
            s
        };
        let normalizer = MinMaxNormalizer::fit(&train_raw).unwrap();
        let train = normalizer.transform(&train_raw).unwrap();
        let mut det = VaradeDetector::new(tiny_config());
        det.fit(&train).unwrap();
        let mut stream = StreamingVarade::new(det, 2, Some(normalizer)).unwrap();
        let mut produced = 0;
        for t in 0..50 {
            let v = (t as f32 * 0.3).sin() * 100.0 + 200.0;
            if stream.push(&[v, -v]).unwrap().is_some() {
                produced += 1;
            }
        }
        assert!(produced > 0);
        let det = stream.into_detector();
        assert!(det.is_fitted());
    }

    #[test]
    fn mean_scoring_latency_survives_huge_merged_counters() {
        // Merged fleet accumulators can exceed u32::MAX scores; the old
        // `scoring_time / scores as u32` truncated (2^32 + 1 → 1) and
        // panicked outright on an exact wrap to zero.
        let stats = PushStats {
            pushes: u64::from(u32::MAX) + 2,
            scores: u64::from(u32::MAX) + 2,
            total_time: Duration::from_secs(500_000),
            scoring_time: Duration::from_secs(429_497),
            ..PushStats::default()
        };
        let mean = stats.mean_scoring_latency().expect("scores > 0");
        // ~429497s over ~4.29e9 scores ≈ 100 µs — not 429497s (the truncated
        // division by 1) and not a panic (the wrapped division by 0).
        let micros = mean.as_secs_f64() * 1e6;
        assert!((micros - 100.0).abs() < 1.0, "mean {micros} µs");
        let wrap = PushStats {
            scores: u64::from(u32::MAX) + 1, // `as u32` would wrap to 0
            scoring_time: Duration::from_secs(1),
            ..stats
        };
        // The old code panicked here (division by a wrapped-to-zero count);
        // now it returns the true sub-nanosecond mean (rounds to 0 ns).
        assert!(wrap.mean_scoring_latency().unwrap() < Duration::from_nanos(1));
    }

    /// Streams `test` through a fresh detector trained identically to
    /// [`fitted_detector`].
    fn streamed_scores(test: &MultivariateSeries) -> Vec<f32> {
        let mut stream = StreamingVarade::new(fitted_detector(), 2, None).unwrap();
        (0..test.len())
            .filter_map(|t| stream.push(test.row(t)).unwrap())
            .collect()
    }

    #[test]
    fn reset_stats_keeps_the_cache_and_the_buffer() {
        let test = wave_series(50);
        let reference = streamed_scores(&test);
        let mut stream = StreamingVarade::new(fitted_detector(), 2, None).unwrap();
        let mut scores = Vec::new();
        for t in 0..test.len() {
            if t == 30 {
                stream.reset_stats();
                assert_eq!(stream.stats(), PushStats::default());
            }
            if let Some(s) = stream.push(test.row(t)).unwrap() {
                scores.push(s);
            }
        }
        // The window buffer and the cache both survive the stats reset:
        // every score equals the uninterrupted stream's bit for bit.
        assert_eq!(scores.len(), reference.len());
        for (t, (a, b)) in scores.iter().zip(&reference).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "score {t} diverged after reset");
        }
    }

    #[test]
    fn cold_start_scoring_falls_back_to_a_full_recompute() {
        // score_window_incremental with a fresh cache and an arbitrary
        // context (no stream history at all) must equal score_window.
        let det = fitted_detector();
        let mut cache = det.incremental_cache().unwrap();
        assert!(!cache.is_primed());
        assert_eq!(cache.samples_ingested(), 0);
        let test = wave_series(30);
        let window = tiny_config().window;
        let mut context = Vec::new();
        for c in 0..2 {
            for t in 10..10 + window {
                context.push(test.value(t, c));
            }
        }
        let row = test.row(10 + window).to_vec();
        let full = det.score_window(&context, &row).unwrap();
        let cold = det
            .score_window_incremental(&mut cache, &context, &row)
            .unwrap();
        assert!(
            (cold - full).abs() <= 1e-5 * full.abs().max(1.0),
            "cold start {cold} vs full {full}"
        );
        assert!(cache.is_primed());
        // A context that does not match the cache's history triggers a
        // rebuild instead of a silent mis-score.
        let mut other_context = Vec::new();
        for c in 0..2 {
            for t in 3..3 + window {
                other_context.push(test.value(t, c));
            }
        }
        let other_row = test.row(3 + window).to_vec();
        let full = det.score_window(&other_context, &other_row).unwrap();
        let rebuilt = det
            .score_window_incremental(&mut cache, &other_context, &other_row)
            .unwrap();
        assert!((rebuilt - full).abs() <= 1e-5 * full.abs().max(1.0));
        // Misuse keeps the typed errors.
        assert!(det
            .score_window_incremental(&mut cache, &[0.0; 3], &[0.0; 2])
            .is_err());
        let unfitted = VaradeDetector::new(tiny_config());
        assert!(unfitted.incremental_cache().is_err());
    }
}
