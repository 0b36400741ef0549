//! The VARADE anomaly detector: trained model + variance scoring.

use std::borrow::Cow;

use varade_detectors::{AnomalyDetector, DetectorError};
use varade_tensor::{numerics::clamp_log_var, BackendKind, ComputeProfile, Tensor};
use varade_timeseries::{MultivariateSeries, StreamingWindow, WindowIter};

use crate::{EncoderCache, VaradeConfig, VaradeError, VaradeModel, VaradeTrainer};

/// How the fitted model turns its predictive distribution into an anomaly
/// score.
///
/// # Toy-scale caveat: variance scoring needs paper-scale training
///
/// The paper's variance-only score relies on the model having learned a
/// *calibrated* predictive distribution — plenty of normal data, long
/// training (50 epochs at `lr = 1e-5` on 390 minutes of 200 Hz recordings,
/// §3.4). At the toy scale of the quickstart example and the smoke tests the
/// ELBO has not converged far enough for the predicted variance to track
/// anomalies, and the score is near chance **or worse**: on the quickstart's
/// synthetic stream, [`ScoringRule::Variance`] reaches AUC-ROC ≈ 0.29 while
/// [`ScoringRule::PredictionError`] reaches 1.000 on the same fitted model.
/// Do not read toy-scale variance AUCs as a bug or as a refutation of the
/// paper — reproducing the crossover where the variance score becomes
/// competitive is tracked as the "variance-score fidelity" ROADMAP item, and
/// the measured numbers live in `EXPERIMENTS.md` (ablation A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoringRule {
    /// The paper's rule (§3.2): discard the predicted mean and use the
    /// predicted variance directly — the model is uncertain on anomalies.
    /// See the type-level caveat: this rule needs paper-scale training to be
    /// competitive and is near chance on toy-scale streams.
    #[default]
    Variance,
    /// The conventional forecasting rule used by the baselines: the Euclidean
    /// norm of the difference between the predicted mean and the observation.
    /// Kept for the ablation study motivated in §3.1.
    PredictionError,
}

impl ScoringRule {
    /// Lower-case label used by the persistence header and reports.
    pub fn label(self) -> &'static str {
        match self {
            ScoringRule::Variance => "variance",
            ScoringRule::PredictionError => "prediction-error",
        }
    }
}

impl std::fmt::Display for ScoringRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for ScoringRule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "variance" => Ok(ScoringRule::Variance),
            "prediction-error" => Ok(ScoringRule::PredictionError),
            other => Err(format!(
                "unknown scoring rule {other:?} (expected \"variance\" or \"prediction-error\")"
            )),
        }
    }
}

/// The VARADE anomaly detector.
///
/// Wraps a [`VaradeModel`], trains it with the ELBO objective on normal data
/// and scores new samples with the predicted variance (or, for the ablation,
/// the prediction error).
pub struct VaradeDetector {
    config: VaradeConfig,
    scoring: ScoringRule,
    model: Option<VaradeModel>,
    n_channels: usize,
}

impl std::fmt::Debug for VaradeDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VaradeDetector")
            .field("config", &self.config)
            .field("scoring", &self.scoring)
            .field("fitted", &self.model.is_some())
            .finish()
    }
}

impl VaradeDetector {
    /// Creates an unfitted detector using the paper's variance scoring rule.
    pub fn new(config: VaradeConfig) -> Self {
        Self {
            config,
            scoring: ScoringRule::Variance,
            model: None,
            n_channels: 0,
        }
    }

    /// Creates an unfitted detector with an explicit scoring rule (used by the
    /// ablation study).
    pub fn with_scoring(config: VaradeConfig, scoring: ScoringRule) -> Self {
        Self {
            scoring,
            ..Self::new(config)
        }
    }

    /// Reassembles a fitted detector from persisted parts — the persistence
    /// module's constructor. Callers guarantee the model was built for this
    /// config and channel count.
    pub(crate) fn from_parts(
        config: VaradeConfig,
        scoring: ScoringRule,
        model: VaradeModel,
        n_channels: usize,
    ) -> Self {
        Self {
            config,
            scoring,
            model: Some(model),
            n_channels,
        }
    }

    /// Persists the fitted detector to `path` in the versioned flat-tensor
    /// format documented in [`crate::persist`]. Shorthand for wrapping the
    /// detector in a bare [`crate::persist::ModelArtifact`]; bundle a
    /// normalizer or threshold through the artifact API instead.
    ///
    /// # Errors
    ///
    /// Returns [`crate::persist::PersistError::NotFitted`] before `fit`, and
    /// I/O or encoding failures as their own
    /// [`crate::persist::PersistError`] variants.
    pub fn save(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), crate::persist::PersistError> {
        let bytes = self.to_persist_bytes()?;
        std::fs::write(path, bytes).map_err(crate::persist::PersistError::from)
    }

    /// Serializes the fitted detector to the on-disk byte layout (the
    /// in-memory counterpart of [`VaradeDetector::save`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`VaradeDetector::save`] minus the I/O.
    pub fn to_persist_bytes(&self) -> Result<Vec<u8>, crate::persist::PersistError> {
        crate::persist::ModelArtifact::serialize_detector(self)
    }

    /// Loads a detector persisted by [`VaradeDetector::save`] (or the
    /// artifact API — any bundled normalizer/threshold is dropped; use
    /// [`crate::persist::ModelArtifact::load`] to keep it).
    ///
    /// # Errors
    ///
    /// Every corruption mode returns its own
    /// [`crate::persist::PersistError`] variant; see that enum's docs.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, crate::persist::PersistError> {
        Ok(crate::persist::ModelArtifact::load(path)?.detector)
    }

    /// [`BackendKind::Scalar`], a constant. Stays until ROADMAP item 6(c)'s
    /// benchmark-tagged change removes perfbench's calls.
    pub fn backend_kind(&self) -> BackendKind {
        BackendKind::Scalar
    }

    /// The configuration in use.
    pub fn config(&self) -> &VaradeConfig {
        &self.config
    }

    /// The scoring rule in use.
    pub fn scoring_rule(&self) -> ScoringRule {
        self.scoring
    }

    /// Access to the fitted model (e.g. for summaries), if any.
    pub fn model(&self) -> Option<&VaradeModel> {
        self.model.as_ref()
    }

    /// Number of input channels the detector was fitted on, `None` before
    /// `fit`. The fleet engine uses this to size per-stream window buffers
    /// without carrying the channel count separately.
    pub fn n_channels(&self) -> Option<usize> {
        self.model.as_ref().map(|_| self.n_channels)
    }

    /// Scores a single channel-major window (`[channels * window]`) given the
    /// observation that followed it, by a full `forward_infer` recompute —
    /// the independent reference the incremental path
    /// ([`VaradeDetector::score_window_incremental`], `score_series` and
    /// every stream) must match.
    ///
    /// Takes `&self`: scoring runs through the immutable inference path, so a
    /// fitted detector behind an `Arc` can be shared across threads.
    ///
    /// # Errors
    ///
    /// Returns [`VaradeError::NotFitted`] before `fit` and
    /// [`VaradeError::InvalidData`] for a window or sample of the wrong size.
    pub fn score_window(&self, context: &[f32], next_sample: &[f32]) -> Result<f32, VaradeError> {
        let model = self.model.as_ref().ok_or(VaradeError::NotFitted)?;
        if context.len() != self.n_channels * self.config.window
            || next_sample.len() != self.n_channels
        {
            return Err(VaradeError::InvalidData(format!(
                "expected context of {} values and sample of {} values, got {} and {}",
                self.n_channels * self.config.window,
                self.n_channels,
                context.len(),
                next_sample.len()
            )));
        }
        let input = Tensor::from_vec(context.to_vec(), &[1, self.n_channels, self.config.window])?;
        let (mu, log_var) = model.forward_variational_infer(&input)?;
        Ok(score_one(
            self.scoring,
            mu.as_slice(),
            log_var.as_slice(),
            next_sample,
        ))
    }

    /// Plans a fresh per-stream [`EncoderCache`] for the incremental scoring
    /// path ([`VaradeDetector::score_window_incremental`]): the parity-phased
    /// activation state sized for this detector's window and channel count.
    ///
    /// # Errors
    ///
    /// Returns [`VaradeError::NotFitted`] before `fit`.
    pub fn incremental_cache(&self) -> Result<EncoderCache, VaradeError> {
        let model = self.model.as_ref().ok_or(VaradeError::NotFitted)?;
        Ok(EncoderCache::new(
            model.make_incremental_cache()?,
            self.n_channels,
            self.config.window,
        ))
    }

    /// Scores one window like [`VaradeDetector::score_window`], but through
    /// the stream's [`EncoderCache`]: when the cache is primed and in sync
    /// with `context`, only the backbone's receptive-field frontier is
    /// recomputed (one new column per layer); `next_sample` is then ingested
    /// so the next push finds the cache primed again.
    ///
    /// Cold start — a fresh cache, a cache invalidated by
    /// [`EncoderCache::reset`], or a context whose final column does not
    /// match the cache's last ingested sample — falls back to a full
    /// recompute: the context window is replayed through the pipeline, which
    /// both yields this window's head output and re-primes every phase line.
    ///
    /// The incremental scores are bit-identical to
    /// [`VaradeDetector::score_window`].
    ///
    /// A caller must copy `context` out to call this. Streams pushed
    /// through [`crate::StreamState::push_timed`] (and so
    /// [`crate::StreamingVarade::push`] and the fleet) take the same path
    /// against their window ring instead, and build the context only to
    /// replay.
    ///
    /// # Errors
    ///
    /// Returns [`VaradeError::NotFitted`] before `fit` and
    /// [`VaradeError::InvalidData`] for a misshapen window, sample or cache.
    pub fn score_window_incremental(
        &self,
        cache: &mut EncoderCache,
        context: &[f32],
        next_sample: &[f32],
    ) -> Result<f32, VaradeError> {
        if self.model.is_none() {
            return Err(VaradeError::NotFitted);
        }
        let (c, w) = (self.n_channels, self.config.window);
        if context.len() != c * w {
            return Err(VaradeError::InvalidData(format!(
                "expected context of {} values and sample of {} values, got {} and {}",
                c * w,
                c,
                context.len(),
                next_sample.len()
            )));
        }
        let in_sync = cache.matches_context(context);
        self.score_incremental(cache, next_sample, in_sync, || Some(Cow::Borrowed(context)))
    }

    /// [`VaradeDetector::score_window_incremental`] against a stream's
    /// window buffer instead of a copied-out context: `window` holds the
    /// context (the `window` samples before `next_sample`). A primed cache
    /// in sync with the buffer's newest sample reads nothing else from it;
    /// the channel-major context is built only for a cold replay.
    pub(crate) fn score_next_incremental(
        &self,
        cache: &mut EncoderCache,
        window: &StreamingWindow,
        next_sample: &[f32],
    ) -> Result<f32, VaradeError> {
        let in_sync = cache.matches_newest(window);
        self.score_incremental(cache, next_sample, in_sync, || {
            window.to_window().map(Cow::Owned)
        })
    }

    /// The body shared by both incremental entry points. `in_sync` says
    /// whether the cache's last ingested sample is the context's newest;
    /// `context` builds the channel-major context window, and is called only
    /// when the cache must be replayed.
    fn score_incremental<'a>(
        &self,
        cache: &mut EncoderCache,
        next_sample: &[f32],
        in_sync: bool,
        context: impl FnOnce() -> Option<Cow<'a, [f32]>>,
    ) -> Result<f32, VaradeError> {
        let model = self.model.as_ref().ok_or(VaradeError::NotFitted)?;
        let (c, w) = (self.n_channels, self.config.window);
        if next_sample.len() != c {
            return Err(VaradeError::InvalidData(format!(
                "expected a sample of {c} values, got {}",
                next_sample.len()
            )));
        }
        if cache.n_channels != c || cache.window != w {
            return Err(VaradeError::InvalidData(format!(
                "encoder cache planned for {} channels / window {}, detector has {} / {}",
                cache.n_channels, cache.window, c, w
            )));
        }
        if !(in_sync && cache.is_primed()) {
            // Cold start / invalidated cache: replay the context window. This
            // is a full recompute cost-wise, and it leaves every phase line
            // primed so subsequent pushes take the frontier-only path.
            let context = context().ok_or_else(|| {
                VaradeError::InvalidData("no full context window to replay".into())
            })?;
            cache.reset();
            let mut col = vec![0.0f32; c];
            for t in 0..w {
                for (ci, v) in col.iter_mut().enumerate() {
                    *v = context[ci * w + t];
                }
                Self::ingest(model, cache, &col)?;
            }
        }
        let score = Self::score_head(self.scoring, cache, next_sample)?;
        Self::ingest(model, cache, next_sample)?;
        Ok(score)
    }

    /// Scores `target` against the head output of the window the cache last
    /// completed.
    fn score_head(
        scoring: ScoringRule,
        cache: &EncoderCache,
        target: &[f32],
    ) -> Result<f32, VaradeError> {
        let head = cache.head.as_ref().ok_or_else(|| {
            // A full window ingested always yields a head output.
            VaradeError::InvalidData("incremental pipeline produced no head output".into())
        })?;
        let (mu, log_var) = head.split_at(cache.n_channels);
        Ok(score_one(scoring, mu, log_var, target))
    }

    /// Advances a cache by one sample, keeping its head output and last-row
    /// fingerprint current.
    fn ingest(
        model: &VaradeModel,
        cache: &mut EncoderCache,
        row: &[f32],
    ) -> Result<(), VaradeError> {
        if let Some(head) = model.forward_incremental_raw(row, &mut cache.net)? {
            cache.head = Some(head);
        }
        match &mut cache.last_row {
            Some(last) => last.copy_from_slice(row),
            None => cache.last_row = Some(row.to_vec()),
        }
        cache.ingested += 1;
        Ok(())
    }

    /// Fits the detector, returning the training report (loss curves).
    ///
    /// This is the same as [`AnomalyDetector::fit`] but exposes the
    /// intermediate training statistics.
    ///
    /// # Errors
    ///
    /// Returns [`VaradeError::InvalidData`] if the series is shorter than the
    /// window plus one target sample.
    pub fn fit_with_report(
        &mut self,
        train: &MultivariateSeries,
    ) -> Result<crate::TrainingReport, VaradeError> {
        self.config.validate()?;
        if train.len() <= self.config.window {
            return Err(VaradeError::InvalidData(format!(
                "training series of length {} too short for window {}",
                train.len(),
                self.config.window
            )));
        }
        train.check_finite()?;
        self.n_channels = train.n_channels();
        let usable = train.len() - self.config.window;
        let stride = (usable / self.config.max_train_windows.max(1)).max(1);
        let windows: Vec<_> = WindowIter::forecasting(train, self.config.window, stride)?.collect();
        let mut model = VaradeModel::from_config(self.config, self.n_channels)?;
        let report = VaradeTrainer::new(self.config).train(&mut model, &windows)?;
        self.model = Some(model);
        Ok(report)
    }
}

impl AnomalyDetector for VaradeDetector {
    fn name(&self) -> &'static str {
        "VARADE"
    }

    fn fit(&mut self, train: &MultivariateSeries) -> Result<(), DetectorError> {
        self.fit_with_report(train)
            .map(|_| ())
            .map_err(DetectorError::from)
    }

    fn is_fitted(&self) -> bool {
        self.model.is_some()
    }

    /// Scores every sample of `test` the way one stream scores it: a single
    /// [`EncoderCache`] is primed with the first `window` rows, then each row
    /// `t ≥ window` is scored against the head output of the window ending
    /// at `t - 1` and ingested, so every layer computes one new column per
    /// row and no window is materialized. The first `window` scores are
    /// warm-up and take the minimum of the rest.
    ///
    /// This is the arithmetic of [`crate::StreamState::push_timed`] and of
    /// the cold replay in [`VaradeDetector::score_window_incremental`]. Each
    /// score is bit-identical to [`VaradeDetector::score_window`]'s full
    /// `forward_infer` recompute of the same window.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::NotFitted`] before `fit`,
    /// [`DetectorError::InvalidData`] for a channel-count mismatch or a
    /// series no longer than the window, and [`DetectorError::Series`] with
    /// [`varade_timeseries::SeriesError::NonFiniteValue`] for a NaN or
    /// infinite sample.
    fn score_series(&mut self, test: &MultivariateSeries) -> Result<Vec<f32>, DetectorError> {
        let w = self.config.window;
        let model = self
            .model
            .as_ref()
            .ok_or(DetectorError::NotFitted { detector: "VARADE" })?;
        if test.n_channels() != self.n_channels {
            return Err(DetectorError::InvalidData(format!(
                "expected {} channels, got {}",
                self.n_channels,
                test.n_channels()
            )));
        }
        if test.len() <= w {
            return Err(DetectorError::InvalidData(format!(
                "test series of length {} too short for window {w}",
                test.len()
            )));
        }
        test.check_finite()?;
        let mut cache = self.incremental_cache()?;
        for t in 0..w {
            Self::ingest(model, &mut cache, test.row(t))?;
        }
        let last = test.len() - 1;
        let mut scores = vec![0.0f32; test.len()];
        for (t, score) in scores.iter_mut().enumerate().skip(w) {
            *score = Self::score_head(self.scoring, &cache, test.row(t))?;
            if t < last {
                Self::ingest(model, &mut cache, test.row(t))?;
            }
        }
        varade_detectors_fill_warmup(&mut scores, w);
        Ok(scores)
    }

    fn profile(&self) -> Result<ComputeProfile, DetectorError> {
        let model = self
            .model
            .as_ref()
            .ok_or(DetectorError::NotFitted { detector: "VARADE" })?;
        Ok(model.inference_profile())
    }
}

/// Turns one window's predicted `(mean, log_variance)` and its observed
/// target into an anomaly score. Shared verbatim by the full-window
/// `score_window` oracle and the incremental path, so the two agree
/// bit-for-bit given identical network outputs.
fn score_one(scoring: ScoringRule, mu: &[f32], log_var: &[f32], target: &[f32]) -> f32 {
    let n_channels = mu.len();
    match scoring {
        ScoringRule::Variance => {
            // Mean predicted variance across channels (paper §3.2).
            let mut acc = 0.0f32;
            for &lv in &log_var[..n_channels] {
                acc += clamp_log_var(lv).exp();
            }
            acc / n_channels as f32
        }
        ScoringRule::PredictionError => {
            let mut acc = 0.0f32;
            for c in 0..n_channels {
                let diff = mu[c] - target[c];
                acc += diff * diff;
            }
            acc.sqrt()
        }
    }
}

/// Replaces warm-up scores with the minimum of the remaining scores, matching
/// the behaviour of the baseline detectors.
fn varade_detectors_fill_warmup(scores: &mut [f32], warmup: usize) {
    if scores.is_empty() || warmup == 0 {
        return;
    }
    let rest_min = scores[warmup.min(scores.len())..]
        .iter()
        .copied()
        .fold(f32::INFINITY, f32::min);
    let fill = if rest_min.is_finite() { rest_min } else { 0.0 };
    for s in scores.iter_mut().take(warmup) {
        *s = fill;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> VaradeConfig {
        VaradeConfig {
            window: 8,
            base_feature_maps: 8,
            epochs: 4,
            batch_size: 8,
            learning_rate: 2e-3,
            max_train_windows: 96,
            kl_weight: 0.05,
            seed: 4,
        }
    }

    fn wave_series(n: usize, channels: usize) -> MultivariateSeries {
        let names: Vec<String> = (0..channels).map(|c| format!("ch{c}")).collect();
        let mut s = MultivariateSeries::new(names, 10.0).unwrap();
        for t in 0..n {
            let row: Vec<f32> = (0..channels)
                .map(|c| ((t as f32 * 0.35) + c as f32 * 0.7).sin() * 0.6)
                .collect();
            s.push_row(&row).unwrap();
        }
        s
    }

    fn spiked_copy(
        normal: &MultivariateSeries,
        from: usize,
        to: usize,
        magnitude: f32,
    ) -> MultivariateSeries {
        let c = normal.n_channels();
        let mut data = normal.as_slice().to_vec();
        for t in from..to {
            for ci in 0..c {
                data[t * c + ci] += magnitude;
            }
        }
        MultivariateSeries::from_rows(
            normal.channel_names().to_vec(),
            normal.sample_rate_hz(),
            data,
        )
        .unwrap()
    }

    #[test]
    fn fit_and_score_produce_finite_scores() {
        let train = wave_series(200, 2);
        let mut det = VaradeDetector::new(tiny_config());
        det.fit(&train).unwrap();
        assert!(det.is_fitted());
        let scores = det.score_series(&wave_series(60, 2)).unwrap();
        assert_eq!(scores.len(), 60);
        assert!(scores.iter().all(|s| s.is_finite() && *s >= 0.0));
    }

    #[test]
    fn variance_score_rises_on_anomalous_transients() {
        let train = wave_series(300, 2);
        let mut det = VaradeDetector::new(tiny_config());
        det.fit(&train).unwrap();
        let normal = wave_series(100, 2);
        let spiked = spiked_copy(&normal, 60, 66, 4.0);
        let normal_scores = det.score_series(&normal).unwrap();
        let spiked_scores = det.score_series(&spiked).unwrap();
        let normal_mean = normal_scores.iter().sum::<f32>() / normal_scores.len() as f32;
        // Variance right after the transient enters the window should exceed
        // the typical normal-score level.
        let spike_peak = spiked_scores[60..70]
            .iter()
            .copied()
            .fold(f32::MIN, f32::max);
        assert!(
            spike_peak > normal_mean * 1.2,
            "spike variance {spike_peak} vs normal mean {normal_mean}"
        );
    }

    #[test]
    fn prediction_error_rule_also_detects_spikes() {
        let train = wave_series(300, 2);
        let mut det = VaradeDetector::with_scoring(tiny_config(), ScoringRule::PredictionError);
        assert_eq!(det.scoring_rule(), ScoringRule::PredictionError);
        det.fit(&train).unwrap();
        let normal = wave_series(100, 2);
        let spiked = spiked_copy(&normal, 60, 64, 4.0);
        let spiked_scores = det.score_series(&spiked).unwrap();
        let normal_scores = det.score_series(&normal).unwrap();
        let normal_max = normal_scores.iter().copied().fold(f32::MIN, f32::max);
        assert!(spiked_scores[60] > normal_max);
    }

    #[test]
    fn fit_with_report_exposes_loss_curves() {
        let train = wave_series(150, 2);
        let mut det = VaradeDetector::new(tiny_config());
        let report = det.fit_with_report(&train).unwrap();
        assert_eq!(report.epoch_losses.len(), tiny_config().epochs);
    }

    #[test]
    fn misuse_is_rejected() {
        let mut det = VaradeDetector::new(tiny_config());
        assert!(det.score_series(&wave_series(50, 2)).is_err());
        assert!(det.profile().is_err());
        assert!(det.score_window(&[0.0; 16], &[0.0; 2]).is_err());
        assert!(det.fit(&wave_series(4, 2)).is_err());
        det.fit(&wave_series(100, 2)).unwrap();
        assert!(det.score_series(&wave_series(100, 3)).is_err());
        assert!(det.score_series(&wave_series(5, 2)).is_err());
        assert!(det.score_window(&[0.0; 7], &[0.0; 2]).is_err());
        assert!(det.score_window(&[0.0; 16], &[0.0; 3]).is_err());
    }

    #[test]
    fn score_series_rejects_non_finite_samples_by_step_and_channel() {
        use varade_timeseries::SeriesError;
        let mut det = VaradeDetector::new(tiny_config());
        det.fit(&wave_series(100, 2)).unwrap();
        let clean = wave_series(40, 2);
        // A warm-up row, a scored row, and the last row (scored, never
        // ingested): each is refused before any of the series is scored.
        for (step, channel, bad) in [
            (3, 0, f32::NAN),
            (17, 1, f32::INFINITY),
            (39, 1, f32::NEG_INFINITY),
        ] {
            let mut data = clean.as_slice().to_vec();
            data[step * 2 + channel] = bad;
            let test =
                MultivariateSeries::from_rows(clean.channel_names().to_vec(), 10.0, data).unwrap();
            match det.score_series(&test) {
                Err(DetectorError::Series(SeriesError::NonFiniteValue {
                    step: s,
                    channel: c,
                })) => assert_eq!((s, c), (step, channel)),
                other => panic!("{bad} at step {step}: expected NonFiniteValue, got {other:?}"),
            }
        }
        assert!(det.score_series(&clean).is_ok());
    }

    #[test]
    fn score_window_matches_series_scoring() {
        let train = wave_series(200, 2);
        let mut det = VaradeDetector::new(tiny_config());
        assert!(det.n_channels().is_none());
        det.fit(&train).unwrap();
        assert_eq!(det.n_channels(), Some(2));
        let test = wave_series(40, 2);
        let series_scores = det.score_series(&test).unwrap();
        // `score_series` runs one incremental pass; `score_window` recomputes
        // each window in full through `forward_infer`. Both run the same
        // per-output arithmetic, so they agree bit for bit.
        let windows = WindowIter::forecasting(&test, tiny_config().window, 1).unwrap();
        let mut checked = 0;
        for w in windows {
            let manual = det.score_window(&w.context, &w.target).unwrap();
            let series = series_scores[w.target_index];
            assert_eq!(
                manual.to_bits(),
                series.to_bits(),
                "window {}: score_window {manual} vs score_series {series}",
                w.target_index
            );
            checked += 1;
        }
        assert_eq!(checked, test.len() - tiny_config().window);
    }

    #[test]
    fn profile_reports_positive_cost_after_fit() {
        let mut det = VaradeDetector::new(tiny_config());
        det.fit(&wave_series(100, 2)).unwrap();
        let p = det.profile().unwrap();
        assert!(p.flops > 0.0);
        assert!(p.param_bytes > 0.0);
    }
}
