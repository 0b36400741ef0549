//! Set-up shared by the workloads: the scaled robot dataset and model, and
//! the persist round trip every served model goes through. The dataset and model seeds are fixed, so `auc` compares
//! across commits; only the workload seed varies between runs.

use std::time::Instant;

use varade::{ModelArtifact, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_edge::table::ExperimentConfig;
use varade_robot::dataset::{DatasetBuilder, RobotDataset};
use varade_timeseries::{MinMaxNormalizer, MultivariateSeries};

use crate::report::Report;
use crate::stats::{median, percentile_of};

/// Seconds spent in each set-up stage.
#[derive(Clone, Copy, Default)]
pub struct Stages {
    pub dataset_s: f64,
    pub fit_s: f64,
    pub model_load_ms: f64,
}

/// A fitted model after its persist round trip.
pub struct Served {
    /// The detector as loaded back from `bytes`.
    pub detector: VaradeDetector,
    /// The persisted artifact; load it again for an independent reference
    /// copy of the same weights.
    pub bytes: Vec<u8>,
    pub normalizer: Option<MinMaxNormalizer>,
}

impl Served {
    /// Another detector with bit-identical weights, loaded from the artifact.
    pub fn reload(&self) -> Result<VaradeDetector, String> {
        Ok(ModelArtifact::from_bytes(&self.bytes)
            .map_err(|e| format!("reload: {e}"))?
            .detector)
    }
}

/// Persists a fitted detector (with its normalizer) to bytes and loads it
/// back, timing the load.
fn round_trip(
    detector: VaradeDetector,
    normalizer: Option<MinMaxNormalizer>,
    stages: &mut Stages,
) -> Result<Served, String> {
    let mut artifact = ModelArtifact::new(detector);
    artifact.normalizer = normalizer;
    let bytes = artifact.to_bytes().map_err(|e| format!("save: {e}"))?;
    let started = Instant::now();
    let loaded = ModelArtifact::from_bytes(&bytes).map_err(|e| format!("load: {e}"))?;
    stages.model_load_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok(Served {
        detector: loaded.detector,
        bytes,
        normalizer: loaded.normalizer,
    })
}

/// The scaled robot experiment: dataset, the window-64 model fitted on its
/// normal split, and the test split rebuilt as raw sensor rows.
pub struct Robot {
    pub dataset: RobotDataset,
    /// Raw test rows, row-major `[rows, channels]`, rebuilt from the scaled
    /// split with the training normalizer's inverse.
    pub raw: Vec<f32>,
    pub n_rows: usize,
    pub n_channels: usize,
    pub served: Served,
    pub stages: Stages,
}

impl Robot {
    pub fn build() -> Result<Self, String> {
        let config = ExperimentConfig::scaled();
        let mut stages = Stages::default();
        let started = Instant::now();
        let dataset = DatasetBuilder::new(config.dataset)
            .build()
            .map_err(|e| format!("dataset: {e}"))?;
        stages.dataset_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let mut detector = VaradeDetector::new(config.detectors.varade);
        detector
            .fit(&dataset.train)
            .map_err(|e| format!("fit: {e}"))?;
        stages.fit_s = started.elapsed().as_secs_f64();

        let served = round_trip(detector, Some(dataset.normalizer.clone()), &mut stages)?;
        let (n_rows, n_channels) = (dataset.test.len(), dataset.test.n_channels());
        let mut raw = Vec::with_capacity(n_rows * n_channels);
        for t in 0..n_rows {
            for c in 0..n_channels {
                raw.push(
                    dataset
                        .normalizer
                        .inverse_value(c, dataset.test.value(t, c)),
                );
            }
        }
        Ok(Self {
            dataset,
            raw,
            n_rows,
            n_channels,
            served,
            stages,
        })
    }

    /// Raw row `k` of the test split, wrapping around its end.
    pub fn raw_row(&self, k: usize) -> &[f32] {
        let t = k % self.n_rows;
        &self.raw[t * self.n_channels..(t + 1) * self.n_channels]
    }

    pub fn window(&self) -> usize {
        self.served.detector.config().window
    }

    /// The training normalizer, as loaded back with the model.
    pub fn normalizer(&self) -> &MinMaxNormalizer {
        self.served
            .normalizer
            .as_ref()
            .expect("the robot artifact bundles its normalizer")
    }

    /// The rows a stream starting at `offset` sees for pushes `0..len`,
    /// normalized exactly as the streaming path normalizes them.
    pub fn normalized_series(
        &self,
        offset: usize,
        len: usize,
    ) -> Result<MultivariateSeries, String> {
        let mut data = Vec::with_capacity(len * self.n_channels);
        for k in 0..len {
            let mut row = self.raw_row(offset + k).to_vec();
            self.normalizer()
                .transform_row(&mut row)
                .map_err(|e| format!("normalize: {e}"))?;
            data.extend_from_slice(&row);
        }
        MultivariateSeries::from_rows(
            self.dataset.test.channel_names().to_vec(),
            self.dataset.test.sample_rate_hz(),
            data,
        )
        .map_err(|e| format!("series: {e}"))
    }

    /// Ground-truth label of push `k` of a stream starting at `offset`.
    pub fn label(&self, offset: usize, k: usize) -> bool {
        self.dataset.labels[(offset + k) % self.n_rows]
    }
}

/// Set-up repetitions on each side of the served phase; `setup_s` is the
/// lower quartile of all of them (see [`finish`]).
const SETUP_REPS: usize = 5;

/// Runs `build` [`SETUP_REPS`] times, keeping the last result, and returns
/// it with each repetition's wall time in seconds. Earlier results are
/// dropped before the next repetition starts, so peak memory holds one copy.
pub fn repeat<T>(
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(2 * SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let started = Instant::now();
        let value = build()?;
        times.push(started.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("at least one repetition"), times))
}

/// Times [`SETUP_REPS`] more set-ups after the served phase and writes
/// `setup_s`, the lower quartile of these and the `times` [`repeat`] took
/// before it; the median goes to the notes. Contention on a shared host
/// comes in spells, and set-ups at both ends of the run sample two of them,
/// not one. A spell can still cover most of a run: in seven straight
/// `batch-score` runs the median set-up read 0.85-1.02 s against 0.55-0.64
/// s in the ten before them, which moved the median over ten runs by 49%.
/// The lower quartile reads the uncontended set-up as long as three of the
/// ten see it, as the kept rounds do for the served phase.
pub fn finish<T>(
    mut times: Vec<f64>,
    build: impl FnMut() -> Result<T, String>,
    report: &mut Report,
) -> Result<(), String> {
    times.extend(repeat(build)?.1);
    report.set("setup_s", percentile_of(&times, 25.0));
    report.note("all_setups.median_s", median(&times));
    Ok(())
}
