//! Per-layer attribution from outside the program.
//!
//! [`Mirror`] rebuilds a fitted detector's network layer by layer from the
//! public `varade_tensor::layers` types, copies the fitted weights in through
//! `visit_tensors`/`visit_tensors_mut`, and then times each layer's
//! `forward_incremental` or `forward_infer` call on its own. The mirror's
//! head output must reproduce the detector's score on every push, which
//! proves the timed layers are the ones the detector runs.
//!
//! [`PushProbe`] splits one stream push into the calls it is made of —
//! `StreamState::admit`, `VaradeDetector::score_window_incremental`, the
//! normalizer, `StreamingWindow::push` and the mirror's layers — on shadow
//! copies fed the same samples as the real stream.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use varade::{EncoderCache, ScoringRule, StreamState, StreamingVarade, VaradeDetector};
use varade_tensor::layers::{Conv1d, Flatten, IncrementalCache, Linear, Relu, StreamStep};
use varade_tensor::numerics::clamp_log_var;
use varade_tensor::{join_tensor_name, Layer, Tensor};
use varade_timeseries::{MinMaxNormalizer, MultivariateSeries, StreamingWindow};

use crate::report::Report;
use crate::stats::{mean, median, micros, nanos, same_score};

/// The metric label of each convolution, in network order.
const CONV_LABELS: [&str; 5] = ["conv0", "conv1", "conv2", "conv3", "conv4"];

/// Accumulated time and calls per mirror layer.
pub struct LayerTimes {
    ns: Vec<u64>,
    calls: Vec<u64>,
    flops: Vec<f64>,
}

impl LayerTimes {
    fn add(&mut self, layer: usize, elapsed: Duration, flops: f64) {
        self.ns[layer] += elapsed.as_nanos() as u64;
        self.calls[layer] += 1;
        self.flops[layer] += flops;
    }

    fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }
}

/// A layer-by-layer copy of a fitted detector's network.
pub struct Mirror {
    layers: Vec<Box<dyn Layer>>,
    /// Metric label per layer (`conv0`, `relu`, `flatten`, `head`, ...).
    labels: Vec<&'static str>,
    /// Input shape of each layer for a `[1, channels, window]` stream.
    stream_shapes: Vec<Vec<usize>>,
    caches: Vec<IncrementalCache>,
    /// FLOPs of one incremental call per layer: one output column of a
    /// convolution, one head evaluation (from `Layer::profile` on the
    /// column's shape).
    column_flops: Vec<f64>,
    /// The head output of the newest full window, `[mean..., log_var...]`.
    head: Option<Vec<f32>>,
    scoring: ScoringRule,
    n_channels: usize,
}

impl Mirror {
    /// Rebuilds `detector`'s network and copies its fitted weights.
    ///
    /// # Errors
    ///
    /// Fails when the detector is unfitted, when a layer kind or shape is one
    /// the mirror cannot rebuild, or when a weight tensor does not transfer.
    pub fn of(detector: &VaradeDetector) -> Result<Self, String> {
        let model = detector.model().ok_or("mirror of an unfitted detector")?;
        let n_channels = detector
            .n_channels()
            .ok_or("mirror of an unfitted detector")?;
        let window = detector.config().window;
        let summary = model.summary();
        let mut params: Vec<Vec<(String, Tensor)>> = vec![Vec::new(); summary.len()];
        let mut bad_name = None;
        model.visit_tensors("net", &mut |name, t| match name
            .split('.')
            .nth(1)
            .and_then(|i| i.parse::<usize>().ok())
        {
            Some(i) if i < params.len() => params[i].push((name.to_string(), t.clone())),
            _ => bad_name = Some(name.to_string()),
        });
        if let Some(name) = bad_name {
            return Err(format!("unexpected model tensor {name}"));
        }

        let mut rng = StdRng::seed_from_u64(0);
        let mut shape = vec![1, n_channels, window];
        let mut layers: Vec<Box<dyn Layer>> = Vec::with_capacity(summary.len());
        let mut labels = Vec::with_capacity(summary.len());
        let mut stream_shapes = Vec::with_capacity(summary.len());
        let mut column_flops = Vec::with_capacity(summary.len());
        let mut convs = 0;
        for (i, row) in summary.iter().enumerate() {
            let weight_shape = params[i]
                .iter()
                .find(|(n, _)| n.ends_with(".weight"))
                .map(|(_, t)| t.shape().to_vec());
            let (mut layer, label, column): (Box<dyn Layer>, &'static str, Vec<usize>) =
                match (row.name.as_str(), weight_shape.as_deref()) {
                    ("conv1d", Some(&[out, inp, k])) => {
                        let label = *CONV_LABELS
                            .get(convs)
                            .ok_or("more convolutions than the metric catalogue names")?;
                        convs += 1;
                        (
                            Box::new(Conv1d::new(inp, out, k, k, 0, &mut rng)),
                            label,
                            vec![1, inp, k],
                        )
                    }
                    ("relu", None) => (Box::new(Relu::new()), "relu", Vec::new()),
                    ("flatten", None) => (Box::new(Flatten::new()), "flatten", Vec::new()),
                    ("linear", Some(&[out, inp])) => (
                        Box::new(Linear::new(inp, out, &mut rng)),
                        "head",
                        vec![1, inp],
                    ),
                    (name, w) => return Err(format!("cannot mirror layer {i}: {name} {w:?}")),
                };
            if layer.output_shape(&shape) != row.output_shape {
                return Err(format!(
                    "mirror layer {i} ({}) maps {shape:?} to {:?}, the model to {:?}",
                    row.name,
                    layer.output_shape(&shape),
                    row.output_shape
                ));
            }
            let mut copied = 0;
            let mut mismatch = None;
            layer.visit_tensors_mut(&join_tensor_name("net", &i.to_string()), &mut |name, t| {
                match params[i].iter().find(|(n, _)| n == name) {
                    Some((_, src)) if src.shape() == t.shape() => {
                        *t = src.clone();
                        copied += 1;
                    }
                    _ => mismatch = Some(name.to_string()),
                }
            });
            if let Some(name) = mismatch {
                return Err(format!("weight {name} does not transfer to the mirror"));
            }
            if copied != params[i].len() {
                return Err(format!(
                    "layer {i}: copied {copied} of {} tensors",
                    params[i].len()
                ));
            }
            layer.set_backend(detector.backend_kind());
            column_flops.push(if column.is_empty() {
                0.0
            } else {
                layer.profile(&column).flops
            });
            stream_shapes.push(shape.clone());
            shape = row.output_shape.clone();
            layers.push(layer);
            labels.push(label);
        }
        let mut mirror = Self {
            layers,
            labels,
            stream_shapes,
            caches: Vec::new(),
            column_flops,
            head: None,
            scoring: detector.scoring_rule(),
            n_channels,
        };
        mirror.reset()?;
        Ok(mirror)
    }

    /// Plans fresh incremental caches: the next pushes prime the network.
    fn reset(&mut self) -> Result<(), String> {
        self.caches = self
            .layers
            .iter()
            .zip(&self.stream_shapes)
            .map(|(l, s)| l.make_incremental_cache(s))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("mirror cache: {e}"))?;
        self.head = None;
        Ok(())
    }

    pub fn new_times(&self) -> LayerTimes {
        let n = self.layers.len();
        LayerTimes {
            ns: vec![0; n],
            calls: vec![0; n],
            flops: vec![0.0; n],
        }
    }

    /// Scores a normalized sample against the newest full window, the way
    /// the detector's rule does; `None` while priming.
    pub fn score(&self, row: &[f32]) -> Option<f32> {
        let head = self.head.as_ref()?;
        Some(score_head(self.scoring, self.n_channels, head, row))
    }

    /// Feeds one normalized sample through every layer's
    /// `forward_incremental`, timing each call.
    pub fn push(&mut self, row: &[f32], times: &mut LayerTimes) -> Result<(), String> {
        let mut step = StreamStep::Column {
            stream: 0,
            values: row.to_vec(),
        };
        for (i, layer) in self.layers.iter().enumerate() {
            let started = Instant::now();
            let out = layer.forward_incremental(step, &mut self.caches[i]);
            times.add(i, started.elapsed(), self.column_flops[i]);
            match out.map_err(|e| format!("mirror layer {i}: {e}"))? {
                Some(next) => step = next,
                None => return Ok(()),
            }
        }
        match step {
            StreamStep::Features(v) => {
                self.head = Some(v);
                Ok(())
            }
            _ => Err("mirror head emitted no feature vector".into()),
        }
    }

    /// Runs a `[batch, channels, window]` batch through every layer's
    /// `forward_infer`, timing each call and counting its FLOPs from
    /// `Layer::profile`; returns the head output `[batch, 2 * channels]`.
    pub fn infer(&self, x: &Tensor, times: &mut LayerTimes) -> Result<Tensor, String> {
        let mut current = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let flops = layer.profile(current.shape()).flops;
            let started = Instant::now();
            let out = layer.forward_infer(&current);
            times.add(i, started.elapsed(), flops);
            current = out.map_err(|e| format!("mirror layer {i}: {e}"))?;
        }
        Ok(current)
    }

    /// Scores row `b` of a batched head output against its target sample.
    pub fn score_batch_row(&self, head: &Tensor, b: usize, target: &[f32]) -> f32 {
        let width = 2 * self.n_channels;
        let row = &head.as_slice()[b * width..(b + 1) * width];
        score_head(self.scoring, self.n_channels, row, target)
    }

    /// Writes per-layer `ns`/`gflops` metrics under `prefix` (`tensor.inc`
    /// or `tensor.infer`), per unit of `per` (scores or windows). Returns
    /// the summed layer time per unit, in nanoseconds.
    pub fn report(&self, times: &LayerTimes, prefix: &str, per: f64, report: &mut Report) -> f64 {
        let suffix = if prefix == "tensor.inc" {
            "ns"
        } else {
            "ns_per_window"
        };
        let mut labels = self.labels.clone();
        labels.sort_unstable();
        labels.dedup();
        for label in labels {
            let (mut ns, mut flops) = (0u64, 0.0f64);
            for (i, l) in self.labels.iter().enumerate() {
                if *l == label {
                    ns += times.ns[i];
                    flops += times.flops[i];
                }
            }
            report.set(&format!("{prefix}.{label}.{suffix}"), ns as f64 / per);
            if label.starts_with("conv") || label == "head" {
                let gflops = if ns > 0 { flops / ns as f64 } else { 0.0 };
                report.set(&format!("{prefix}.{label}.gflops"), gflops);
            }
        }
        times.total_ns() as f64 / per
    }
}

/// The detector's scoring rule applied to a raw head output
/// `[mean..., log_var...]` and the sample that followed the window.
fn score_head(scoring: ScoringRule, n_channels: usize, head: &[f32], row: &[f32]) -> f32 {
    let (mu, log_var) = head.split_at(n_channels);
    match scoring {
        ScoringRule::Variance => {
            let mut acc = 0.0f32;
            for &lv in log_var {
                acc += clamp_log_var(lv).exp();
            }
            acc / n_channels as f32
        }
        ScoringRule::PredictionError => {
            let mut acc = 0.0f32;
            for (m, x) in mu.iter().zip(row) {
                let d = m - x;
                acc += d * d;
            }
            acc.sqrt()
        }
    }
}

/// Per-push decomposition of a stream's push path on shadow copies.
pub struct PushProbe {
    normalizer: Option<MinMaxNormalizer>,
    state: StreamState,
    cache: EncoderCache,
    window: StreamingWindow,
    mirror: Mirror,
    tolerance: Option<f64>,
    times: LayerTimes,
    admit_ns: u64,
    score_ns: u64,
    normalize_ns: u64,
    window_ns: u64,
    window_bytes: u64,
    /// Pushes and scores counted while timing.
    pushes: u64,
    scores: u64,
    pub mismatches: u64,
    pub checks: u64,
}

impl PushProbe {
    pub fn new(
        detector: &VaradeDetector,
        normalizer: Option<MinMaxNormalizer>,
    ) -> Result<Self, String> {
        let n_channels = detector
            .n_channels()
            .ok_or("probe of an unfitted detector")?;
        let window = detector.config().window;
        let mirror = Mirror::of(detector)?;
        Ok(Self {
            state: StreamState::new(n_channels, window, normalizer.clone())
                .map_err(|e| e.to_string())?,
            cache: detector.incremental_cache().map_err(|e| e.to_string())?,
            window: StreamingWindow::new(n_channels, window).map_err(|e| e.to_string())?,
            times: mirror.new_times(),
            mirror,
            normalizer,
            tolerance: detector.backend_kind().score_tolerance(),
            admit_ns: 0,
            score_ns: 0,
            normalize_ns: 0,
            window_ns: 0,
            window_bytes: 0,
            pushes: 0,
            scores: 0,
            mismatches: 0,
            checks: 0,
        })
    }

    /// Feeds one raw sample through every shadow path. `served` is the
    /// score the real stream returned for it (`None` while warming up);
    /// both shadow scores must equal it. Timings accumulate when `timed`.
    pub fn step(
        &mut self,
        detector: &VaradeDetector,
        raw: &[f32],
        served: Option<f32>,
        timed: bool,
    ) -> Result<(), String> {
        let started = Instant::now();
        let request = self.state.admit(raw).map_err(|e| format!("admit: {e}"))?;
        let admit = started.elapsed();

        let mut score = Duration::ZERO;
        if let Some(req) = &request {
            let started = Instant::now();
            let s = detector
                .score_window_incremental(&mut self.cache, &req.context, &req.row)
                .map_err(|e| format!("score_window_incremental: {e}"))?;
            score = started.elapsed();
            self.check(served, Some(s));
        }

        let started = Instant::now();
        let mut row = raw.to_vec();
        if let Some(norm) = &self.normalizer {
            norm.transform_row(&mut row)
                .map_err(|e| format!("normalize: {e}"))?;
        }
        let normalize = started.elapsed();

        let started = Instant::now();
        let context = self.window.push(&row).map_err(|e| format!("window: {e}"))?;
        let window = started.elapsed();
        let bytes = context.map_or(0, |c| (c.len() * std::mem::size_of::<f32>()) as u64);

        if served.is_some() {
            self.check(served, self.mirror.score(&row));
        }
        let mut scratch;
        let times = if timed {
            &mut self.times
        } else {
            scratch = self.mirror.new_times();
            &mut scratch
        };
        self.mirror.push(&row, times)?;

        if timed {
            self.pushes += 1;
            self.scores += u64::from(served.is_some());
            self.admit_ns += admit.as_nanos() as u64;
            self.score_ns += score.as_nanos() as u64;
            self.normalize_ns += normalize.as_nanos() as u64;
            self.window_ns += window.as_nanos() as u64;
            self.window_bytes += bytes;
        }
        Ok(())
    }

    fn check(&mut self, served: Option<f32>, shadow: Option<f32>) {
        if let Some(want) = served {
            self.checks += 1;
            if !shadow.is_some_and(|got| same_score(got, want, self.tolerance)) {
                self.mismatches += 1;
            }
        }
    }

    /// Writes the push decomposition. `push_ns` is the untraced per-score
    /// push time the rows must account for.
    pub fn report(&self, push_ns: f64, report: &mut Report) {
        let per_push = self.pushes.max(1) as f64;
        let per_score = self.scores.max(1) as f64;
        let layers_ns = self
            .mirror
            .report(&self.times, "tensor.inc", per_score, report);
        let admit_ns = self.admit_ns as f64 / per_push;
        report.set(
            "tensor.inc.calls_per_score",
            self.times.total_calls() as f64 / per_score,
        );
        report.set(
            "timeseries.normalize.ns",
            self.normalize_ns as f64 / per_push,
        );
        report.set(
            "timeseries.window_push.ns",
            self.window_ns as f64 / per_push,
        );
        report.set(
            "timeseries.window_bytes_per_push",
            self.window_bytes as f64 / per_push,
        );
        report.set("core.admit.ns", admit_ns);
        report.set(
            "core.score_incremental.ns",
            self.score_ns as f64 / per_score,
        );
        report.set("core.push.ns", push_ns);
        // Rows: layers + non-model = push; non-model = admit + remainder.
        let non_model = push_ns - layers_ns;
        report.set("core.non_model.ns", non_model);
        report.set("core.unattributed.ns", non_model - admit_ns);
        report.set("core.non_model_share", non_model / push_ns);
    }
}

/// The outcome of [`probe_stream`].
pub struct ProbeRun {
    /// Per-push `StreamingVarade::push` times of the untraced phase, in ns.
    pub untraced_ns: Vec<f64>,
    /// The same pushes' times while the probe ran beside them, in ns.
    pub traced_ns: Vec<f64>,
    pub probe: PushProbe,
    /// Pushes checked against the workload's reference, and how many failed.
    pub checked: u64,
    pub failed: u64,
}

/// A single-stream traced probe: the stream warms up (its first score pays
/// the cold replay), an untraced phase times the plain
/// `StreamingVarade::push` path, then a traced phase repeats each push and
/// runs the [`PushProbe`] decomposition beside it. `row_at(k)` is the raw
/// sample of push `k`; `check(k, score)` validates each served score
/// against the workload's reference. `normalizer` is the one the stream was
/// built with.
pub fn probe_stream<'a>(
    mut stream: StreamingVarade,
    probe_detector: &VaradeDetector,
    normalizer: Option<MinMaxNormalizer>,
    row_at: &dyn Fn(usize) -> &'a [f32],
    check: &dyn Fn(usize, f32) -> bool,
    untraced: Duration,
    traced: Duration,
) -> Result<ProbeRun, String> {
    let window = probe_detector.config().window;
    let mut failed = 0;
    let mut checked = 0;
    let mut push = |k: usize, stream: &mut StreamingVarade| -> Result<(Option<f32>, f64), String> {
        let started = Instant::now();
        let score = stream.push(row_at(k)).map_err(|e| format!("push: {e}"))?;
        let ns = nanos(started.elapsed());
        if k >= window {
            checked += 1;
            failed += u64::from(!score.is_some_and(|s| check(k, s)));
        }
        Ok((score, ns))
    };
    let mut k = 0usize;
    while k <= window {
        push(k, &mut stream)?;
        k += 1;
    }
    let mut untraced_ns = Vec::new();
    let deadline = Instant::now() + untraced;
    while Instant::now() < deadline {
        untraced_ns.push(push(k, &mut stream)?.1);
        k += 1;
    }
    // Prime the shadows on the last window + 1 samples, untimed.
    let mut probe = PushProbe::new(probe_detector, normalizer)?;
    for j in k - window - 1..k {
        probe.step(probe_detector, row_at(j), None, false)?;
    }
    let mut traced_ns = Vec::new();
    let deadline = Instant::now() + traced;
    while Instant::now() < deadline {
        let (score, ns) = push(k, &mut stream)?;
        traced_ns.push(ns);
        probe.step(probe_detector, row_at(k), score, true)?;
        k += 1;
    }
    Ok(ProbeRun {
        untraced_ns,
        traced_ns,
        probe,
        checked,
        failed,
    })
}

impl ProbeRun {
    /// Writes the probe's per-layer rows against the untraced push time and
    /// counts its checks. Returns the tracer's overhead on the push, in
    /// percent.
    pub fn report(&self, report: &mut Report) -> f64 {
        self.probe.report(mean(&self.untraced_ns), report);
        report.count(
            self.checked + self.probe.checks,
            self.failed + self.probe.mismatches,
        );
        (median(&self.traced_ns) / median(&self.untraced_ns) - 1.0) * 100.0
    }
}

/// Median time of a cold `score_window_incremental` — a fresh cache that
/// replays the whole context — on the first window of `series`, in µs. Every
/// stream pays this once, at its first score.
pub fn cold_replay_us(
    detector: &VaradeDetector,
    series: &MultivariateSeries,
) -> Result<f64, String> {
    let window = detector.config().window;
    let n_channels = series.n_channels();
    let mut context = Vec::with_capacity(n_channels * window);
    for c in 0..n_channels {
        for t in 0..window {
            context.push(series.value(t, c));
        }
    }
    let row = series.row(window);
    let mut times = Vec::new();
    for _ in 0..15 {
        let mut cache = detector.incremental_cache().map_err(|e| e.to_string())?;
        let started = Instant::now();
        detector
            .score_window_incremental(&mut cache, &context, row)
            .map_err(|e| format!("cold replay: {e}"))?;
        times.push(micros(started.elapsed()));
    }
    Ok(median(&times))
}
