//! `batch-score`: offline evaluation over the whole test split.
//!
//! Repeated `VaradeDetector::score_series` calls over the 3750-row scaled
//! test split, the way offline evaluation calls it: one call scores every
//! window of the split, materializing all ~3686 `[86, 64]` windows before
//! `score_series` runs them through `forward_infer` in batches of its own.
//! This is the only workload on the full-window `forward_infer` path, with
//! its tiled k2/s2 kernels. One operation is one window; latency is per
//! call. Every score must equal a reference scored at set-up through the
//! independent incremental path (`StreamState::push_against`) — bit for bit
//! on the scalar backend. The workload has no seeded input: the split is
//! fixed.

use std::time::Instant;

use varade::{StreamState, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_tensor::Tensor;
use varade_timeseries::{MultivariateSeries, WindowIter};

use crate::host::{process_cpu_ns, reset_rss_peak, rss_peak_mb};
use crate::mirror::{LayerTimes, Mirror};
use crate::report::Report;
use crate::setup::{self, Robot};
use crate::stats::{median, micros, same_score, Rounds};
use crate::Args;

/// One `score_series` call over the whole split, checked against
/// `reference`; returns the scores of windows `w..n` and the call's time.
fn pass(
    detector: &mut VaradeDetector,
    series: &MultivariateSeries,
    reference: &[f32],
    report: &mut Report,
) -> Result<(Vec<f32>, f64), String> {
    let w = detector.config().window;
    let tolerance = detector.backend_kind().score_tolerance();
    let started = Instant::now();
    let mut scores = detector
        .score_series(series)
        .map_err(|e| format!("score_series: {e}"))?;
    let elapsed_us = micros(started.elapsed());
    scores.drain(..w);
    let mismatches = scores
        .iter()
        .zip(reference)
        .filter(|&(&got, &want)| !same_score(got, want, tolerance))
        .count()
        + scores.len().abs_diff(reference.len());
    report.count(reference.len() as u64, mismatches as u64);
    Ok((scores, elapsed_us))
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let (robot, setup_times) = setup::repeat(Robot::build)?;
    report.set("setup.dataset_s", robot.stages.dataset_s);
    report.set("setup.fit_s", robot.stages.fit_s);
    report.set("setup.model_load_ms", robot.stages.model_load_ms);

    let (w, n) = (robot.window(), robot.n_rows);
    let series = &robot.dataset.test;
    let labels: Vec<bool> = (w..n).map(|k| robot.label(0, k)).collect();
    let reference = incremental_reference(&robot, series)?;
    let mut detector = robot.served.reload()?;
    reset_rss_peak()?;

    // One untimed pass pages in the code path and gives the run's scores.
    let (scores, _) = pass(&mut detector, series, &reference, report)?;
    let auc = varade_metrics::auc_roc(&scores, &labels).map_err(|e| format!("auc: {e}"))?;
    report.set("auc", auc);

    if !args.trace {
        // Each call is one round, so a round never outlasts one call.
        let mut rounds = Rounds::default();
        let deadline = Instant::now() + args.seconds;
        while Instant::now() < deadline {
            let cpu = process_cpu_ns();
            let (_, us) = pass(&mut detector, series, &reference, report)?;
            let cpu_ns = (process_cpu_ns() - cpu) as f64;
            rounds.add(reference.len(), us / 1e6, cpu_ns, &[us]);
        }
        report.set("rss_peak_mb", rss_peak_mb());
        rounds.report(report)?;
        return setup::finish(setup_times, Robot::build, report);
    }

    // Traced: calls alone, then calls alternating with a mirror pass that
    // times each layer's forward_infer over the batches score_series forms.
    let mut untraced_us = Vec::new();
    let started = Instant::now();
    while started.elapsed() < args.seconds.mul_f64(0.4) {
        untraced_us.push(pass(&mut detector, series, &reference, report)?.1);
    }
    let mirror = Mirror::of(&robot.served.detector)?;
    let batch = robot.served.detector.config().batch_size;
    let batches = batches(series, w, batch)?;
    let tolerance = detector.backend_kind().score_tolerance();
    let mut times = mirror.new_times();
    let mut traced_us = Vec::new();
    let mut mirror_windows = 0u64;
    let started = Instant::now();
    while started.elapsed() < args.seconds.mul_f64(0.6) {
        traced_us.push(pass(&mut detector, series, &reference, report)?.1);
        mirror_windows +=
            mirror_pass(&mirror, &batches, &reference, tolerance, &mut times, report)?;
    }
    mirror.report(&times, "tensor.infer", mirror_windows as f64, report);
    report.set(
        "trace.overhead_pct",
        (median(&traced_us) / median(&untraced_us) - 1.0) * 100.0,
    );
    Ok(())
}

/// The split scored one push at a time through the incremental path: the
/// reference for every `score_series` window `w..n`.
fn incremental_reference(robot: &Robot, series: &MultivariateSeries) -> Result<Vec<f32>, String> {
    let detector = &robot.served.detector;
    let mut state =
        StreamState::new(series.n_channels(), robot.window(), None).map_err(|e| e.to_string())?;
    state.attach_cache(detector.incremental_cache().map_err(|e| e.to_string())?);
    let mut out = Vec::with_capacity(series.len());
    for t in 0..series.len() {
        if let Some(s) = state
            .push_against(series.row(t), detector)
            .map_err(|e| e.to_string())?
        {
            out.push(s);
        }
    }
    Ok(out)
}

/// One `[batch, channels, window]` input and the sample after each window.
type Batch = (Tensor, Vec<Vec<f32>>);

/// The split's windows as [`Batch`]es, chunked the way `score_series`
/// chunks them.
fn batches(
    series: &MultivariateSeries,
    window: usize,
    batch_size: usize,
) -> Result<Vec<Batch>, String> {
    let windows: Vec<_> = WindowIter::forecasting(series, window, 1)
        .map_err(|e| e.to_string())?
        .collect();
    windows
        .chunks(batch_size.max(1))
        .map(|chunk| {
            let data: Vec<f32> = chunk
                .iter()
                .flat_map(|w| w.context.iter().copied())
                .collect();
            let input = Tensor::from_vec(data, &[chunk.len(), series.n_channels(), window])
                .map_err(|e| e.to_string())?;
            Ok((input, chunk.iter().map(|w| w.target.clone()).collect()))
        })
        .collect()
}

/// One mirror pass over every batch; each mirror score must equal the
/// reference. Returns the windows scored.
fn mirror_pass(
    mirror: &Mirror,
    batches: &[Batch],
    reference: &[f32],
    tolerance: Option<f64>,
    times: &mut LayerTimes,
    report: &mut Report,
) -> Result<u64, String> {
    let mut i = 0;
    let mut mismatches = 0u64;
    for (input, targets) in batches {
        let head = mirror.infer(input, times)?;
        for (b, target) in targets.iter().enumerate() {
            let got = mirror.score_batch_row(&head, b, target);
            mismatches += u64::from(
                !reference
                    .get(i)
                    .is_some_and(|&want| same_score(got, want, tolerance)),
            );
            i += 1;
        }
    }
    report.count(i as u64, mismatches);
    Ok(i as u64)
}
