//! `edge-single`: one robot, one inference script (paper §4.3).
//!
//! Closed loop: raw 86-channel rows, rebuilt from the scaled test split with
//! `MinMaxNormalizer::inverse_value`, go one at a time through
//! `StreamingVarade::push` with the training normalizer; the split loops
//! from a seed-chosen offset. The stream's warm-up window and its first
//! (cold-replay) score are not timed. Every score must equal the batch path
//! (`score_series` over the same normalized rows) — bit for bit on the
//! scalar backend.

use std::time::{Duration, Instant};

use varade::StreamingVarade;
use varade_detectors::AnomalyDetector;

use crate::host::{process_cpu_ns, reset_rss_peak, rss_peak_mb};
use crate::mirror::{cold_replay_us, probe_stream};
use crate::report::Report;
use crate::setup::{self, Robot};
use crate::stats::{micros, mix, same_score, Rounds};
use crate::Args;

/// Length of one timed round (see [`Rounds`]). Contention slows a varying
/// share of pushes even in the cheapest half-second rounds; rounds of
/// 0.1 s find cleaner stretches, and kept p95 ranged 28.7-32.9 µs across
/// four seeds against 29.8-37.5 µs with 0.5 s rounds.
const ROUND: Duration = Duration::from_millis(100);
/// Pushes per round whose latency is kept: the first this many (a round
/// holds about 3 000 on the reference host). A fixed count keeps the run's
/// latency log the same size whatever the push rate, so the log does not
/// move `rss_peak_mb`.
const LATENCY_SAMPLES: usize = 2048;

fn build() -> Result<(Robot, StreamingVarade), String> {
    let robot = Robot::build()?;
    let stream = StreamingVarade::new(
        robot.served.reload()?,
        robot.n_channels,
        Some(robot.normalizer().clone()),
    )
    .map_err(|e| format!("stream: {e}"))?;
    Ok((robot, stream))
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let ((robot, stream), setup_times) = setup::repeat(build)?;
    report.set("setup.dataset_s", robot.stages.dataset_s);
    report.set("setup.fit_s", robot.stages.fit_s);
    report.set("setup.model_load_ms", robot.stages.model_load_ms);

    let (w, n) = (robot.window(), robot.n_rows);
    let offset = (mix(args.seed, 1) % n as u64) as usize;
    // The looped stream is periodic: push k >= w scores the same window as
    // push w + (k - w) % n, so one period of the batch path is the
    // reference.
    let series = robot.normalized_series(offset, w + n)?;
    let reference = robot
        .served
        .reload()?
        .score_series(&series)
        .map_err(|e| format!("reference: {e}"))?;
    let tolerance = stream.backend_kind().score_tolerance();
    let expected = |k: usize| reference[w + (k - w) % n];
    let check = |k: usize, s: f32| same_score(s, expected(k), tolerance);
    let row_at = |k: usize| robot.raw_row(offset + k);
    report.set("core.cache_replays", 1.0);
    report.set(
        "core.cold_replay_us",
        cold_replay_us(&robot.served.detector, &series)?,
    );
    reset_rss_peak()?;

    if args.trace {
        let phase = args.seconds.mul_f64(0.5);
        let run = probe_stream(
            stream,
            &robot.served.detector,
            Some(robot.normalizer().clone()),
            &row_at,
            &check,
            phase,
            phase,
        )?;
        let overhead = run.report(report);
        report.set("trace.overhead_pct", overhead);
        return Ok(());
    }
    measure(stream, &robot, offset, &row_at, &check, args, report)?;
    setup::finish(setup_times, build, report)
}

/// The untraced closed loop: time every push, then check every score.
fn measure<'a>(
    mut stream: StreamingVarade,
    robot: &Robot,
    offset: usize,
    row_at: &dyn Fn(usize) -> &'a [f32],
    check: &dyn Fn(usize, f32) -> bool,
    args: &Args,
    report: &mut Report,
) -> Result<(), String> {
    let (w, n) = (robot.window(), robot.n_rows);
    // Scores are checked as they come; the first full pass of the split is
    // kept for `auc`, so memory does not grow with the run.
    let mut first_pass = Vec::with_capacity(n);
    let (mut pushed, mut failed) = (0u64, 0u64);
    let mut served = |k: usize, score: Option<f32>| -> Result<(), String> {
        let s = score.ok_or("a warm stream returned no score")?;
        pushed += 1;
        failed += u64::from(!check(k, s));
        if first_pass.len() < n {
            first_pass.push(s);
        }
        Ok(())
    };
    for k in 0..w {
        stream.push(row_at(k)).map_err(|e| format!("push: {e}"))?;
    }
    let mut k = w;
    served(k, stream.push(row_at(k)).map_err(|e| format!("push: {e}"))?)?;
    k += 1;
    let mut rounds = Rounds::default();
    let mut push_us: Vec<f64> = Vec::with_capacity(LATENCY_SAMPLES);
    let mut round_pushes = 0;
    let deadline = Instant::now() + args.seconds;
    let (mut round_start, mut round_cpu) = (Instant::now(), process_cpu_ns());
    loop {
        let t0 = Instant::now();
        if t0 - round_start >= ROUND || t0 >= deadline {
            let cpu = process_cpu_ns();
            let wall = (t0 - round_start).as_secs_f64();
            rounds.add(round_pushes, wall, (cpu - round_cpu) as f64, &push_us);
            push_us.clear();
            round_pushes = 0;
            (round_start, round_cpu) = (t0, cpu);
            if t0 >= deadline {
                break;
            }
        }
        let score = stream.push(row_at(k)).map_err(|e| format!("push: {e}"))?;
        let us = micros(t0.elapsed());
        round_pushes += 1;
        if push_us.len() < LATENCY_SAMPLES {
            push_us.push(us);
        }
        served(k, score)?;
        k += 1;
    }
    report.set("rss_peak_mb", rss_peak_mb());
    report.count(pushed, failed);
    rounds.report(report)?;
    // AUC over the first full pass of the split from the stream's offset.
    let labels: Vec<bool> = (0..first_pass.len())
        .map(|i| robot.label(offset, w + i))
        .collect();
    let auc = varade_metrics::auc_roc(&first_pass, &labels).map_err(|e| format!("auc: {e}"))?;
    report.set("auc", auc);
    Ok(())
}
