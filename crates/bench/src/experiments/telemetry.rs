//! Telemetry substrate overhead: what does turning `varade-obs` on cost the
//! serving hot path?
//!
//! The observability tentpole promises that a fully enabled substrate —
//! per-stage histograms, end-to-end recording, queue-depth gauges and the
//! structured event ring — costs at most a low single-digit percentage of
//! fleet throughput. This experiment measures that promise directly: the same
//! fitted detector and the same deterministic sample schedule are served
//! through two otherwise identical one-shard fleets, one with
//! [`TelemetryConfig::disabled`] and one with [`TelemetryConfig::enabled`],
//! interleaved over [`ROUNDS`] order-alternating disabled/enabled round
//! pairs. Each round's cost is its process CPU time where the platform
//! exposes it (wall-clock per-sample time otherwise) — CPU time is blind to
//! the scheduler interleaving that dominates wall clock on a small shared
//! runner. The headline `overhead_pct` compares the **sums of each mode's
//! [`TRIM_KEEP`] cheapest rounds**: scheduler noise only ever adds time to
//! a round, so the cheapest rounds are the least contaminated measurements
//! of each mode's true cost (see [`TRIM_KEEP`] for why this beats per-pair
//! medians here). The resulting `overhead_pct` is gated in CI by
//! `bench_floor.json` (`quick_max_telemetry_overhead_pct`).
//!
//! The enabled run's final snapshot also feeds the report's stage summary
//! (queue wait, model forward, end to end) through
//! [`LatencyStats::from_histogram`], so the overhead table and the stage
//! decomposition come from the same measured serve.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use varade::{VaradeConfig, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_fleet::{Fleet, FleetConfig, FleetError, TelemetryConfig, TelemetrySnapshot};
use varade_obs::Stage;
use varade_robot::dataset::RobotDataset;
use varade_timeseries::MultivariateSeries;

use crate::experiments::ExperimentScale;
use crate::timing::LatencyStats;
use crate::BenchError;

/// Interleaved measurement round pairs.
pub const ROUNDS: usize = 25;

/// How many of the cheapest rounds per mode feed the overhead estimate.
///
/// CPU-time noise on a small shared runner is one-sided: preemption,
/// frequency scaling and host steal only ever *add* time to a round, never
/// remove it, so the cheapest rounds of each mode are the least contaminated
/// measurements of that mode's true cost. Summing several cheap rounds per
/// mode (rather than taking each mode's single minimum) keeps the estimate
/// from hanging on one lucky round. Empirically this is by far the most stable
/// estimator on the reference container — per-pair medians swing by several
/// points run to run because whole-pair contamination survives the median.
pub const TRIM_KEEP: usize = 8;

/// Streams the overhead fleets serve.
const STREAMS: usize = 4;

/// Serializable outcome of the telemetry-overhead experiment — the
/// `telemetry` section of the v7 `BENCH_*.json` schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryResult {
    /// Interleaved disabled/enabled round pairs measured.
    pub rounds: usize,
    /// Streams served by each fleet.
    pub streams: usize,
    /// Samples pushed per stream per round.
    pub samples_per_stream: usize,
    /// Best-round throughput with the substrate disabled, in samples/sec.
    pub disabled_samples_per_sec: f64,
    /// Best-round throughput with the substrate fully enabled.
    pub enabled_samples_per_sec: f64,
    /// Relative cost of enabling telemetry, in percent:
    /// `(enabled_sum / disabled_sum - 1) * 100` over the sums of each
    /// mode's cheapest rounds, where a round's cost is its process-CPU time
    /// when measurable (Linux) and its wall-clock per-sample time otherwise.
    /// Negative means the enabled side's cheapest rounds came out cheaper,
    /// i.e. the cost is below measurement noise.
    pub overhead_pct: f64,
    /// Total per-stage spans recorded by the final enabled round.
    pub stage_spans: u64,
    /// Structured events recorded by the final enabled round.
    pub events_recorded: u64,
    /// Queue-wait stage distribution of the final enabled round.
    pub queue_wait: LatencyStats,
    /// Model-forward stage distribution of the final enabled round.
    pub forward: LatencyStats,
    /// End-to-end (enqueue → score) distribution of the final enabled round.
    pub end_to_end: LatencyStats,
}

fn fleet_err(err: FleetError) -> BenchError {
    BenchError::Report(format!("telemetry fleet: {err}"))
}

/// The tiny detector [`capture`] serves: single channel, window 8, a few
/// hundred parameters — large enough to exercise the real scoring path and
/// emit every stage span, small enough to train in milliseconds.
fn tiny_detector() -> Result<Arc<VaradeDetector>, BenchError> {
    let series_err = |e| BenchError::Report(format!("capture series: {e}"));
    let mut train = MultivariateSeries::new(vec!["capture".into()], 10.0).map_err(series_err)?;
    for t in 0..160 {
        train
            .push_row(&[(t as f32 * 0.37).sin()])
            .map_err(series_err)?;
    }
    let mut det = VaradeDetector::new(VaradeConfig {
        window: 8,
        base_feature_maps: 4,
        epochs: 1,
        batch_size: 8,
        learning_rate: 2e-3,
        max_train_windows: 64,
        ..VaradeConfig::default()
    });
    det.fit(&train)
        .map_err(|e| BenchError::Report(format!("capture fit: {e}")))?;
    Ok(Arc::new(det))
}

/// Total CPU time consumed by this process, in nanoseconds, or `None` where
/// the clock is unavailable.
///
/// The overhead comparison prefers CPU time over wall clock: the serve is a
/// producer thread plus a worker thread, and on a small (often single-core)
/// CI container their wall-clock interleaving is at the scheduler's mercy —
/// preemption and host steal time produce multi-percent wall swings that
/// have nothing to do with the substrate. The extra *cycles* the substrate
/// burns per sample are exactly what `CLOCK_PROCESS_CPUTIME_ID` sees, and
/// nothing else runs in the process while a round serves.
#[cfg(target_os = "linux")]
fn process_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime writes one Timespec through a valid pointer and
    // has no other effects; the struct layout matches the Linux ABI.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(target_os = "linux"))]
fn process_cpu_ns() -> Option<u64> {
    None
}

/// One serve of `rows` through a fresh one-shard fleet with `STREAMS`
/// streams, returning wall-clock admitted-samples/sec, the CPU nanoseconds
/// the round burned (when measurable), and the telemetry snapshot (for
/// enabled runs).
fn serve_round(
    detector: &Arc<VaradeDetector>,
    rows: &[Vec<f32>],
    enabled: bool,
) -> Result<(f64, Option<u64>, Option<TelemetrySnapshot>), BenchError> {
    let mut fleet = Fleet::new(FleetConfig {
        n_shards: 1,
        telemetry: if enabled {
            TelemetryConfig::enabled()
        } else {
            TelemetryConfig::disabled()
        },
        ..FleetConfig::default()
    })
    .map_err(fleet_err)?;
    let group = fleet
        .register_model(Arc::clone(detector))
        .map_err(fleet_err)?;
    let streams: Vec<_> = (0..STREAMS)
        .map(|_| fleet.register_stream(group, None))
        .collect::<Result<_, _>>()
        .map_err(fleet_err)?;
    let cpu_before = process_cpu_ns();
    let (_, outcome) = fleet
        .run(|handle| {
            for row in rows {
                for &s in &streams {
                    handle.push(s, row)?;
                }
            }
            Ok(())
        })
        .map_err(fleet_err)?;
    let cpu_spent = process_cpu_ns().zip(cpu_before).map(|(a, b)| a - b);
    Ok((
        outcome.stats.samples_per_sec().unwrap_or(0.0),
        cpu_spent,
        outcome.telemetry,
    ))
}

/// Measures the enabled-vs-disabled throughput over `rounds` interleaved
/// rounds of `rows` (shared measurement core; [`run_fitted`] picks the
/// scale-appropriate geometry).
fn run_with_rows(
    detector: &Arc<VaradeDetector>,
    rows: &[Vec<f32>],
    rounds: usize,
) -> Result<TelemetryResult, BenchError> {
    // One throwaway round per mode pages in the code path and the weights so
    // neither measured mode pays the process' cold-start noise.
    serve_round(detector, rows, false)?;
    serve_round(detector, rows, true)?;

    let mut disabled_best = 0.0f64;
    let mut enabled_best = 0.0f64;
    let mut disabled_costs = Vec::with_capacity(rounds);
    let mut enabled_costs = Vec::with_capacity(rounds);
    let mut snapshot = None;
    for round in 0..rounds {
        // Back-to-back pair: ambient machine noise lands on both sides. The
        // within-pair order alternates each round because slow drift (CPU
        // frequency scaling inflates CPU *time* for the same instruction
        // stream) would otherwise systematically give one mode more access
        // to the run's cheap stretches than the other.
        let (d, d_cpu, e, e_cpu, snap) = if round % 2 == 0 {
            let (d, d_cpu, _) = serve_round(detector, rows, false)?;
            let (e, e_cpu, snap) = serve_round(detector, rows, true)?;
            (d, d_cpu, e, e_cpu, snap)
        } else {
            let (e, e_cpu, snap) = serve_round(detector, rows, true)?;
            let (d, d_cpu, _) = serve_round(detector, rows, false)?;
            (d, d_cpu, e, e_cpu, snap)
        };
        disabled_best = disabled_best.max(d);
        enabled_best = enabled_best.max(e);
        // Round costs: CPU time where available (blind to scheduler
        // interleaving, which on a one-core container is most of the wall
        // story), per-sample wall time otherwise.
        match (d_cpu, e_cpu) {
            (Some(dc), Some(ec)) if dc > 0 && ec > 0 => {
                disabled_costs.push(dc as f64);
                enabled_costs.push(ec as f64);
            }
            _ if d > 0.0 && e > 0.0 => {
                disabled_costs.push(d.recip());
                enabled_costs.push(e.recip());
            }
            _ => {}
        }
        snapshot = snap;
    }
    let snapshot = snapshot
        .ok_or_else(|| BenchError::Report("enabled telemetry run produced no snapshot".into()))?;
    if disabled_costs.is_empty() {
        return Err(BenchError::Report(
            "telemetry overhead rounds produced no cost pairs".into(),
        ));
    }
    // Trimmed-minimum estimate: the noise is one-sided (see [`TRIM_KEEP`]),
    // so compare the sums of each mode's cheapest rounds.
    disabled_costs.sort_by(f64::total_cmp);
    enabled_costs.sort_by(f64::total_cmp);
    let keep = disabled_costs.len().min(TRIM_KEEP);
    let disabled_sum: f64 = disabled_costs[..keep].iter().sum();
    let enabled_sum: f64 = enabled_costs[..keep].iter().sum();
    let overhead_pct = (enabled_sum / disabled_sum - 1.0) * 100.0;
    let stage_spans = snapshot.stages.iter().map(|c| c.hist.count).sum();
    let stat = |hist| {
        LatencyStats::from_histogram(&hist)
            .ok_or_else(|| BenchError::Report("enabled run recorded no stage spans".into()))
    };
    Ok(TelemetryResult {
        rounds,
        streams: STREAMS,
        samples_per_stream: rows.len(),
        disabled_samples_per_sec: disabled_best,
        enabled_samples_per_sec: enabled_best,
        overhead_pct,
        stage_spans,
        events_recorded: snapshot.events.recorded,
        queue_wait: stat(snapshot.merged_stage(Stage::QueueWait))?,
        forward: stat(snapshot.merged_stage(Stage::Forward))?,
        end_to_end: stat(snapshot.merged_end_to_end())?,
    })
}

/// Runs the overhead measurement with the report's fitted detector on the
/// dataset's collision split.
///
/// # Errors
///
/// Returns [`BenchError`] if a fleet run fails or the enabled substrate
/// recorded nothing.
pub fn run_fitted(
    detector: &Arc<VaradeDetector>,
    dataset: &RobotDataset,
    scale: ExperimentScale,
) -> Result<TelemetryResult, BenchError> {
    // Large enough that a round runs for tens of milliseconds: with tiny
    // rounds, scheduler jitter dwarfs the sub-microsecond per-sample cost
    // the measurement is after. Shorter datasets are cycled.
    let per_stream = match scale {
        ExperimentScale::Quick => 1_000,
        ExperimentScale::Full => 2_500,
    };
    let rows: Vec<Vec<f32>> = (0..per_stream)
        .map(|t| dataset.test.row(t % dataset.test.len()).to_vec())
        .collect();
    run_with_rows(detector, &rows, ROUNDS)
}

/// Serves a small telemetry-enabled fleet (with a mid-serve model swap, so
/// control-plane events appear) and returns its snapshot — the raw artifact
/// `exp_report --telemetry` writes as JSON and Prometheus text.
///
/// # Errors
///
/// Returns [`BenchError`] if the fleet run fails.
pub fn capture() -> Result<TelemetrySnapshot, BenchError> {
    let detector = tiny_detector()?;
    let mut fleet = Fleet::new(FleetConfig {
        n_shards: 2,
        telemetry: TelemetryConfig::enabled(),
        ..FleetConfig::default()
    })
    .map_err(fleet_err)?;
    let group = fleet
        .register_model(Arc::clone(&detector))
        .map_err(fleet_err)?;
    let streams: Vec<_> = (0..8)
        .map(|_| fleet.register_stream(group, None))
        .collect::<Result<_, _>>()
        .map_err(fleet_err)?;
    let (_, outcome) = fleet
        .run(|handle| {
            for t in 0..64u32 {
                if t == 32 {
                    handle.publish_model(group, Arc::clone(&detector))?;
                }
                for (i, &s) in streams.iter().enumerate() {
                    handle.push(s, &[((t as f32) * 0.37 + i as f32 * 0.61).sin()])?;
                }
            }
            Ok(())
        })
        .map_err(fleet_err)?;
    outcome
        .telemetry
        .ok_or_else(|| BenchError::Report("enabled capture fleet produced no snapshot".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_overhead_run_is_internally_consistent() {
        let detector = tiny_detector().unwrap();
        let rows: Vec<Vec<f32>> = (0..60).map(|t| vec![(t as f32 * 0.37).sin()]).collect();
        let r = run_with_rows(&detector, &rows, 2).unwrap();
        assert_eq!(r.rounds, 2);
        assert_eq!(r.samples_per_stream, 60);
        assert!(r.disabled_samples_per_sec > 0.0);
        assert!(r.enabled_samples_per_sec > 0.0);
        assert!(r.overhead_pct.is_finite());
        // One queue-wait span per admitted sample, one forward per score.
        assert_eq!(r.queue_wait.samples, STREAMS * 60);
        assert_eq!(r.forward.samples, r.end_to_end.samples);
        assert!(r.stage_spans as usize >= r.queue_wait.samples);
        let text = serde_json::to_string(&r).unwrap();
        let back: TelemetryResult = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn capture_produces_a_snapshot_with_events_and_stages() {
        let snap = capture().unwrap();
        assert!(snap.enabled);
        assert!(!snap.stages.is_empty());
        assert!(snap
            .events
            .counts
            .iter()
            .any(|c| c.kind == "model_swap" && c.count == 1));
        let prom = varade_obs::prometheus_text(&snap);
        assert!(prom.contains("varade_stage_latency_ns_bucket"));
        assert!(prom.contains("varade_events_total{kind=\"model_swap\"} 1"));
    }
}
