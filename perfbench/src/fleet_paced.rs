//! `fleet-paced`: an edge node serving several robots below capacity.
//!
//! Open loop: 64 raw robot streams at the paper's 200 Hz sensor rate —
//! 12 800 samples/s in all, one producer thread — into a `Fleet` with
//! `nproc` shards and the `Block` policy. Sample `i` is due at
//! `i / 12 800 s`; its latency runs from that due time to its score (the
//! generator's lateness plus the fleet's push→score latency). A first serve
//! window warms every stream up to and through its first, cold-replay score,
//! so the timed window holds steady-state scores only.

use std::sync::Arc;
use std::time::{Duration, Instant};

use varade::{StreamState, VaradeDetector};
use varade_fleet::{Fleet, FleetConfig, FleetOutcome, OverloadPolicy, StreamId, TelemetryConfig};
use varade_obs::Stage;

use crate::host::{nproc, process_cpu_ns, reset_rss_peak, rss_peak_mb};
use crate::mirror::cold_replay_us;
use crate::report::Report;
use crate::setup::{self, Robot};
use crate::stats::{micros, mix, nanos, percentile_of, same_score, Rounds};
use crate::Args;

const STREAMS: usize = 64;
/// Total offered load: 64 streams × 200 Hz.
const RATE_HZ: u64 = 12_800;
const PERIOD_NS: u64 = 1_000_000_000 / RATE_HZ;
/// Streams replayed through `StreamState::push_against` as the reference.
const CHECKED_STREAMS: [usize; 4] = [0, 21, 42, 63];
/// Pushes per timed round (half a second of offered load; see [`Rounds`]).
const ROUND_PUSHES: usize = RATE_HZ as usize / 2;

/// A fleet with the 64 robot streams registered.
struct Served {
    fleet: Fleet,
    ids: Vec<StreamId>,
    register_us: f64,
}

fn serve(robot: &Robot, detector: VaradeDetector, telemetry: bool) -> Result<Served, String> {
    let mut fleet = Fleet::new(FleetConfig {
        n_shards: nproc(),
        overload: OverloadPolicy::Block,
        record_latencies: true,
        telemetry: if telemetry {
            TelemetryConfig::enabled()
        } else {
            TelemetryConfig::disabled()
        },
        ..FleetConfig::default()
    })
    .map_err(|e| format!("fleet: {e}"))?;
    let group = fleet
        .register_model(Arc::new(detector))
        .map_err(|e| format!("register_model: {e}"))?;
    let started = Instant::now();
    let ids = (0..STREAMS)
        .map(|_| fleet.register_stream(group, Some(robot.normalizer().clone())))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("register_stream: {e}"))?;
    let register_us = micros(started.elapsed()) / STREAMS as f64;
    Ok(Served {
        fleet,
        ids,
        register_us,
    })
}

/// What one paced serve window produced.
struct Paced {
    outcome: FleetOutcome,
    /// Generator lateness of push `i`, in ns.
    lateness_ns: Vec<f64>,
    /// Wall time of each `push_from` call, in ns (traced windows only).
    push_ns: Vec<f64>,
    /// Wall clock and process CPU time (ns) at the start of each round of
    /// [`ROUND_PUSHES`] pushes, and once more at the end of the last one.
    round_marks: Vec<(Instant, u64)>,
    pushes: usize,
    cpu_ns: f64,
}

/// Warms every stream through its first score: `window + 1` pushes each,
/// back to back.
fn warm_up<'a>(
    served: &mut Served,
    row_at: &dyn Fn(usize, usize) -> &'a [f32],
    window: usize,
) -> Result<FleetOutcome, String> {
    let ids = &served.ids;
    let ((), outcome) = served
        .fleet
        .run(|h| {
            for k in 0..=window {
                for (s, &id) in ids.iter().enumerate() {
                    h.push_from(0, id, row_at(s, k))?;
                }
            }
            Ok(())
        })
        .map_err(|e| format!("warm-up serve: {e}"))?;
    Ok(outcome)
}

/// One open-loop serve window: push `i` goes to stream `i % 64` at
/// `start + i * PERIOD_NS`; the generator sleeps until each due time.
fn paced<'a>(
    served: &mut Served,
    row_at: &dyn Fn(usize, usize) -> &'a [f32],
    first_k: usize,
    duration: Duration,
    time_pushes: bool,
) -> Result<Paced, String> {
    let pushes = (duration.as_secs_f64() * RATE_HZ as f64) as usize;
    let ids = &served.ids;
    let cpu = process_cpu_ns();
    let ((lateness_ns, push_ns, round_marks), outcome) = served
        .fleet
        .run(|h| {
            let mut lateness_ns = Vec::with_capacity(pushes);
            let mut push_ns = Vec::with_capacity(if time_pushes { pushes } else { 0 });
            let mut round_marks = Vec::new();
            set_timer_slack(1_000);
            let start = Instant::now();
            for i in 0..=pushes {
                let due = start + Duration::from_nanos(i as u64 * PERIOD_NS);
                let mut now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                    now = Instant::now();
                }
                if i % ROUND_PUSHES == 0 {
                    round_marks.push((now, process_cpu_ns()));
                }
                if i == pushes {
                    break;
                }
                lateness_ns.push(nanos(now.saturating_duration_since(due)));
                let (s, k) = (i % STREAMS, first_k + i / STREAMS);
                if time_pushes {
                    let t0 = Instant::now();
                    h.push_from(0, ids[s], row_at(s, k))?;
                    push_ns.push(nanos(t0.elapsed()));
                } else {
                    h.push_from(0, ids[s], row_at(s, k))?;
                }
            }
            set_timer_slack(0);
            Ok((lateness_ns, push_ns, round_marks))
        })
        .map_err(|e| format!("paced serve: {e}"))?;
    Ok(Paced {
        outcome,
        lateness_ns,
        push_ns,
        round_marks,
        pushes,
        cpu_ns: (process_cpu_ns() - cpu) as f64,
    })
}

/// Sets the calling thread's timer slack: `1_000` ns lets the generator's
/// sleeps end within a microsecond of their due time; `0` restores the
/// default (50 µs). Threads spawned meanwhile would inherit the setting, so
/// the generator sets it only after the fleet's workers are running.
fn set_timer_slack(ns: u64) {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK only sets the calling thread's timer slack
    // (in ns) and reads no memory through its arguments. On failure the
    // previous slack stays, which is harmless.
    unsafe {
        prctl(PR_SET_TIMERSLACK, ns, 0, 0, 0);
    }
}

fn build() -> Result<(Robot, Served), String> {
    let robot = Robot::build()?;
    let served = serve(&robot, robot.served.reload()?, false)?;
    Ok((robot, served))
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let ((robot, mut served), setup_times) = setup::repeat(build)?;
    report.set("setup.dataset_s", robot.stages.dataset_s);
    report.set("setup.fit_s", robot.stages.fit_s);
    report.set("setup.model_load_ms", robot.stages.model_load_ms);
    report.set("fleet.register_stream_us", served.register_us);

    let w = robot.window();
    // Stream starts spread evenly over the split, shifted by the seed, so
    // every run scores the split's rows about equally often.
    let stride = robot.n_rows / STREAMS;
    let shift = (mix(args.seed, 100) % stride as u64) as usize;
    let offsets: Vec<usize> = (0..STREAMS).map(|s| s * stride + shift).collect();
    let row_at = |s: usize, k: usize| robot.raw_row(offsets[s] + k);
    report.set("core.cache_replays", STREAMS as f64);
    report.set(
        "core.cold_replay_us",
        cold_replay_us(&robot.served.detector, &robot.normalized_series(0, w + 1)?)?,
    );

    reset_rss_peak()?;
    let warm = warm_up(&mut served, &row_at, w)?;
    let untraced = if args.trace {
        args.seconds.mul_f64(0.4)
    } else {
        args.seconds
    };
    let window = paced(&mut served, &row_at, w + 1, untraced, false)?;
    report.set("rss_peak_mb", rss_peak_mb());
    let scores = audit(&robot, &served, &warm, &window, &offsets, report)?;

    if !args.trace {
        let latencies = end_to_end_us(&served, &window);
        let mut rounds = Rounds::default();
        for (r, marks) in window.round_marks.windows(2).enumerate() {
            let [(t0, cpu0), (t1, cpu1)] = [marks[0], marks[1]];
            let round = &latencies[r * ROUND_PUSHES..(r + 1) * ROUND_PUSHES];
            let wall = (t1 - t0).as_secs_f64();
            rounds.add(ROUND_PUSHES, wall, (cpu1 - cpu0) as f64, round);
        }
        rounds.report(report)?;
        report.set("auc", auc(&robot, &served, &window, &offsets, w + 1)?);
        report.set(
            "gen.lag_p99_us",
            percentile_of(&window.lateness_ns, 99.0) / 1e3,
        );
        return setup::finish(setup_times, build, report);
    }

    // Traced: a second fleet with the telemetry substrate on and every push
    // timed, compared with the untraced window above.
    let mut traced = serve(&robot, robot.served.reload()?, true)?;
    let traced_warm = warm_up(&mut traced, &row_at, w)?;
    let tw = paced(&mut traced, &row_at, w + 1, args.seconds.mul_f64(0.4), true)?;
    let traced_scores = audit(&robot, &traced, &traced_warm, &tw, &offsets, report)?;
    report_fleet(&tw, traced_scores, report)?;
    let untraced_cpu = window.cpu_ns / scores as f64;
    let traced_cpu = tw.cpu_ns / traced_scores as f64;
    report.set(
        "trace.overhead_pct",
        (traced_cpu / untraced_cpu - 1.0) * 100.0,
    );
    Ok(())
}

/// Per-push end-to-end latency, indexed by push: generator lateness plus
/// the fleet's push→score latency, in µs. Stream `s`'s `j`-th score in the
/// window belongs to push `j * 64 + s`.
fn end_to_end_us(served: &Served, window: &Paced) -> Vec<f64> {
    let mut out = vec![0.0; window.pushes];
    for (s, id) in served.ids.iter().enumerate() {
        for (j, d) in window.outcome.latencies[id.index()].iter().enumerate() {
            let i = j * STREAMS + s;
            out[i] = (window.lateness_ns[i] + nanos(*d)) / 1e3;
        }
    }
    out
}

/// Checks the exact sample ledger and replays the checked streams through
/// `StreamState::push_against`. Returns the window's score count.
fn audit(
    robot: &Robot,
    served: &Served,
    warm: &FleetOutcome,
    window: &Paced,
    offsets: &[usize],
    report: &mut Report,
) -> Result<u64, String> {
    let w = robot.window();
    let stats = &window.outcome.stats;
    // Ledger: every push was admitted and, the streams being warm, scored.
    let pushes = window.pushes as u64;
    let mut failed = pushes.abs_diff(stats.global.pushes) + pushes.abs_diff(stats.global.scores);
    for (s, id) in served.ids.iter().enumerate() {
        let due = window.pushes / STREAMS + usize::from(s < window.pushes % STREAMS);
        failed += u64::from(
            window.outcome.scores[id.index()].len() != due
                || window.outcome.latencies[id.index()].len() != due
                || warm.scores[id.index()].len() != 1,
        );
    }
    report.count(pushes, failed);

    let detector = &robot.served.detector;
    let tolerance = detector.backend_kind().score_tolerance();
    for &s in &CHECKED_STREAMS {
        let id = served.ids[s].index();
        let got: Vec<f32> = warm.scores[id]
            .iter()
            .chain(&window.outcome.scores[id])
            .copied()
            .collect();
        let mut state = StreamState::new(robot.n_channels, w, Some(robot.normalizer().clone()))
            .map_err(|e| e.to_string())?;
        if varade::incremental_default() {
            state.attach_cache(detector.incremental_cache().map_err(|e| e.to_string())?);
        }
        let mut want = Vec::with_capacity(got.len());
        for k in 0..w + got.len() {
            let row = robot.raw_row(offsets[s] + k);
            if let Some(score) = state
                .push_against(row, detector)
                .map_err(|e| e.to_string())?
            {
                want.push(score);
            }
        }
        let mismatches = got
            .iter()
            .zip(&want)
            .filter(|&(&g, &r)| !same_score(g, r, tolerance))
            .count();
        report.count(got.len() as u64, mismatches as u64);
    }
    Ok(stats.global.scores)
}

fn auc(
    robot: &Robot,
    served: &Served,
    window: &Paced,
    offsets: &[usize],
    first_k: usize,
) -> Result<f64, String> {
    let mut scores = Vec::with_capacity(window.pushes);
    let mut labels = Vec::with_capacity(window.pushes);
    for (s, id) in served.ids.iter().enumerate() {
        for (j, &score) in window.outcome.scores[id.index()].iter().enumerate() {
            scores.push(score);
            labels.push(robot.label(offsets[s], first_k + j));
        }
    }
    varade_metrics::auc_roc(&scores, &labels).map_err(|e| format!("auc: {e}"))
}

/// Fleet-layer rows of a traced window.
fn report_fleet(window: &Paced, scores: u64, report: &mut Report) -> Result<(), String> {
    let stats = &window.outcome.stats;
    let telemetry = window
        .outcome
        .telemetry
        .as_ref()
        .ok_or("traced fleet returned no telemetry")?;
    let queue_wait = telemetry.merged_stage(Stage::QueueWait);
    report.set("fleet.push.ns_p50", percentile_of(&window.push_ns, 50.0));
    report.set("fleet.push.ns_p99", percentile_of(&window.push_ns, 99.0));
    report.set("fleet.queue_wait_us_p50", queue_wait.percentile_us(50.0));
    report.set("fleet.queue_wait_us_p99", queue_wait.percentile_us(99.0));
    report.set(
        "fleet.busy_fraction",
        nanos(stats.global.total_time) / window.cpu_ns,
    );
    report.set(
        "fleet.steals_per_1k_scores",
        stats.steals as f64 * 1e3 / scores as f64,
    );
    report.set("fleet.queue_depth_hwm", stats.queue_depth_high_water as f64);
    let active = window
        .outcome
        .scores
        .iter()
        .filter(|s| !s.is_empty())
        .count();
    report.set(
        "fleet.active_stream_fraction",
        active as f64 / window.outcome.scores.len() as f64,
    );
    report.set(
        "gen.lag_p99_us",
        percentile_of(&window.lateness_ns, 99.0) / 1e3,
    );
    Ok(())
}
