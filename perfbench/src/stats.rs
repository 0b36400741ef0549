//! Small numeric helpers: percentiles, seeds, score comparison.

use std::time::Duration;

use crate::report::Report;

/// Per-round samples of the timed end-to-end metrics.
///
/// Contention from other tenants of a shared host comes and goes: on the
/// 2-vCPU KVM reference host one `edge-single` push reads 30 µs in some
/// half-second rounds and 50-56 µs in others, on either vCPU, in slow
/// spells from one second to over ten. A run is therefore cut into rounds,
/// and its metrics come from the cheapest fifth of them by CPU time per
/// operation (at least [`MIN_KEPT`] rounds, or all of them when the run has
/// fewer), pooled: latency percentiles over their operations, throughput
/// and CPU over their totals. That reads the uncontended state as long as a
/// fifth of the run sees it. The same figures over all rounds, and the
/// share of rounds kept, go to the report's notes, so a slowdown that hits
/// only some rounds stays visible. The tail reported is p90: contention
/// slows 3-10% of operations even in the cheapest rounds (an `edge-single`
/// push then takes 45-55 µs instead of 34), at a share that differs from
/// run to run, so p95 flipped between the two modes and spread 21-23% (IQR
/// over median) across seeds on `edge-single`, and p99 24-30% on
/// `batch-score` and `fleet-paced`. Latencies are kept as `f32` so the
/// run's own bookkeeping stays small beside `rss_peak_mb`.
#[derive(Default)]
pub struct Rounds {
    rounds: Vec<Round>,
}

struct Round {
    ops: usize,
    wall_s: f64,
    cpu_ns: f64,
    latencies_us: Vec<f32>,
}

/// Fewest rounds a run keeps when it has that many.
const MIN_KEPT: usize = 3;

/// The timed metrics pooled over a set of rounds.
struct Pooled {
    throughput_hz: f64,
    latency_p50_us: f64,
    latency_p90_us: f64,
    cpu_us_per_score: f64,
}

impl Pooled {
    fn of(rounds: &[Round]) -> Self {
        let ops: usize = rounds.iter().map(|r| r.ops).sum();
        let wall_s: f64 = rounds.iter().map(|r| r.wall_s).sum();
        let cpu_ns: f64 = rounds.iter().map(|r| r.cpu_ns).sum();
        let mut latencies: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.latencies_us.iter().map(|&l| f64::from(l)))
            .collect();
        latencies.sort_by(f64::total_cmp);
        Self {
            throughput_hz: ops as f64 / wall_s,
            latency_p50_us: percentile(&latencies, 50.0),
            latency_p90_us: percentile(&latencies, 90.0),
            cpu_us_per_score: cpu_ns / ops as f64 / 1e3,
        }
    }
}

impl Rounds {
    /// Adds one round: `ops` operations in `wall_s` seconds using `cpu_ns`
    /// of process CPU, with the latencies (µs) of some or all of them.
    pub fn add(&mut self, ops: usize, wall_s: f64, cpu_ns: f64, latencies_us: &[f64]) {
        if ops > 0 && !latencies_us.is_empty() {
            self.rounds.push(Round {
                ops,
                wall_s,
                cpu_ns,
                latencies_us: latencies_us.iter().map(|&l| l as f32).collect(),
            });
        }
    }

    /// Writes `throughput_hz`, `latency_p50_us`, `latency_p90_us` and
    /// `cpu_us_per_score` from the kept rounds, and notes the same figures
    /// over all rounds (`all_rounds.*`) with the round counts.
    ///
    /// # Errors
    ///
    /// Fails when the run completed no round.
    pub fn report(&mut self, report: &mut Report) -> Result<(), String> {
        let n = self.rounds.len();
        if n == 0 {
            return Err("no timed round completed; run longer".into());
        }
        let cost = |r: &Round| r.cpu_ns / r.ops as f64;
        self.rounds.sort_by(|a, b| cost(a).total_cmp(&cost(b)));
        let kept = (n / 5).max(MIN_KEPT).min(n);
        let best = Pooled::of(&self.rounds[..kept]);
        report.set("throughput_hz", best.throughput_hz);
        report.set("latency_p50_us", best.latency_p50_us);
        report.set("latency_p90_us", best.latency_p90_us);
        report.set("cpu_us_per_score", best.cpu_us_per_score);
        let all = Pooled::of(&self.rounds);
        report.note("rounds", n as f64);
        report.note("rounds_kept", kept as f64);
        report.note("all_rounds.throughput_hz", all.throughput_hz);
        report.note("all_rounds.latency_p50_us", all.latency_p50_us);
        report.note("all_rounds.latency_p90_us", all.latency_p90_us);
        report.note("all_rounds.cpu_us_per_score", all.cpu_us_per_score);
        Ok(())
    }
}

/// Linear-interpolated percentile (`q` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = (q / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a copy of `values` and returns its `q`-th percentile.
pub fn percentile_of(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, q)
}

pub fn median(values: &[f64]) -> f64 {
    percentile_of(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn nanos(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// SplitMix64 finalizer: derives independent per-purpose values from the
/// workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether a served score matches its reference: bit-identical when the
/// backend promises it (`tolerance == Some(0.0)`), within the relative
/// tolerance otherwise; a backend without a per-score contract (`None`) is
/// not checked per score.
pub fn same_score(got: f32, want: f32, tolerance: Option<f64>) -> bool {
    match tolerance {
        Some(0.0) => got.to_bits() == want.to_bits(),
        Some(t) => f64::from((got - want).abs()) <= t * f64::from(want.abs()).max(1.0),
        None => got.is_finite(),
    }
}
