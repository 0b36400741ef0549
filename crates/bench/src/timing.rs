//! Latency summaries for the experiment report.
//!
//! [`LatencyStats`] condenses a telemetry histogram snapshot into mean,
//! percentiles and max. The telemetry-overhead experiment reports its stage
//! distributions through it. Throughput and latency benchmarking proper
//! lives in `perfbench/`.

use serde::{Deserialize, Serialize};
use varade_obs::HistogramSnapshot;

/// Latency summary of a series of timed calls, in microseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of timed calls.
    pub samples: usize,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// Median latency in microseconds.
    pub p50_us: f64,
    /// 90th-percentile latency in microseconds.
    pub p90_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: f64,
    /// Maximum observed latency in microseconds.
    pub max_us: f64,
}

impl LatencyStats {
    /// Summarizes a telemetry histogram snapshot; `None` when empty.
    ///
    /// The mean and max are exact (the histogram keeps an exact sum and
    /// maximum); the percentiles come from the log2 buckets, so each reported
    /// value is at least the true observed percentile and within one bucket
    /// width of it — good enough to attribute latency, not to re-derive it.
    pub fn from_histogram(hist: &HistogramSnapshot) -> Option<Self> {
        if hist.count == 0 {
            return None;
        }
        Some(LatencyStats {
            samples: usize::try_from(hist.count).unwrap_or(usize::MAX),
            mean_us: hist.mean_us(),
            p50_us: hist.percentile_us(50.0),
            p90_us: hist.percentile_us(90.0),
            p99_us: hist.percentile_us(99.0),
            max_us: hist.max_us(),
        })
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    impl LatencyStats {
        /// The exact summary of a set of measured durations, the reference
        /// [`LatencyStats::from_histogram`] is checked against; `None` when
        /// empty. Percentiles use the nearest-rank method on the sorted
        /// samples, so every reported value is an observed latency.
        fn from_durations(latencies: &[Duration]) -> Option<Self> {
            if latencies.is_empty() {
                return None;
            }
            let mut micros: Vec<f64> = latencies.iter().map(|d| d.as_secs_f64() * 1e6).collect();
            micros.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
            let mean = micros.iter().sum::<f64>() / micros.len() as f64;
            Some(LatencyStats {
                samples: micros.len(),
                mean_us: mean,
                p50_us: percentile(&micros, 50.0),
                p90_us: percentile(&micros, 90.0),
                p99_us: percentile(&micros, 99.0),
                max_us: micros[micros.len() - 1],
            })
        }
    }

    /// Nearest-rank percentile of an ascending-sorted slice (`q` in percent).
    fn percentile(sorted: &[f64], q: f64) -> f64 {
        debug_assert!(!sorted.is_empty());
        let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    fn micros(values: &[u64]) -> Vec<Duration> {
        values.iter().map(|&v| Duration::from_micros(v)).collect()
    }

    #[test]
    fn empty_input_yields_none() {
        assert!(LatencyStats::from_durations(&[]).is_none());
    }

    #[test]
    fn percentiles_are_observed_values() {
        let latencies = micros(&[5, 1, 3, 2, 4, 6, 7, 8, 9, 10]);
        let stats = LatencyStats::from_durations(&latencies).unwrap();
        assert_eq!(stats.samples, 10);
        assert!((stats.mean_us - 5.5).abs() < 1e-9);
        assert_eq!(stats.p50_us, 5.0);
        assert_eq!(stats.p90_us, 9.0);
        assert_eq!(stats.p99_us, 10.0);
        assert_eq!(stats.max_us, 10.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let stats = LatencyStats::from_durations(&micros(&[42])).unwrap();
        assert_eq!(stats.p50_us, 42.0);
        assert_eq!(stats.p99_us, 42.0);
        assert_eq!(stats.max_us, 42.0);
    }

    #[test]
    fn from_histogram_agrees_with_from_durations_within_one_bucket() {
        use varade_obs::{bucket_of, bucket_upper_bound, AtomicHistogram};

        assert!(LatencyStats::from_histogram(&HistogramSnapshot::empty()).is_none());

        // The same latencies through both summarizers: the exact path keeps
        // every observation, the histogram path quantizes into log2 buckets.
        let latencies = micros(&[3, 5, 9, 17, 33, 64, 120, 250, 511, 1023]);
        let exact = LatencyStats::from_durations(&latencies).unwrap();
        let hist = AtomicHistogram::new();
        for d in &latencies {
            hist.record(*d);
        }
        let approx = LatencyStats::from_histogram(&hist.snapshot()).unwrap();

        assert_eq!(approx.samples, exact.samples);
        // Mean and max are exact in the histogram too.
        assert!((approx.mean_us - exact.mean_us).abs() < 1e-9);
        assert!((approx.max_us - exact.max_us).abs() < 1e-9);
        // Percentiles: never below the exact nearest-rank value, and within
        // one log2 bucket width of it.
        for (a, e) in [
            (approx.p50_us, exact.p50_us),
            (approx.p90_us, exact.p90_us),
            (approx.p99_us, exact.p99_us),
        ] {
            let exact_ns = (e * 1_000.0) as u64;
            let k = bucket_of(exact_ns);
            let lower = if k == 0 { 0 } else { 1u64 << (k - 1) };
            let width_us = (bucket_upper_bound(k) - lower + 1) as f64 / 1_000.0;
            assert!(a >= e - 1e-9, "histogram percentile {a} below exact {e}");
            assert!(a - e <= width_us, "{a} vs {e}: off by more than a bucket");
        }
    }

    #[test]
    fn stats_round_trip_through_json() {
        let stats = LatencyStats::from_durations(&micros(&[1, 2, 3])).unwrap();
        let text = serde_json::to_string(&stats).unwrap();
        let back: LatencyStats = serde_json::from_str(&text).unwrap();
        assert_eq!(back, stats);
    }
}
