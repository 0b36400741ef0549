//! Prometheus text-format exposition of a [`TelemetrySnapshot`].
//!
//! The renderer is a pure function over the snapshot, so it can run in an
//! exporter thread, a CLI, or a test without touching the live registries.
//! Histograms are emitted in the standard cumulative `_bucket{le=...}` form
//! (one line per occupied log2 boundary plus `+Inf`), gauges and counters as
//! single samples, all under the `varade_` namespace.

use crate::{bucket_upper_bound, HistogramSnapshot, TelemetrySnapshot};
use std::fmt::Write;

/// Renders the snapshot in the Prometheus text exposition format.
///
/// Metric families:
///
/// * `varade_stage_latency_ns` — histogram, labels `stage`, `group`, `shard`
/// * `varade_end_to_end_latency_ns` — histogram, label `shard`
/// * `varade_queue_depth` / `varade_queue_depth_high_water` — gauges, label `shard`
/// * `varade_worker_parks_total` / `varade_worker_inline_scores_total` —
///   counters, label `shard`
/// * `varade_events_total` — counter, label `kind`
/// * `varade_events_recorded_total` / `varade_events_overwritten_total` — counters
pub fn prometheus_text(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    out.push_str("# HELP varade_stage_latency_ns Per-stage serving pipeline latency.\n");
    out.push_str("# TYPE varade_stage_latency_ns histogram\n");
    for cell in &snap.stages {
        let labels = format!(
            "stage=\"{}\",group=\"{}\",shard=\"{}\"",
            cell.stage, cell.group, cell.shard
        );
        render_histogram(&mut out, "varade_stage_latency_ns", &labels, &cell.hist);
    }
    out.push_str("# HELP varade_end_to_end_latency_ns Enqueue-to-score latency.\n");
    out.push_str("# TYPE varade_end_to_end_latency_ns histogram\n");
    for cell in &snap.end_to_end {
        let labels = format!("shard=\"{}\"", cell.shard);
        render_histogram(
            &mut out,
            "varade_end_to_end_latency_ns",
            &labels,
            &cell.hist,
        );
    }
    out.push_str("# HELP varade_queue_depth Last observed ingress queue depth.\n");
    out.push_str("# TYPE varade_queue_depth gauge\n");
    for cell in &snap.queue_depth {
        let _ = writeln!(
            out,
            "varade_queue_depth{{shard=\"{}\"}} {}",
            cell.shard, cell.depth
        );
    }
    out.push_str(
        "# HELP varade_queue_depth_high_water All-time ingress queue depth high-water mark.\n",
    );
    out.push_str("# TYPE varade_queue_depth_high_water gauge\n");
    for cell in &snap.queue_depth {
        let _ = writeln!(
            out,
            "varade_queue_depth_high_water{{shard=\"{}\"}} {}",
            cell.shard, cell.high_water
        );
    }
    out.push_str("# HELP varade_worker_parks_total Shard worker waits on its doorbell.\n");
    out.push_str("# TYPE varade_worker_parks_total counter\n");
    for cell in &snap.worker_waits {
        let _ = writeln!(
            out,
            "varade_worker_parks_total{{shard=\"{}\"}} {}",
            cell.shard, cell.parks
        );
    }
    out.push_str(
        "# HELP varade_worker_inline_scores_total Pushes scored on the producer's thread, waking no worker.\n",
    );
    out.push_str("# TYPE varade_worker_inline_scores_total counter\n");
    for cell in &snap.worker_waits {
        let _ = writeln!(
            out,
            "varade_worker_inline_scores_total{{shard=\"{}\"}} {}",
            cell.shard, cell.inline_scores
        );
    }
    out.push_str("# HELP varade_events_total Structured events recorded, by kind.\n");
    out.push_str("# TYPE varade_events_total counter\n");
    for c in &snap.events.counts {
        let _ = writeln!(
            out,
            "varade_events_total{{kind=\"{}\"}} {}",
            c.kind, c.count
        );
    }
    out.push_str("# HELP varade_events_recorded_total Structured events recorded in total.\n");
    out.push_str("# TYPE varade_events_recorded_total counter\n");
    let _ = writeln!(out, "varade_events_recorded_total {}", snap.events.recorded);
    out.push_str(
        "# HELP varade_events_overwritten_total Structured events lost to ring overwrite.\n",
    );
    out.push_str("# TYPE varade_events_overwritten_total counter\n");
    let _ = writeln!(
        out,
        "varade_events_overwritten_total {}",
        snap.events.overwritten
    );
    out
}

/// Emits one histogram family member: cumulative occupied buckets, `+Inf`,
/// `_sum` and `_count`.
fn render_histogram(out: &mut String, name: &str, labels: &str, hist: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    for (k, &n) in hist.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        cumulative += n;
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels},le=\"{}\"}} {cumulative}",
            bucket_upper_bound(k)
        );
    }
    let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {}", hist.count);
    let _ = writeln!(out, "{name}_sum{{{labels}}} {}", hist.sum_ns);
    let _ = writeln!(out, "{name}_count{{{labels}}} {}", hist.count);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetEvent, Stage, Telemetry, TelemetryConfig};
    use std::time::Duration;

    #[test]
    fn rendering_contains_every_family() {
        let t = Telemetry::new(&TelemetryConfig::enabled(), 1, 1);
        t.shard(0)
            .unwrap()
            .record_stage(0, Stage::Forward, Duration::from_micros(100));
        t.shard(0)
            .unwrap()
            .record_end_to_end(Duration::from_micros(120));
        t.shard(0).unwrap().observe_queue_depth(3);
        t.shard(0).unwrap().record_park();
        t.shard(0).unwrap().record_park();
        t.shard(0).unwrap().record_inline();
        t.record_event(FleetEvent::SampleDrop { lane: 0, stream: 7 });
        let text = prometheus_text(&t.snapshot());
        assert!(text.contains(
            "varade_stage_latency_ns_bucket{stage=\"forward\",group=\"0\",shard=\"0\",le="
        ));
        assert!(text.contains(
            "varade_stage_latency_ns_count{stage=\"forward\",group=\"0\",shard=\"0\"} 1"
        ));
        assert!(text.contains("varade_end_to_end_latency_ns_bucket{shard=\"0\",le=\"+Inf\"} 1"));
        assert!(text.contains("varade_queue_depth{shard=\"0\"} 3"));
        assert!(text.contains("varade_queue_depth_high_water{shard=\"0\"} 3"));
        assert!(text.contains("varade_worker_parks_total{shard=\"0\"} 2"));
        assert!(text.contains("varade_worker_inline_scores_total{shard=\"0\"} 1"));
        assert!(text.contains("varade_events_total{kind=\"sample_drop\"} 1"));
        assert!(text.contains("varade_events_recorded_total 1"));
    }

    #[test]
    fn buckets_are_cumulative_and_end_at_inf() {
        let t = Telemetry::new(&TelemetryConfig::enabled(), 1, 1);
        for us in [1u64, 1, 2, 1000] {
            t.shard(0)
                .unwrap()
                .record_stage(0, Stage::Emit, Duration::from_micros(us));
        }
        let text = prometheus_text(&t.snapshot());
        // Final cumulative bucket equals the +Inf bucket equals the count.
        assert!(text.contains("le=\"+Inf\"} 4"));
        assert!(text
            .contains("varade_stage_latency_ns_count{stage=\"emit\",group=\"0\",shard=\"0\"} 4"));
    }
}
