//! The benchmark's metric catalogue, the per-run report, and the
//! `BENCHMARK.json` manifest generated from the same tables.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One workload: its command-line name and why it is in the benchmark.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "edge-single",
        why: "closed loop, one raw 86-channel robot stream through StreamingVarade::push: the paper's \
              one-script-per-robot deployment, all time in tensor layers and admission",
    },
    Workload {
        name: "fleet-paced",
        why: "open loop, 64 robot streams at 200 Hz (12800 samples/s) on nproc shards below capacity: \
              wake-up, queue wait and idle spinning dominate latency",
    },
    Workload {
        name: "batch-score",
        why: "offline score_series passes over the 3750-row test split: the only workload on the \
              full-window forward_infer path with tiled k2/s2 kernels",
    },
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "throughput_hz",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p90_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_score",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ok_rate",
        unit: "ratio",
        better: "higher",
        bound: 0.001,
    },
    EndToEnd {
        name: "auc",
        unit: "ratio",
        better: "higher",
        bound: 0.02,
    },
];

/// A per-layer metric (reported by `--trace 1` runs; no bound).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every per-layer metric. A traced run reports each one; a layer the
/// workload never calls reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    // Incremental (per-push) path of each tensor layer, from the mirror network.
    layer("tensor.inc.conv0.ns", "ns", "lower"),
    layer("tensor.inc.conv1.ns", "ns", "lower"),
    layer("tensor.inc.conv2.ns", "ns", "lower"),
    layer("tensor.inc.conv3.ns", "ns", "lower"),
    layer("tensor.inc.conv4.ns", "ns", "lower"),
    layer("tensor.inc.relu.ns", "ns", "lower"),
    layer("tensor.inc.flatten.ns", "ns", "lower"),
    layer("tensor.inc.head.ns", "ns", "lower"),
    layer("tensor.inc.conv0.gflops", "GFLOP/s", "higher"),
    layer("tensor.inc.conv1.gflops", "GFLOP/s", "higher"),
    layer("tensor.inc.conv2.gflops", "GFLOP/s", "higher"),
    layer("tensor.inc.conv3.gflops", "GFLOP/s", "higher"),
    layer("tensor.inc.conv4.gflops", "GFLOP/s", "higher"),
    layer("tensor.inc.head.gflops", "GFLOP/s", "higher"),
    layer("tensor.inc.calls_per_score", "count", "lower"),
    // Full-window forward_infer path, per scored window.
    layer("tensor.infer.conv0.ns_per_window", "ns", "lower"),
    layer("tensor.infer.conv1.ns_per_window", "ns", "lower"),
    layer("tensor.infer.conv2.ns_per_window", "ns", "lower"),
    layer("tensor.infer.conv3.ns_per_window", "ns", "lower"),
    layer("tensor.infer.conv4.ns_per_window", "ns", "lower"),
    layer("tensor.infer.relu.ns_per_window", "ns", "lower"),
    layer("tensor.infer.flatten.ns_per_window", "ns", "lower"),
    layer("tensor.infer.head.ns_per_window", "ns", "lower"),
    layer("tensor.infer.conv0.gflops", "GFLOP/s", "higher"),
    layer("tensor.infer.conv1.gflops", "GFLOP/s", "higher"),
    layer("tensor.infer.conv2.gflops", "GFLOP/s", "higher"),
    layer("tensor.infer.conv3.gflops", "GFLOP/s", "higher"),
    layer("tensor.infer.conv4.gflops", "GFLOP/s", "higher"),
    layer("tensor.infer.head.gflops", "GFLOP/s", "higher"),
    // Admission (timeseries + core) and the push time no layer covers.
    layer("timeseries.normalize.ns", "ns", "lower"),
    layer("timeseries.window_push.ns", "ns", "lower"),
    layer("timeseries.window_bytes_per_push", "bytes", "lower"),
    layer("core.admit.ns", "ns", "lower"),
    layer("core.score_incremental.ns", "ns", "lower"),
    layer("core.push.ns", "ns", "lower"),
    layer("core.non_model.ns", "ns", "lower"),
    layer("core.unattributed.ns", "ns", "lower"),
    layer("core.non_model_share", "ratio", "lower"),
    layer("core.cache_replays", "count", "lower"),
    layer("core.cold_replay_us", "us", "lower"),
    // Fleet serving machinery.
    layer("fleet.push.ns_p50", "ns", "lower"),
    layer("fleet.push.ns_p99", "ns", "lower"),
    layer("fleet.queue_wait_us_p50", "us", "lower"),
    layer("fleet.queue_wait_us_p99", "us", "lower"),
    layer("fleet.busy_fraction", "ratio", "higher"),
    layer("fleet.steals_per_1k_scores", "count", "lower"),
    layer("fleet.queue_depth_hwm", "count", "lower"),
    layer("fleet.register_stream_us", "us", "lower"),
    layer("fleet.active_stream_fraction", "ratio", "higher"),
    // Set-up stages.
    layer("setup.dataset_s", "s", "lower"),
    layer("setup.fit_s", "s", "lower"),
    layer("setup.model_load_ms", "ms", "lower"),
    // Load generator, host noise and the tracer itself.
    layer("gen.lag_p99_us", "us", "lower"),
    layer("host.steal_pct", "%", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
];

/// The metrics one run collected, checked against the catalogue on output.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Context printed on the host-facts line, not a metric: the round
    /// counts and the all-rounds figures (see `stats::Rounds`).
    notes: Vec<(&'static str, f64)>,
    /// Operations the run attempted (pushes, windows, checks).
    pub attempted: u64,
    /// Operations that failed or whose output did not match the reference.
    pub failed: u64,
}

impl Report {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalogue: that is a bug in the
    /// benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .find(|&n| n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        self.values.insert(known, value);
    }

    /// A metric recorded so far, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records a note for the host-facts line.
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.push((name, value));
    }

    /// The notes as JSON object members (`"name": value, ...`).
    pub fn notes_json(&self) -> String {
        self.notes
            .iter()
            .map(|(name, v)| format!("{}: {v}", json_str(name)))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Counts `n` attempted operations of which `failed` went wrong.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Renders the human-readable metric table and the final JSON line: the
    /// end-to-end metrics for an untraced run, every per-layer metric for a
    /// traced one. Per-layer metrics the workload never touched read 0.
    ///
    /// # Errors
    ///
    /// Refuses to produce a result when an end-to-end metric is missing,
    /// zero or not finite, when nothing was attempted, or when a per-layer
    /// metric is not finite.
    pub fn render(&self, trace: bool) -> Result<(String, String), String> {
        if self.attempted == 0 {
            return Err("the run attempted no operation".into());
        }
        let mut rows: Vec<(&str, &str, f64)> = Vec::new();
        if trace {
            for m in PER_LAYER {
                let v = self.values.get(m.name).copied().unwrap_or(0.0);
                if !v.is_finite() {
                    return Err(format!("per-layer metric {} is not finite: {v}", m.name));
                }
                rows.push((m.name, m.unit, v));
            }
        } else {
            for m in END_TO_END {
                let v = *self
                    .values
                    .get(m.name)
                    .ok_or_else(|| format!("end-to-end metric {} was not measured", m.name))?;
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!("end-to-end metric {} read {v}", m.name));
                }
                rows.push((m.name, m.unit, v));
            }
        }
        let mut table = String::new();
        let mut metrics = String::new();
        for (i, (name, unit, v)) in rows.iter().enumerate() {
            let _ = writeln!(table, "{name:<36} {v:>18.6} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        let line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        Ok((table, line))
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `BENCHMARK.json`, generated from the tables above (`--write-manifest`).
pub fn manifest(run_seconds: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", ");
    out.push_str("\"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{sep}",
            json_str(w.name),
            json_str(w.why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better)
        );
    }
    out.push_str("  ]\n}\n");
    out
}
