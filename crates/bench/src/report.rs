//! Benchmark reporting: `BENCH_<date>.json` baselines and the generated
//! `EXPERIMENTS.md`.
//!
//! One [`BenchReport`] bundles every experiment result at one scale behind a
//! schema version. Full-scale reports are checked into the repository root as
//! `BENCH_<date>.json` — the performance trajectory later PRs must beat —
//! and `EXPERIMENTS.md` is rendered *from those committed files only*, so
//! regenerating it is deterministic: CI re-renders and fails on drift.
//! Quick-scale reports are written under `target/` by default and are never
//! picked up as baselines.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::experiments::ablation::{AblationEntry, AblationResultSet};
use crate::experiments::architecture::ArchitectureResult;
use crate::experiments::backend::BackendSweepResult;
use crate::experiments::channels::ChannelsResult;
use crate::experiments::figure3::Figure3Result;
use crate::experiments::fleet::FleetResult;
use crate::experiments::load::MulticoreResult;
use crate::experiments::persist::PersistenceResult;
use crate::experiments::streaming::StreamingResult;
use crate::experiments::table2::Table2Result;
use crate::experiments::telemetry::TelemetryResult;
use crate::experiments::ExperimentScale;
use crate::experiments::{
    ablation, architecture, backend, channels, figure3, fleet, load, persist, streaming, table2,
    telemetry,
};
use crate::{compare_line, paper_row, BenchError};

/// Version of the `BENCH_*.json` schema this crate writes. Bump on any
/// change to [`BenchReport`] or the structs it embeds; additive changes only
/// need [`MIN_SCHEMA_VERSION`] to stay put.
///
/// v2 added the optional `fleet` section (multi-stream serving sweep).
/// v3 added the optional `meta` (host/backend metadata) and `backends`
/// (kernel-backend throughput sweep) sections.
/// v4 added the optional `incremental` section (incremental-vs-full
/// streaming comparison) plus per-section `incremental` markers.
/// v5 added the optional `persistence` section (save/load round-trip wall
/// time, on-disk footprint split, and the bit-identity deviation audit).
/// v6 added the optional `multicore` section (Zipf many-stream load harness:
/// per-policy exact sample ledgers, per-stream p99 SLO attainment, steal
/// counts).
/// v7 added the optional `telemetry` section (`varade-obs` substrate
/// overhead: enabled-vs-disabled fleet throughput plus the enabled run's
/// stage distributions) and per-cell stage decompositions in `multicore`.
/// v8 added the optional `quantization` section (int8 quant backend:
/// footprint ratio vs f32 weights, single-stream throughput, per-scoring-rule
/// AUC deviation vs the scalar reference) and a third (`quant`) cell in the
/// `backends` sweep.
/// v9 dropped the `incremental` section, the per-section `incremental`
/// markers and the fleet cells' `mean_batch_size`/`incremental_windows`:
/// every stream scores through the incremental path, so there is no other
/// path to compare with or count. Older reports still load; the keys are
/// ignored.
/// v10 dropped the `quantization` section and the `backends` sweep's
/// `quant` cell with the int8 backend itself. Older reports still load: the
/// section's key is ignored, and a recorded `quant` cell is not rendered.
pub const SCHEMA_VERSION: u32 = 10;

/// Oldest schema this crate still reads. Pre-v5 reports simply lack the
/// newer optional sections, which deserialize as `None`.
pub const MIN_SCHEMA_VERSION: u32 = 1;

/// Host and configuration metadata recorded with every report, so the
/// `BENCH_*.json` trajectory stays comparable across machines and backend
/// configurations (schema v3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMeta {
    /// The process-default kernel backend the headline sections (streaming,
    /// fleet) ran on — `"scalar"` unless `--backend`/`VARADE_BACKEND`
    /// selected another.
    pub active_backend: String,
    /// CPU cores available to the run (`std::thread::available_parallelism`;
    /// 0 if the platform cannot say). The container baselines pin to one
    /// core, so shard scaling numbers from multi-core hosts are not
    /// comparable to them.
    pub cpu_cores: usize,
}

impl RunMeta {
    /// Captures the current process' metadata.
    pub fn capture() -> Self {
        Self {
            active_backend: varade::BackendKind::active().label().to_string(),
            cpu_cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
        }
    }
}

/// Everything one `exp_report` run measured, as serialized to
/// `BENCH_<date>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// UTC date of the run, `YYYY-MM-DD`.
    pub date: String,
    /// Scale label: `"quick"` or `"full"`.
    pub scale: String,
    /// Host/backend metadata (`None` in pre-v3 baselines).
    pub meta: Option<RunMeta>,
    /// Streaming push throughput and latency percentiles.
    pub streaming: StreamingResult,
    /// Model save/load round-trip audit (`None` in pre-v5 baselines).
    pub persistence: Option<PersistenceResult>,
    /// Kernel-backend throughput sweep (`None` in pre-v3 baselines).
    pub backends: Option<BackendSweepResult>,
    /// Multi-stream fleet serving sweep (`None` in pre-v2 baselines).
    pub fleet: Option<FleetResult>,
    /// Zipf many-stream multi-core load harness (`None` in pre-v6
    /// baselines).
    pub multicore: Option<MulticoreResult>,
    /// Telemetry substrate overhead measurement (`None` in pre-v7
    /// baselines).
    pub telemetry: Option<TelemetryResult>,
    /// Table 2: detectors × boards.
    pub table2: Table2Result,
    /// Figure 3: frequency vs. accuracy series.
    pub figure3: Figure3Result,
    /// Ablations A1–A3.
    pub ablation: AblationResultSet,
    /// Table 1 channel counts.
    pub channels: ChannelsResult,
    /// Figure 1 architecture summary (always paper full size).
    pub architecture: ArchitectureResult,
}

/// Runs every experiment at the given scale and assembles the report.
///
/// The Table 2 run generates the robot dataset and fits the VARADE detector;
/// the ablation, fleet and streaming experiments all reuse that dataset and
/// fitted detector, so the report builds the dataset — and trains VARADE —
/// exactly once (the detector travels through the fleet sweep behind an
/// `Arc` and is unwrapped again for the single-stream measurement).
///
/// # Errors
///
/// Returns [`BenchError`] if any experiment fails.
pub fn collect(scale: ExperimentScale, date: &str) -> Result<BenchReport, BenchError> {
    eprintln!("exp_report: running Table 2 ({} scale) ...", scale.label());
    let outcome = table2::run(scale)?;
    eprintln!("exp_report: running ablations ...");
    let ablation = ablation::run(scale, &outcome.dataset)?;
    let table2 = Table2Result::from(&outcome);
    eprintln!("exp_report: running the fleet serving sweep ...");
    let shared = std::sync::Arc::new(outcome.varade);
    let fleet = fleet::run_fitted(&shared, &outcome.dataset, scale)?;
    eprintln!("exp_report: measuring telemetry substrate overhead ...");
    let telemetry = telemetry::run_fitted(&shared, &outcome.dataset, scale)?;
    let mut varade = std::sync::Arc::try_unwrap(shared)
        .map_err(|_| BenchError::Report("fleet kept a detector reference".into()))?;
    eprintln!("exp_report: running the Zipf multi-core load harness ...");
    let multicore = load::run(scale)?;
    eprintln!("exp_report: running the kernel-backend sweep ...");
    let backends =
        backend::run_fitted(&mut varade, &outcome.dataset, scale.streaming_sample_cap())?;
    eprintln!("exp_report: auditing the persistence round-trip ...");
    let persistence = persist::run_fitted(&varade, &outcome.dataset, scale.streaming_sample_cap())?;
    eprintln!("exp_report: measuring streaming throughput ...");
    let streaming = streaming::run_fitted(varade, &outcome.dataset, scale.streaming_sample_cap())?;
    Ok(BenchReport {
        schema_version: SCHEMA_VERSION,
        date: date.to_string(),
        scale: scale.label().to_string(),
        meta: Some(RunMeta::capture()),
        streaming,
        persistence: Some(persistence),
        backends: Some(backends),
        fleet: Some(fleet),
        multicore: Some(multicore),
        telemetry: Some(telemetry),
        figure3: figure3::from_table(&table2.table),
        table2,
        ablation,
        channels: channels::run(),
        architecture: architecture::run()?,
    })
}

/// File name of a report generated on `date`: `BENCH_<date>.json`.
pub fn file_name(date: &str) -> String {
    format!("BENCH_{date}.json")
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, no external crates).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("system clock after 1970")
        .as_secs();
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Howard Hinnant's `civil_from_days`: days since 1970-01-01 → (y, m, d).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// One committed baseline: file name plus parsed report.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// File name (`BENCH_<date>.json`), the sort key of the trajectory.
    pub file_name: String,
    /// The parsed report.
    pub report: BenchReport,
}

/// Loads the full-scale `BENCH_*.json` baselines in `dir`, sorted by file
/// name (i.e. by date). Quick-scale reports are skipped — they are CI
/// throwaways, not baselines.
///
/// # Errors
///
/// Returns [`BenchError`] if the directory cannot be read, a matching file
/// fails to parse, or a report declares a schema version this binary does not
/// understand.
pub fn load_baselines(dir: &Path) -> Result<Vec<Baseline>, BenchError> {
    let mut baselines = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let file_name = entry.file_name().to_string_lossy().into_owned();
        if !file_name.starts_with("BENCH_") || !file_name.ends_with(".json") {
            continue;
        }
        let text = std::fs::read_to_string(entry.path())?;
        let report: BenchReport = serde_json::from_str(&text)
            .map_err(|e| BenchError::Report(format!("{file_name}: {e}")))?;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&report.schema_version) {
            return Err(BenchError::Report(format!(
                "{file_name}: schema version {} (this binary reads \
                 {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})",
                report.schema_version
            )));
        }
        if report.scale == ExperimentScale::Full.label() {
            baselines.push(Baseline { file_name, report });
        }
    }
    baselines.sort_by(|a, b| a.file_name.cmp(&b.file_name));
    Ok(baselines)
}

/// Serializes a report as pretty JSON with a trailing newline and writes it
/// to `dir/BENCH_<date>.json`, returning the path.
///
/// # Errors
///
/// Returns [`BenchError`] on I/O failure.
pub fn write_report(report: &BenchReport, dir: &Path) -> Result<PathBuf, BenchError> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file_name(&report.date));
    let mut text = serde_json::to_string_pretty(report)?;
    text.push('\n');
    std::fs::write(&path, text)?;
    Ok(path)
}

/// One row of the baseline-to-baseline comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaRow {
    /// Metric label, e.g. `"streaming samples/sec"`.
    pub metric: String,
    /// Value in the previous baseline.
    pub previous: f64,
    /// Value in the current baseline.
    pub current: f64,
    /// Relative change in percent (NaN when the previous value is zero).
    pub change_percent: f64,
}

fn delta_row(metric: &str, previous: f64, current: f64) -> DeltaRow {
    let change_percent = if previous.abs() > 1e-12 {
        (current - previous) / previous * 100.0
    } else {
        f64::NAN
    };
    DeltaRow {
        metric: metric.to_string(),
        previous,
        current,
        change_percent,
    }
}

/// Compares the headline metrics of two baselines (the trajectory later perf
/// PRs are judged against).
pub fn compute_deltas(previous: &BenchReport, current: &BenchReport) -> Vec<DeltaRow> {
    let mut rows = vec![
        delta_row(
            "streaming samples/sec",
            previous.streaming.samples_per_sec,
            current.streaming.samples_per_sec,
        ),
        delta_row(
            "streaming p50 latency (us)",
            previous.streaming.push_latency.p50_us,
            current.streaming.push_latency.p50_us,
        ),
        delta_row(
            "streaming p99 latency (us)",
            previous.streaming.push_latency.p99_us,
            current.streaming.push_latency.p99_us,
        ),
        delta_row(
            "model scoring mean (us)",
            previous.streaming.model_scoring_mean_us,
            current.streaming.model_scoring_mean_us,
        ),
    ];
    if let (Some(p), Some(c)) = (&previous.fleet, &current.fleet) {
        rows.push(delta_row(
            "fleet peak samples/sec",
            p.peak_samples_per_sec,
            c.peak_samples_per_sec,
        ));
    }
    if let (Some(p), Some(c)) = (&previous.multicore, &current.multicore) {
        rows.push(delta_row(
            "multicore peak samples/sec",
            p.peak_samples_per_sec,
            c.peak_samples_per_sec,
        ));
        if let (Some(pb), Some(cb)) = (p.cell("Block"), c.cell("Block")) {
            rows.push(delta_row(
                "multicore Block SLO met",
                pb.slo_met_fraction,
                cb.slo_met_fraction,
            ));
        }
    }
    if let (Some(p), Some(c)) = (&previous.telemetry, &current.telemetry) {
        rows.push(delta_row(
            "telemetry enabled samples/sec",
            p.enabled_samples_per_sec,
            c.enabled_samples_per_sec,
        ));
        rows.push(delta_row(
            "telemetry overhead (%)",
            p.overhead_pct,
            c.overhead_pct,
        ));
    }
    if let (Some(p), Some(c)) = (&previous.persistence, &current.persistence) {
        rows.push(delta_row(
            "model file size (bytes)",
            p.file_bytes as f64,
            c.file_bytes as f64,
        ));
        rows.push(delta_row(
            "model load mean (us)",
            p.load_mean_us,
            c.load_mean_us,
        ));
    }
    if let (Some(p), Some(c)) = (&previous.backends, &current.backends) {
        for kind in varade::BackendKind::ALL {
            if let (Some(pc), Some(cc)) = (p.cell(kind), c.cell(kind)) {
                rows.push(delta_row(
                    &format!("{} backend samples/sec", kind.label()),
                    pc.samples_per_sec,
                    cc.samples_per_sec,
                ));
            }
        }
    }
    if let (Some(p), Some(c)) = (
        previous.table2.auc_of("VARADE"),
        current.table2.auc_of("VARADE"),
    ) {
        rows.push(delta_row("VARADE AUC-ROC", p, c));
    }
    for board in ["Jetson Xavier NX", "Jetson AGX Orin"] {
        if let (Some(p), Some(c)) = (
            previous.table2.frequency_of(board, "VARADE"),
            current.table2.frequency_of(board, "VARADE"),
        ) {
            rows.push(delta_row(&format!("VARADE {board} (Hz)"), p, c));
        }
    }
    rows
}

fn fmt_change(change_percent: f64) -> String {
    if change_percent.is_nan() {
        "n/a".to_string()
    } else {
        format!("{change_percent:+.1}%")
    }
}

/// Renders `EXPERIMENTS.md` from the committed baselines (latest last).
///
/// The output is a pure function of the baselines' contents, which is what
/// makes the CI drift check possible: rerunning the renderer against the same
/// committed `BENCH_*.json` files must reproduce the committed
/// `EXPERIMENTS.md` byte for byte.
pub fn render_experiments_md(baselines: &[Baseline]) -> String {
    let mut out = String::new();
    out.push_str("# EXPERIMENTS\n\n");
    out.push_str(
        "<!-- Generated by `cargo run --release -p varade-bench --bin exp_report`.\n     \
         Do not edit by hand: CI regenerates this file from the checked-in\n     \
         BENCH_*.json baselines and fails on drift. -->\n\n",
    );
    let Some(latest) = baselines.last() else {
        out.push_str(
            "No full-scale benchmark baseline is checked in yet. Run\n\
             `cargo run --release -p varade-bench --bin exp_report` and commit the\n\
             resulting `BENCH_<date>.json`.\n",
        );
        return out;
    };
    let r = &latest.report;
    out.push_str(&format!(
        "Latest baseline: `{}` (schema v{}, {} scale, {}).\n\
         Baselines in trajectory: {}.\n",
        latest.file_name,
        r.schema_version,
        r.scale,
        r.date,
        baselines.len()
    ));
    if let Some(meta) = &r.meta {
        out.push_str(&format!(
            "Host: {} CPU core(s); headline sections ran on the `{}` kernel backend.\n",
            meta.cpu_cores, meta.active_backend
        ));
    }
    out.push('\n');

    render_streaming(&mut out, r);
    render_backends(&mut out, r);
    render_fleet(&mut out, r);
    render_multicore(&mut out, r);
    render_telemetry(&mut out, r);
    render_persistence(&mut out, r);
    render_table2(&mut out, r);
    render_figure3(&mut out, r);
    render_ablation(&mut out, r);
    render_architecture(&mut out, r);
    render_channels(&mut out, r);
    render_deltas(&mut out, baselines);
    render_caveats(&mut out);
    out
}

fn render_backends(out: &mut String, r: &BenchReport) {
    out.push_str("## 2. Kernel backends (`varade_tensor::backend`)\n\n");
    let Some(b) = &r.backends else {
        out.push_str(
            "This baseline predates the multi-backend substrate (schema < 3);\n\
             the next full-scale `exp_report` run will populate this section.\n\n",
        );
        return;
    };
    out.push_str(&format!(
        "The same fitted detector, re-routed onto each kernel backend and pushed\n\
         through the identical single-stream scoring path ({} samples, {} channels,\n\
         window {}). The scalar backend is the bit-exact reference; the deviation\n\
         column is the largest relative score difference against it (contract:\n\
         ≤ 1e-5).\n\n",
        b.streamed_samples, b.n_channels, b.window,
    ));
    out.push_str(
        "| Backend | Samples/sec | p50 (us) | p99 (us) | Model fwd (us) | Max rel. deviation |\n\
         |---|---|---|---|---|---|\n",
    );
    // Baselines from before schema v10 also recorded a cell for the deleted
    // int8 backend; only backends this build has are rendered.
    for cell in b
        .cells
        .iter()
        .filter(|c| c.backend.parse::<varade::BackendKind>().is_ok())
    {
        out.push_str(&format!(
            "| {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.2e} |\n",
            cell.backend,
            cell.samples_per_sec,
            cell.push_latency.p50_us,
            cell.push_latency.p99_us,
            cell.model_scoring_mean_us,
            cell.max_rel_deviation_vs_scalar,
        ));
    }
    out.push_str(&format!(
        "\nVector-over-scalar single-stream speedup: **{:.2}x**. Select a backend\n\
         with `VARADE_BACKEND={}` or `exp_report --backend <kind>`.\n\n",
        b.vector_over_scalar_speedup,
        varade::BackendKind::ALL.map(|k| k.label()).join("|"),
    ));
}

fn render_streaming(out: &mut String, r: &BenchReport) {
    let s = &r.streaming;
    out.push_str("## 1. Streaming throughput (`StreamingVarade::push`)\n\n");
    out.push_str(
        "The single-sample push path that a Jetson deployment would run (paper §3.1),\n\
         measured on the host that generated the baseline. This is the reference the\n\
         ROADMAP \"streaming throughput\" item must beat.\n\n",
    );
    out.push_str(&format!(
        "| Samples/sec | Mean (us) | p50 (us) | p90 (us) | p99 (us) | Max (us) |\n\
         |---|---|---|---|---|---|\n\
         | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |\n\n",
        s.samples_per_sec,
        s.push_latency.mean_us,
        s.push_latency.p50_us,
        s.push_latency.p90_us,
        s.push_latency.p99_us,
        s.push_latency.max_us,
    ));
    out.push_str(&format!(
        "Streamed {} test samples ({} channels, window {}) after training on {} samples;\n\
         {} scores emitted; model forward pass alone averages {:.1} us.\n",
        s.streamed_samples,
        s.n_channels,
        s.window,
        s.train_samples,
        s.scores_emitted,
        s.model_scoring_mean_us,
    ));
    if let Some(summary) = &s.score_summary {
        out.push_str(&format!(
            "Streamed-score quality vs. collision labels: AUC-ROC {:.3}, AP {:.3}, best F1 {:.3}.\n",
            summary.auc_roc, summary.average_precision, summary.best_f1
        ));
    }
    out.push_str(&format!(
        "\nPaper cross-reference (Table 2): VARADE runs at {:.3} Hz on the Jetson Xavier NX\n\
         and {:.3} Hz on the AGX Orin; the numbers above are a laptop-class CPU, so compare\n\
         trajectories, not absolutes.\n\n",
        paper_row("Jetson Xavier NX", "VARADE")
            .and_then(|p| p.inference_frequency_hz)
            .unwrap_or(f64::NAN),
        paper_row("Jetson AGX Orin", "VARADE")
            .and_then(|p| p.inference_frequency_hz)
            .unwrap_or(f64::NAN),
    ));
}

fn render_fleet(out: &mut String, r: &BenchReport) {
    out.push_str("## 3. Fleet serving throughput (`varade-fleet`)\n\n");
    let Some(fleet) = &r.fleet else {
        out.push_str(
            "This baseline predates the fleet engine (schema v1); the next\n\
             full-scale `exp_report` run will populate this section.\n\n",
        );
        return;
    };
    out.push_str(&format!(
        "Many logical streams share one fitted detector through the sharded\n\
         `varade-fleet` engine (bounded queues, `{}` overload policy, incremental\n\
         scoring). One-stream/one-shard fleet vs. `StreamingVarade` bit-identity\n\
         over {} samples: **{}**.\n\n",
        fleet.overload_policy,
        fleet.equivalence_samples,
        if fleet.one_stream_bit_identical {
            "confirmed"
        } else {
            "FAILED"
        },
    ));
    out.push_str(
        "| Streams | Shards | Samples/sec | Scores/sec | p50 (us) | p99 (us) | Dropped |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for cell in &fleet.cells {
        out.push_str(&format!(
            "| {} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {} |\n",
            cell.streams,
            cell.shards,
            cell.samples_per_sec,
            cell.scores_per_sec,
            cell.sample_latency.p50_us,
            cell.sample_latency.p99_us,
            cell.dropped,
        ));
    }
    out.push_str(&format!(
        "\nPeak aggregate throughput: {:.1} samples/sec ({} channels, window {},\n\
         queue capacity {}). Samples/sec counts every admitted sample (warm-up\n\
         included); scores/sec counts model forwards only — the conservative\n\
         figure. Latencies are per scored sample: normalization and window\n\
         buffering plus its incremental forward pass.\n\n",
        fleet.peak_samples_per_sec, fleet.n_channels, fleet.window, fleet.queue_capacity,
    ));
}

/// The Zipf load harness, rendered as a subsection of §3 (it exercises the
/// same fleet engine at population scale) so the section numbering (and the
/// §9 trajectory) stays stable.
fn render_multicore(out: &mut String, r: &BenchReport) {
    out.push_str("### Multi-core Zipf load harness (`experiments::load`)\n\n");
    let Some(m) = &r.multicore else {
        out.push_str(
            "This baseline predates the load harness (schema < 6); the next\n\
             full-scale `exp_report` run will populate this section.\n\n",
        );
        return;
    };
    out.push_str(&format!(
        "{} streams with Zipf(s = {}) popularity pushed by {} producer lane(s)\n\
         through `{}` ingress queues into {} work-stealing shard workers\n\
         ({} pushes per policy cell, window {}, queue capacity {}, host:\n\
         {} core(s)). One-stream/one-shard bit-identity against the direct\n\
         streaming path: **{}**. Every cell's sample ledger is audited\n\
         exactly — attempted = accepted + rejected, accepted = admitted +\n\
         dropped, admitted = scored + warm-up — and the run fails on any\n\
         imbalance.\n\n",
        m.streams,
        m.zipf_s,
        m.producer_lanes,
        m.queue_impl,
        m.workers,
        m.total_pushes_per_cell,
        m.window,
        m.queue_capacity,
        m.cpu_cores,
        if m.one_stream_bit_identical {
            "confirmed"
        } else {
            "FAILED"
        },
    ));
    out.push_str(
        "| Policy | Samples/sec | Rejected | Dropped | Scored | Steals | e2e p99 (us) | Stream-p99 median (us) | SLO met |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for cell in &m.cells {
        out.push_str(&format!(
            "| {} | {:.1} | {} | {} | {} | {} | {:.1} | {:.1} | {:.1}% |\n",
            cell.policy,
            cell.samples_per_sec,
            cell.rejected,
            cell.dropped,
            cell.scored,
            cell.steals,
            cell.end_to_end_latency.p99_us,
            cell.stream_p99.p50_us,
            cell.slo_met_fraction * 100.0,
        ));
    }
    out.push_str(&format!(
        "\nPeak admitted throughput: {:.1} samples/sec. Latency is end to end\n\
         (producer push call → score recorded); \"SLO met\" is the fraction of\n\
         scored streams whose own p99 stays within {:.0} us. Under the Zipf\n\
         tail most streams never fill their {}-sample warm-up window, so\n\
         scored streams are a minority of active ones by design.\n\n",
        m.peak_samples_per_sec,
        m.cells.first().map_or(0.0, |c| c.slo_us),
        m.window,
    ));
    if m.cells.iter().any(|c| c.stages.is_some()) {
        out.push_str(
            "Per-stage latency decomposition (telemetry substrate, merged across\n\
             shards; \"share\" is the stage's fraction of summed pipeline time —\n\
             the dominant stage is where an SLO miss is actually spent):\n\n",
        );
        out.push_str(
            "| Policy | Stage | Spans | Mean (us) | p50 (us) | p99 (us) | Share |\n\
             |---|---|---|---|---|---|---|\n",
        );
        for cell in &m.cells {
            let Some(stages) = &cell.stages else { continue };
            for s in stages {
                let dominant = cell.dominant_stage.as_deref() == Some(s.stage.as_str());
                out.push_str(&format!(
                    "| {} | {} | {} | {:.1} | {:.1} | {:.1} | {:.1}%{} |\n",
                    cell.policy,
                    s.stage,
                    s.latency.samples,
                    s.latency.mean_us,
                    s.latency.p50_us,
                    s.latency.p99_us,
                    s.share_pct,
                    if dominant { " ◀" } else { "" },
                ));
            }
        }
        out.push('\n');
    }
}

/// The telemetry overhead measurement, rendered as a subsection of §3 (it
/// gates the observability substrate wired through the same fleet engine) so
/// the section numbering (and the §9 trajectory) stays stable.
fn render_telemetry(out: &mut String, r: &BenchReport) {
    out.push_str("### Telemetry substrate overhead (`varade-obs`)\n\n");
    let Some(t) = &r.telemetry else {
        out.push_str(
            "This baseline predates the telemetry substrate (schema < 7); the\n\
             next full-scale `exp_report` run will populate this section.\n\n",
        );
        return;
    };
    out.push_str(&format!(
        "The same fitted detector served through two otherwise identical\n\
         one-shard fleets ({} streams × {} samples), one with the observability\n\
         substrate disabled and one fully enabled (per-stage histograms,\n\
         end-to-end recording, queue-depth gauges, event ring); {} interleaved\n\
         round pairs, best round of each mode shown, overhead from the\n\
         CPU-cost ratio of each mode's cheapest rounds:\n\n",
        t.streams, t.samples_per_stream, t.rounds,
    ));
    out.push_str(&format!(
        "| Substrate | Samples/sec |\n|---|---|\n\
         | disabled | {:.1} |\n\
         | enabled | {:.1} |\n\n",
        t.disabled_samples_per_sec, t.enabled_samples_per_sec,
    ));
    out.push_str(&format!(
        "Enabled overhead: **{:.2}%** (CI gates quick runs at ≤ 2% via\n\
         `bench_floor.json`; a negative value means the cost is below run-to-run\n\
         noise). The enabled run recorded {} stage spans and {} structured\n\
         events; queue wait p99 {:.1} us, model forward p99 {:.1} us,\n\
         end-to-end p99 {:.1} us.\n\n",
        t.overhead_pct,
        t.stage_spans,
        t.events_recorded,
        t.queue_wait.p99_us,
        t.forward.p99_us,
        t.end_to_end.p99_us,
    ));
}

/// The persistence round-trip audit, rendered as a subsection of §3 (the
/// fleet's hot-swap path is the consumer of saved models) so the section
/// numbering (and the §9 trajectory) stays stable.
fn render_persistence(out: &mut String, r: &BenchReport) {
    out.push_str("### Model persistence (`varade::persist`)\n\n");
    let Some(p) = &r.persistence else {
        out.push_str(
            "This baseline predates the persistence container (schema < 5);\n\
             the next full-scale `exp_report` run will populate this audit.\n\n",
        );
        return;
    };
    out.push_str(
        "The fitted detector serialized through the versioned container\n\
         (magic + schema version + JSON tensor header + little-endian `f32`\n\
         payload + CRC32), written to disk, loaded back and audited: the\n\
         loaded copy must reproduce the original's scores **bit-for-bit**\n\
         (this is the model file a fleet `publish_model` hot swap ships).\n\n",
    );
    out.push_str(&format!(
        "| File (bytes) | Header (bytes) | Payload (bytes) | f32 elements | Save mean (us) | Load mean (us) |\n\
         |---|---|---|---|---|---|\n\
         | {} | {} | {} | {} | {:.1} | {:.1} |\n\n",
        p.file_bytes,
        p.header_bytes,
        p.payload_bytes,
        p.persisted_f32_elements,
        p.save_mean_us,
        p.load_mean_us,
    ));
    out.push_str(&format!(
        "Deviation audit: {} test windows scored by both detectors ({} channels,\n\
         window {}); maximum absolute score deviation {:.1e} (contract: exactly 0 —\n\
         the run fails otherwise).\n\n",
        p.audited_windows, p.n_channels, p.window, p.max_abs_deviation,
    ));
}

fn render_table2(out: &mut String, r: &BenchReport) {
    out.push_str("## 4. Table 2 — detectors × edge boards (paper §4.3–4.4)\n\n");
    out.push_str(
        "Accuracy comes from really training scaled-down detectors on the simulated\n\
         robot dataset; platform columns come from the analytical Jetson model.\n\n",
    );
    out.push_str(&r.table2.table.to_markdown());
    out.push('\n');
    out.push_str("Paper vs. measured (Jetson Xavier NX):\n\n```\n");
    for row in r.table2.table.board_rows("Jetson Xavier NX") {
        if row.detector == "Idle" {
            continue;
        }
        if let (Some(paper), Some(auc), Some(freq)) = (
            paper_row("Jetson Xavier NX", &row.detector),
            row.auc_roc,
            row.inference_frequency_hz,
        ) {
            out.push_str(&format!(
                "{}\n",
                compare_line(
                    &format!("{} AUC-ROC", row.detector),
                    paper.auc_roc.unwrap_or(0.0),
                    auc
                )
            ));
            out.push_str(&format!(
                "{}\n",
                compare_line(
                    &format!("{} frequency (Hz)", row.detector),
                    paper.inference_frequency_hz.unwrap_or(0.0),
                    freq
                )
            ));
        }
    }
    out.push_str("```\n\n");
}

fn render_figure3(out: &mut String, r: &BenchReport) {
    out.push_str("## 5. Figure 3 — inference frequency vs. accuracy (paper §4.4)\n\n");
    out.push_str("Marker size in the paper encodes power draw; here it is the last column.\n\n");
    out.push_str(&r.figure3.to_markdown());
    out.push('\n');
}

fn render_ablation(out: &mut String, r: &BenchReport) {
    out.push_str("## 6. Ablations (paper §4.5)\n\n");
    let section = |out: &mut String, title: &str, entries: &[AblationEntry]| {
        out.push_str(&format!("### {title}\n\n"));
        out.push_str("| Variant | AUC-ROC | MFLOPs/inference |\n|---|---|---|\n");
        for e in entries {
            out.push_str(&format!(
                "| {} | {:.3} | {:.2} |\n",
                e.variant, e.auc_roc, e.mflops
            ));
        }
        out.push('\n');
    };
    section(
        out,
        "A1 — scoring rule (variance vs. prediction error)",
        &r.ablation.scoring_rules,
    );
    section(out, "A2 — KL weight λ (Eq. 7)", &r.ablation.kl_sweep);
    section(
        out,
        "A3 — context window T (depth / cost trade-off)",
        &r.ablation.window_sweep,
    );
}

fn render_architecture(out: &mut String, r: &BenchReport) {
    let a = &r.architecture;
    out.push_str("## 7. Architecture (paper §3.1, Figure 1)\n\n");
    out.push_str(&format!(
        "Paper-scale VARADE: window T = {}, {} input channels, {} convolutional layers,\n\
         {} trainable parameters, {:.2} MFLOPs per inference ({:.2} MB parameters,\n\
         {:.2} MB activations).\n\n",
        a.window,
        a.n_channels,
        a.conv_layers,
        a.trainable_parameters,
        a.mflops_per_inference,
        a.param_mb,
        a.activation_mb,
    ));
    out.push_str("| # | Layer | Output shape |\n|---|---|---|\n");
    for (i, layer) in a.layers.iter().enumerate() {
        out.push_str(&format!(
            "| {} | {} | {:?} |\n",
            i, layer.name, layer.output_shape
        ));
    }
    out.push('\n');
}

fn render_channels(out: &mut String, r: &BenchReport) {
    let c = &r.channels;
    out.push_str("## 8. Channel schema (paper §4.2, Table 1)\n\n");
    out.push_str(&format!(
        "{} channels: {} action identifier, {} joint (IMU) channels (7 sensors × 11),\n\
         {} power channels. The full table is printed by\n\
         `cargo run -p varade-bench --bin exp_channels`.\n\n",
        c.total, c.action, c.joint, c.power,
    ));
}

fn render_deltas(out: &mut String, baselines: &[Baseline]) {
    out.push_str("## 9. Trajectory — delta vs. previous baseline\n\n");
    if baselines.len() < 2 {
        out.push_str(
            "First baseline: nothing to compare against yet. The next full-scale\n\
             `exp_report` run will populate this section.\n\n",
        );
        return;
    }
    let previous = &baselines[baselines.len() - 2];
    let current = &baselines[baselines.len() - 1];
    out.push_str(&format!(
        "`{}` → `{}`:\n\n",
        previous.file_name, current.file_name
    ));
    out.push_str("| Metric | Previous | Current | Change |\n|---|---|---|---|\n");
    for row in compute_deltas(&previous.report, &current.report) {
        out.push_str(&format!(
            "| {} | {:.3} | {:.3} | {} |\n",
            row.metric,
            row.previous,
            row.current,
            fmt_change(row.change_percent)
        ));
    }
    out.push('\n');
}

fn render_caveats(out: &mut String) {
    out.push_str("## 10. Caveats\n\n");
    out.push_str(
        "* **Variance score at reduced scale.** The paper's variance-only scoring rule\n\
         needs paper-scale training to produce a calibrated predictive distribution;\n\
         at this repository's reduced scales it is near chance or worse (ablation A1\n\
         above; quickstart: AUC ≈ 0.29 vs 1.000 for prediction error). See the\n\
         `ScoringRule` rustdoc in `crates/core/src/detector.rs` and the\n\
         \"variance-score fidelity\" ROADMAP item.\n\
         * **Platform columns are analytical.** CPU/GPU/RAM/power/frequency come from\n\
         the roofline model of `varade-edge`, not from physical Jetson boards.\n\
         * **Timing sections are host-dependent.** Accuracy numbers are seeded and\n\
         reproducible; samples/sec and latency percentiles depend on the machine that\n\
         generated the baseline.\n",
    );
}

/// The committed performance floor (`bench_floor.json`): hard minimums a
/// quick `exp_report` run must clear in CI, the smoke gate against silent
/// throughput regressions. The floor is deliberately loose — about half of
/// the reference quick-scale throughput on the slowest machine in play — so
/// it only trips on real regressions, not on runner jitter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchFloor {
    /// Version of this floor file format.
    pub schema_version: u32,
    /// Minimum acceptable quick-scale `streaming.samples_per_sec`.
    pub quick_min_streaming_samples_per_sec: f64,
    /// Minimum acceptable quick-scale vector-over-scalar speedup (the vector
    /// backend must never fall behind the scalar reference).
    pub quick_min_vector_over_scalar_speedup: f64,
    /// Maximum acceptable quick-scale telemetry substrate overhead, in
    /// percent of disabled-mode fleet throughput. `None` in pre-telemetry
    /// floor files (schema ≤ 2).
    pub quick_max_telemetry_overhead_pct: Option<f64>,
    /// Where the numbers came from, for the next person who retunes them.
    pub note: String,
}

/// Loads a [`BenchFloor`] from `path`.
///
/// # Errors
///
/// Returns [`BenchError`] if the file cannot be read or parsed.
pub fn load_floor(path: &Path) -> Result<BenchFloor, BenchError> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(|e| BenchError::Report(format!("{}: {e}", path.display())))
}

/// Checks a quick-scale report against the committed floor; full-scale
/// reports are exempt (they set the trajectory instead of being gated by it).
///
/// # Errors
///
/// Returns [`BenchError::Report`] describing every violated floor.
pub fn check_floor(report: &BenchReport, floor: &BenchFloor) -> Result<(), BenchError> {
    if report.scale != ExperimentScale::Quick.label() {
        return Ok(());
    }
    let mut violations = Vec::new();
    if report.streaming.samples_per_sec < floor.quick_min_streaming_samples_per_sec {
        violations.push(format!(
            "streaming throughput {:.1} samples/sec is below the floor of {:.1}",
            report.streaming.samples_per_sec, floor.quick_min_streaming_samples_per_sec
        ));
    }
    if let Some(backends) = &report.backends {
        if backends.vector_over_scalar_speedup < floor.quick_min_vector_over_scalar_speedup {
            violations.push(format!(
                "vector-over-scalar speedup {:.2}x is below the floor of {:.2}x",
                backends.vector_over_scalar_speedup, floor.quick_min_vector_over_scalar_speedup
            ));
        }
    }
    if let (Some(telemetry), Some(max_pct)) =
        (&report.telemetry, floor.quick_max_telemetry_overhead_pct)
    {
        if telemetry.overhead_pct > max_pct {
            violations.push(format!(
                "telemetry substrate overhead {:.2}% exceeds the ceiling of {:.2}%",
                telemetry.overhead_pct, max_pct
            ));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(BenchError::Report(violations.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_from_days_matches_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        assert_eq!(civil_from_days(20_664), (2026, 7, 30));
        // Leap day.
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
    }

    #[test]
    fn today_is_iso_formatted() {
        let d = today_utc();
        assert_eq!(d.len(), 10);
        assert_eq!(d.as_bytes()[4], b'-');
        assert_eq!(d.as_bytes()[7], b'-');
    }

    #[test]
    fn file_name_embeds_the_date() {
        assert_eq!(file_name("2026-07-30"), "BENCH_2026-07-30.json");
    }

    #[test]
    fn delta_rows_guard_division_by_zero() {
        let row = delta_row("m", 0.0, 5.0);
        assert!(row.change_percent.is_nan());
        assert_eq!(fmt_change(row.change_percent), "n/a");
        let row = delta_row("m", 10.0, 12.5);
        assert!((row.change_percent - 25.0).abs() < 1e-9);
        assert_eq!(fmt_change(row.change_percent), "+25.0%");
    }

    #[test]
    fn empty_baseline_list_renders_a_stub() {
        let md = render_experiments_md(&[]);
        assert!(md.starts_with("# EXPERIMENTS"));
        assert!(md.contains("No full-scale benchmark baseline"));
    }
}
