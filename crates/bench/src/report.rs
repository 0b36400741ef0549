//! Benchmark reporting: `BENCH_<date>.json` baselines and the generated
//! `EXPERIMENTS.md`.
//!
//! One [`BenchReport`] bundles every experiment result at one scale behind a
//! schema version. Full-scale reports are checked into the repository root as
//! `BENCH_<date>.json` — the trajectory of the paper artifacts — and
//! `EXPERIMENTS.md` is rendered *from those committed files only*, so
//! regenerating it is deterministic: CI re-renders and fails on drift.
//! Quick-scale reports are written under `target/` by default and are never
//! picked up as baselines.
//!
//! Throughput and latency are not measured here: the outside-in benchmark in
//! `perfbench/` (see its README) is the one instrument for them.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::experiments::ablation::{AblationEntry, AblationResultSet};
use crate::experiments::architecture::ArchitectureResult;
use crate::experiments::channels::ChannelsResult;
use crate::experiments::figure3::Figure3Result;
use crate::experiments::persist::PersistenceResult;
use crate::experiments::table2::Table2Result;
use crate::experiments::telemetry::TelemetryResult;
use crate::experiments::ExperimentScale;
use crate::experiments::{ablation, architecture, channels, figure3, persist, table2, telemetry};
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
/// `quant` cell with the int8 backend itself.
/// v11 dropped the `streaming`, `backends`, `fleet` and `multicore` timing
/// sections: perfbench is the one throughput and latency instrument. Older
/// reports still load; every dropped key is ignored.
pub const SCHEMA_VERSION: u32 = 11;

/// Oldest schema this crate still reads. Older reports simply lack the
/// newer optional sections (`meta` before v3, `persistence` before v5,
/// `telemetry` before v7), which deserialize as `None`.
pub const MIN_SCHEMA_VERSION: u32 = 1;

/// Host and configuration metadata recorded with every report, so the
/// `BENCH_*.json` trajectory stays comparable across machines (schema v3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMeta {
    /// The kernel label the run's models were built on: always `"scalar"`
    /// now that there is one kernel set; older baselines may read
    /// `"vector"`.
    pub active_backend: String,
    /// CPU cores available to the run (`std::thread::available_parallelism`;
    /// 0 if the platform cannot say).
    pub cpu_cores: usize,
}

impl RunMeta {
    /// Captures the current process' metadata.
    pub fn capture() -> Self {
        Self {
            active_backend: "scalar".to_string(),
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
    /// Model save/load round-trip audit (`None` in pre-v5 baselines).
    pub persistence: Option<PersistenceResult>,
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
/// the ablation, telemetry and persistence experiments all reuse that
/// dataset and fitted detector, so the report builds the dataset — and
/// trains VARADE — exactly once.
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
    eprintln!("exp_report: measuring telemetry substrate overhead ...");
    let shared = std::sync::Arc::new(outcome.varade);
    let telemetry = telemetry::run_fitted(&shared, &outcome.dataset, scale)?;
    eprintln!("exp_report: auditing the persistence round-trip ...");
    let persistence = persist::run_fitted(&shared, &outcome.dataset, scale.audit_sample_cap())?;
    Ok(BenchReport {
        schema_version: SCHEMA_VERSION,
        date: date.to_string(),
        scale: scale.label().to_string(),
        meta: Some(RunMeta::capture()),
        persistence: Some(persistence),
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
    /// Metric label, e.g. `"VARADE AUC-ROC"`.
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

/// Compares the headline metrics of two baselines.
pub fn compute_deltas(previous: &BenchReport, current: &BenchReport) -> Vec<DeltaRow> {
    let mut rows = Vec::new();
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
            "Host: {} CPU core(s); models ran on the `{}` kernel backend.\n",
            meta.cpu_cores, meta.active_backend
        ));
    }
    out.push_str(
        "Throughput and latency are measured by the outside-in benchmark, not by\n\
         this report: see `perfbench/README.md`.\n\n",
    );

    render_table2(&mut out, r);
    render_figure3(&mut out, r);
    render_ablation(&mut out, r);
    render_architecture(&mut out, r);
    render_channels(&mut out, r);
    render_telemetry(&mut out, r);
    render_persistence(&mut out, r);
    render_deltas(&mut out, baselines);
    render_caveats(&mut out);
    out
}

fn render_table2(out: &mut String, r: &BenchReport) {
    out.push_str("## 1. Table 2 — detectors × edge boards (paper §4.3–4.4)\n\n");
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
    out.push_str("## 2. Figure 3 — inference frequency vs. accuracy (paper §4.4)\n\n");
    out.push_str("Marker size in the paper encodes power draw; here it is the last column.\n\n");
    out.push_str(&r.figure3.to_markdown());
    out.push('\n');
}

fn render_ablation(out: &mut String, r: &BenchReport) {
    out.push_str("## 3. Ablations (paper §4.5)\n\n");
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
    out.push_str("## 4. Architecture (paper §3.1, Figure 1)\n\n");
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
    out.push_str("## 5. Channel schema (paper §4.2, Table 1)\n\n");
    out.push_str(&format!(
        "{} channels: {} action identifier, {} joint (IMU) channels (7 sensors × 11),\n\
         {} power channels. The full table is printed by\n\
         `cargo run -p varade-bench --bin exp_channels`.\n\n",
        c.total, c.action, c.joint, c.power,
    ));
}

fn render_telemetry(out: &mut String, r: &BenchReport) {
    out.push_str("## 6. Telemetry substrate overhead (`varade-obs`)\n\n");
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

fn render_persistence(out: &mut String, r: &BenchReport) {
    out.push_str("## 7. Model persistence (`varade::persist`)\n\n");
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

fn render_deltas(out: &mut String, baselines: &[Baseline]) {
    out.push_str("## 8. Trajectory — delta vs. previous baseline\n\n");
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
    out.push_str("## 9. Caveats\n\n");
    out.push_str(
        "* **Variance score at reduced scale.** The paper's variance-only scoring rule\n\
         needs paper-scale training to produce a calibrated predictive distribution;\n\
         at this repository's reduced scales it is near chance or worse (ablation A1\n\
         above; quickstart: AUC ≈ 0.29 vs 1.000 for prediction error). See the\n\
         `ScoringRule` rustdoc in `crates/core/src/detector.rs` and the\n\
         \"variance-score fidelity\" ROADMAP item.\n\
         * **Platform columns are analytical.** CPU/GPU/RAM/power/frequency come from\n\
         the roofline model of `varade-edge`, not from physical Jetson boards.\n\
         * **Timing lives in perfbench.** Accuracy numbers are seeded and reproducible.\n\
         This report times only the telemetry overhead and the persistence save/load,\n\
         and those depend on the machine that generated the baseline. Every throughput\n\
         and latency question goes to the outside-in benchmark: see\n\
         `perfbench/README.md`.\n",
    );
}

/// The committed gate file (`bench_floor.json`): the ceiling a quick
/// `exp_report --check-floor` run must stay under in CI. Since floor schema
/// 7 that is the telemetry-overhead contract alone; throughput and latency
/// are judged by perfbench. Floor files from before schema 7 still load:
/// their retired throughput keys are ignored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchFloor {
    /// Version of this floor file format.
    pub schema_version: u32,
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

/// Checks a quick-scale report against the committed telemetry-overhead
/// ceiling; full-scale reports are exempt (they set the trajectory instead of
/// being gated by it).
///
/// # Errors
///
/// Returns [`BenchError::Report`] describing the violated ceiling.
pub fn check_floor(report: &BenchReport, floor: &BenchFloor) -> Result<(), BenchError> {
    if report.scale != ExperimentScale::Quick.label() {
        return Ok(());
    }
    if let (Some(telemetry), Some(max_pct)) =
        (&report.telemetry, floor.quick_max_telemetry_overhead_pct)
    {
        if telemetry.overhead_pct > max_pct {
            return Err(BenchError::Report(format!(
                "telemetry substrate overhead {:.2}% exceeds the ceiling of {:.2}%",
                telemetry.overhead_pct, max_pct
            )));
        }
    }
    Ok(())
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
