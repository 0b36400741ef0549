//! Outside-in benchmark of the VARADE workspace.
//!
//! Every number is taken from outside the program, by timing calls into the
//! crates' public API on one of three workloads:
//!
//! * `edge-single` — closed loop, one raw 86-channel robot stream through
//!   `StreamingVarade::push` (the scaled window-64 model, training
//!   normalizer applied on the fly), looping over the test split.
//! * `fleet-paced` — open loop: 64 robot streams at 200 Hz each
//!   (12 800 samples/s) into a `Fleet` with `nproc` shards and the `Block`
//!   policy. Latency runs from each sample's due time to its score.
//! * `batch-score` — repeated `VaradeDetector::score_series` passes over the
//!   3750-row test split (the full-window `forward_infer` path).
//!
//! Usage:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload edge-single --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-manifest
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` runs the workload
//! again with per-layer attribution (see `mirror.rs`) and prints the
//! per-layer metrics. The last line of standard output is the result as one
//! JSON object; the line before it carries the host facts and the run's
//! notes (round counts and all-rounds figures, see `stats.rs`). A run whose
//! outputs do not match their references still prints its result, with
//! `correct: false` and the mismatches counted in `failed`. `--write-manifest`
//! regenerates `BENCHMARK.json` from the metric catalogue in `report.rs`.

mod batch_score;
mod edge_single;
mod fleet_paced;
mod host;
mod mirror;
mod report;
mod setup;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

use report::{json_str, Report, WORKLOADS};

/// Seconds one run measures, as recorded in `BENCHMARK.json`.
const RUN_SECONDS: u64 = 20;

/// One run's command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        if flag == "--write-manifest" {
            return Ok(None);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"expected 0 < seconds <= 600"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {workload} (expected one of {names:?})"
        ));
    }
    Ok(Some(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(Duration::from_secs(RUN_SECONDS)),
        trace: trace.unwrap_or(false),
    }))
}

fn run(args: &Args) -> Result<(), String> {
    let ticks = host::CpuTicks::now();
    let mut report = Report::default();
    match args.workload.as_str() {
        "edge-single" => edge_single::run(args, &mut report)?,
        "fleet-paced" => fleet_paced::run(args, &mut report)?,
        "batch-score" => batch_score::run(args, &mut report)?,
        other => return Err(format!("unknown workload {other}")),
    }
    report.set(
        "ok_rate",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
    );
    let (steal_ticks, steal_pct) = host::CpuTicks::now().steal_since(ticks);
    report.set("host.steal_pct", steal_pct);

    // Generator lateness exists only for the open-loop workload.
    let gen_lag = report
        .get("gen.lag_p99_us")
        .map_or(String::new(), |v| format!(", \"gen_lag_p99_us\": {v}"));

    let (table, line) = report.render(args.trace)?;
    print!("{table}");
    println!(
        "{{\"host\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"cpu_model\": {}, \"backend\": {}, \"incremental_default\": {}, \
         \"steal_ticks\": {steal_ticks}, \"steal_pct\": {steal_pct}{gen_lag}}}, \
         \"notes\": {{{}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        host::nproc(),
        json_str(&host::cpu_model()),
        json_str(varade::BackendKind::active().label()),
        varade::incremental_default(),
        report.notes_json(),
    );
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            return match std::fs::write("BENCHMARK.json", report::manifest(RUN_SECONDS)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: writing BENCHMARK.json: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
