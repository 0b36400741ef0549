//! Runs every paper experiment plus the telemetry-overhead and persistence
//! audits, and emits the report artifacts:
//!
//! * `BENCH_<date>.json` — schema-versioned, serde-round-trippable report
//!   (full-scale runs write it to the repository root so it can be committed
//!   as a baseline; `--quick` runs default to `target/bench-reports/`);
//! * `EXPERIMENTS.md` — regenerated from the committed full-scale baselines
//!   only, so its content is deterministic and CI can fail on drift.
//!
//! ```console
//! $ cargo run --release -p varade-bench --bin exp_report              # paper-scale baseline
//! $ cargo run --release -p varade-bench --bin exp_report -- --quick   # CI / smoke
//! $ cargo run -p varade-bench --bin exp_report -- --render-only       # drift check
//! ```
//!
//! Throughput and latency are measured by the outside-in benchmark in
//! `perfbench/`, not here.

use std::path::PathBuf;
use std::process::ExitCode;

use varade_bench::experiments::ExperimentScale;
use varade_bench::report;

const USAGE: &str = "usage: exp_report [--quick] [--render-only] [--out-dir DIR] \
     [--baseline-dir DIR] [--md-path PATH] [--date YYYY-MM-DD] \
     [--check-floor PATH] [--telemetry]";

struct Args {
    quick: bool,
    render_only: bool,
    out_dir: Option<PathBuf>,
    baseline_dir: PathBuf,
    md_path: PathBuf,
    date: Option<String>,
    check_floor: Option<PathBuf>,
    telemetry: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        render_only: false,
        out_dir: None,
        baseline_dir: PathBuf::from("."),
        md_path: PathBuf::from("EXPERIMENTS.md"),
        date: None,
        check_floor: None,
        telemetry: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value_of = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value after `{}`", argv[*i - 1]))
        };
        match argv[i].as_str() {
            "--quick" => args.quick = true,
            "--render-only" => args.render_only = true,
            "--out-dir" => args.out_dir = Some(PathBuf::from(value_of(&mut i)?)),
            "--baseline-dir" => args.baseline_dir = PathBuf::from(value_of(&mut i)?),
            "--md-path" => args.md_path = PathBuf::from(value_of(&mut i)?),
            "--date" => args.date = Some(value_of(&mut i)?),
            "--check-floor" => args.check_floor = Some(PathBuf::from(value_of(&mut i)?)),
            "--telemetry" => args.telemetry = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    if args.render_only && args.check_floor.is_some() {
        // The floor gates a fresh run's measurements; render-only performs
        // none, so accepting both would report a gate that never evaluated.
        return Err(format!(
            "--check-floor requires a measuring run and cannot be combined with --render-only\n{USAGE}"
        ));
    }
    if args.render_only && args.telemetry {
        // The telemetry artifacts come from a real telemetry-enabled serve;
        // render-only performs none.
        return Err(format!(
            "--telemetry requires a measuring run and cannot be combined with --render-only\n{USAGE}"
        ));
    }
    Ok(args)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args()?;

    if !args.render_only {
        let scale = ExperimentScale::from_quick_flag(args.quick);
        let date = args.date.clone().unwrap_or_else(report::today_utc);
        let report = report::collect(scale, &date)?;
        // Quick reports are smoke artifacts: keep them out of the baseline
        // directory by default so they never influence EXPERIMENTS.md.
        let out_dir = args.out_dir.clone().unwrap_or_else(|| {
            if args.quick {
                PathBuf::from("target/bench-reports")
            } else {
                PathBuf::from(".")
            }
        });
        let path = report::write_report(&report, &out_dir)?;
        println!("wrote {}", path.display());
        if let Some(t) = &report.telemetry {
            println!(
                "telemetry: disabled {:.1} vs enabled {:.1} samples/sec ({:+.2}% overhead)",
                t.disabled_samples_per_sec, t.enabled_samples_per_sec, t.overhead_pct,
            );
        }
        if let Some(auc) = report.table2.auc_of("VARADE") {
            println!("VARADE AUC-ROC: {auc:.3}");
        }
        if args.telemetry {
            // Raw exposition artifacts from a real telemetry-enabled serve:
            // the merged snapshot as JSON and its Prometheus text rendering.
            let snapshot = varade_bench::experiments::telemetry::capture()?;
            let json_path = out_dir.join(format!("TELEMETRY_{date}.json"));
            let mut text = serde_json::to_string_pretty(&snapshot)?;
            text.push('\n');
            std::fs::write(&json_path, text)?;
            let prom_path = out_dir.join(format!("TELEMETRY_{date}.prom"));
            std::fs::write(&prom_path, varade_obs::prometheus_text(&snapshot))?;
            println!("wrote {}", json_path.display());
            println!("wrote {}", prom_path.display());
        }
        if let Some(floor_path) = &args.check_floor {
            let floor = report::load_floor(floor_path)?;
            if let Err(e) = report::check_floor(&report, &floor) {
                // GitHub Actions error annotation: the telemetry-overhead gate.
                eprintln!("::error::telemetry overhead regression: {e}");
                return Err(format!("telemetry overhead ceiling violated: {e}").into());
            }
            println!(
                "telemetry overhead ceiling check passed ({})",
                floor_path.display()
            );
        }
    }

    let baselines = report::load_baselines(&args.baseline_dir)?;
    let md = report::render_experiments_md(&baselines);
    std::fs::write(&args.md_path, md)?;
    println!(
        "wrote {} ({} full-scale baseline(s))",
        args.md_path.display(),
        baselines.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("exp_report: {e}");
            ExitCode::FAILURE
        }
    }
}
