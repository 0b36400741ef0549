//! Runs every paper experiment, measures streaming throughput, and emits the
//! benchmark artifacts:
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

use std::path::PathBuf;
use std::process::ExitCode;

use varade_bench::experiments::ExperimentScale;
use varade_bench::report;

/// Usage string with the `--backend` values enumerated from
/// [`varade::BackendKind::ALL`] itself, so a new backend can never leave the
/// help text stale.
fn usage() -> String {
    format!(
        "usage: exp_report [--quick] [--render-only] [--out-dir DIR] \
         [--baseline-dir DIR] [--md-path PATH] [--date YYYY-MM-DD] \
         [--backend {}] [--check-floor PATH] [--telemetry]",
        varade::BackendKind::ALL.map(|k| k.label()).join("|")
    )
}

struct Args {
    quick: bool,
    render_only: bool,
    out_dir: Option<PathBuf>,
    baseline_dir: PathBuf,
    md_path: PathBuf,
    date: Option<String>,
    backend: Option<varade::BackendKind>,
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
        backend: None,
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
            "--backend" => args.backend = Some(value_of(&mut i)?.parse()?),
            "--check-floor" => args.check_floor = Some(PathBuf::from(value_of(&mut i)?)),
            "--telemetry" => args.telemetry = true,
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
        i += 1;
    }
    if args.render_only && args.check_floor.is_some() {
        // The floor gates a fresh run's measurements; render-only performs
        // none, so accepting both would report a gate that never evaluated.
        return Err(format!(
            "--check-floor requires a measuring run and cannot be combined with --render-only\n{}",
            usage()
        ));
    }
    if args.render_only && args.telemetry {
        // The telemetry artifacts come from a real telemetry-enabled serve;
        // render-only performs none.
        return Err(format!(
            "--telemetry requires a measuring run and cannot be combined with --render-only\n{}",
            usage()
        ));
    }
    Ok(args)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args()?;
    if let Some(kind) = args.backend {
        // Must happen before any model is built: the process default freezes
        // on first use.
        varade_tensor::backend::set_process_default(kind).map_err(|resolved| {
            format!("--backend {kind} came too late: the process already resolved `{resolved}`")
        })?;
    }

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
        println!(
            "streaming: {:.1} samples/sec (p50 {:.1} us, p99 {:.1} us, model {:.1} us)",
            report.streaming.samples_per_sec,
            report.streaming.push_latency.p50_us,
            report.streaming.push_latency.p99_us,
            report.streaming.model_scoring_mean_us,
        );
        if let Some(backends) = &report.backends {
            for cell in &backends.cells {
                println!(
                    "backend {}: {:.1} samples/sec (model {:.1} us, max dev {:.2e})",
                    cell.backend,
                    cell.samples_per_sec,
                    cell.model_scoring_mean_us,
                    cell.max_rel_deviation_vs_scalar,
                );
            }
            println!(
                "vector-over-scalar speedup: {:.2}x",
                backends.vector_over_scalar_speedup
            );
        }
        if let Some(fleet) = &report.fleet {
            println!(
                "fleet: peak {:.1} samples/sec over {} cells (1-stream bit-identity: {})",
                fleet.peak_samples_per_sec,
                fleet.cells.len(),
                if fleet.one_stream_bit_identical {
                    "confirmed"
                } else {
                    "FAILED"
                },
            );
        }
        if let Some(t) = &report.telemetry {
            println!(
                "telemetry: disabled {:.1} vs enabled {:.1} samples/sec ({:+.2}% overhead)",
                t.disabled_samples_per_sec, t.enabled_samples_per_sec, t.overhead_pct,
            );
        }
        if let Some(m) = &report.multicore {
            println!(
                "multicore: {} streams x {} workers, peak {:.1} samples/sec, \
                 {} steals in Block cell (1-stream bit-identity: {})",
                m.streams,
                m.workers,
                m.peak_samples_per_sec,
                m.cell("Block").map_or(0, |c| c.steals),
                if m.one_stream_bit_identical {
                    "confirmed"
                } else {
                    "FAILED"
                },
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
                // GitHub Actions error annotation: the perf-regression gate.
                eprintln!("::error::performance regression: {e}");
                return Err(format!("performance floor violated: {e}").into());
            }
            println!("performance floor check passed ({})", floor_path.display());
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
