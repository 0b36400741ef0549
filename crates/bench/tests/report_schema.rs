//! Integration tests of the `BENCH_*.json` schema: serde round-trips, the
//! baseline loader, delta computation against a fixture baseline, and a
//! `--quick` end-to-end run of the `exp_report` pipeline.

use varade_bench::experiments::ablation::{AblationEntry, AblationResultSet};
use varade_bench::experiments::architecture;
use varade_bench::experiments::channels;
use varade_bench::experiments::figure3::Figure3Result;
use varade_bench::experiments::persist::PersistenceResult;
use varade_bench::experiments::table2::Table2Result;
use varade_bench::experiments::telemetry::TelemetryResult;
use varade_bench::experiments::ExperimentScale;
use varade_bench::report::{
    check_floor, compute_deltas, file_name, load_baselines, render_experiments_md, write_report,
    Baseline, BenchFloor, BenchReport, RunMeta, SCHEMA_VERSION,
};
use varade_bench::timing::LatencyStats;
use varade_edge::table::{DetectorAccuracy, Table2, Table2Row};

/// Hand-built telemetry overhead measurement: enabling the substrate costs
/// half a percent of fleet throughput.
fn fixture_telemetry(samples_per_sec: f64) -> TelemetryResult {
    let lat = |scale: f64| LatencyStats {
        samples: 1_600,
        mean_us: 40.0 * scale,
        p50_us: 30.0 * scale,
        p90_us: 60.0 * scale,
        p99_us: 90.0 * scale,
        max_us: 200.0 * scale,
    };
    TelemetryResult {
        rounds: 5,
        streams: 4,
        samples_per_stream: 400,
        disabled_samples_per_sec: samples_per_sec * 2.0,
        enabled_samples_per_sec: samples_per_sec * 2.0 * 0.995,
        overhead_pct: 0.5,
        stage_spans: 7_360,
        events_recorded: 0,
        queue_wait: lat(1.0),
        forward: lat(20.0),
        end_to_end: lat(25.0),
    }
}

/// Hand-built persistence audit: a ~1 MB model file, bit-exact round trip.
fn fixture_persistence() -> PersistenceResult {
    PersistenceResult {
        n_channels: 86,
        window: 64,
        file_bytes: 28 + 4_096 + 1_048_576,
        header_bytes: 4_096,
        payload_bytes: 1_048_576,
        persisted_f32_elements: 262_144,
        save_mean_us: 1_200.0,
        load_mean_us: 900.0,
        audited_windows: 256,
        max_abs_deviation: 0.0,
    }
}

/// Hand-built fixture report (no training), tweakable per test.
fn fixture_report(date: &str, samples_per_sec: f64, varade_auc: f64) -> BenchReport {
    let table = Table2 {
        rows: vec![
            Table2Row {
                board: "Jetson Xavier NX".into(),
                detector: "VARADE".into(),
                cpu_percent: 52.0,
                gpu_percent: 70.0,
                ram_mb: 5488.0,
                gpu_ram_mb: 1005.0,
                power_w: 6.3,
                auc_roc: Some(varade_auc),
                inference_frequency_hz: Some(14.9),
            },
            Table2Row {
                board: "Jetson AGX Orin".into(),
                detector: "VARADE".into(),
                cpu_percent: 10.4,
                gpu_percent: 70.1,
                ram_mb: 5167.0,
                gpu_ram_mb: 954.0,
                power_w: 10.2,
                auc_roc: Some(varade_auc),
                inference_frequency_hz: Some(26.5),
            },
        ],
    };
    BenchReport {
        schema_version: SCHEMA_VERSION,
        date: date.to_string(),
        scale: "full".to_string(),
        meta: Some(RunMeta {
            active_backend: "scalar".to_string(),
            cpu_cores: 1,
        }),
        persistence: Some(fixture_persistence()),
        telemetry: Some(fixture_telemetry(samples_per_sec)),
        figure3: Figure3Result {
            points: varade_edge::figure::figure3_points(&table),
        },
        table2: Table2Result {
            table,
            accuracies: vec![DetectorAccuracy {
                name: "VARADE".into(),
                auc_roc: varade_auc,
            }],
        },
        ablation: AblationResultSet {
            scoring_rules: vec![
                AblationEntry {
                    variant: "score=variance".into(),
                    auc_roc: 0.29,
                    mflops: 1.4,
                },
                AblationEntry {
                    variant: "score=prediction-error".into(),
                    auc_roc: 1.0,
                    mflops: 1.4,
                },
            ],
            kl_sweep: vec![],
            window_sweep: vec![],
        },
        channels: channels::run(),
        architecture: architecture::run().expect("paper-scale summary builds"),
    }
}

#[test]
fn bench_report_round_trips_through_pretty_json() {
    let report = fixture_report("2026-07-30", 1100.0, 0.84);
    let text = serde_json::to_string_pretty(&report).unwrap();
    let back: BenchReport = serde_json::from_str(&text).unwrap();
    assert_eq!(back, report);
    // And the rendered text is stable across a second round trip.
    let text2 = serde_json::to_string_pretty(&back).unwrap();
    assert_eq!(text, text2);
}

#[test]
fn loader_reads_back_what_write_report_wrote_and_skips_quick_reports() {
    let dir = std::env::temp_dir().join(format!("varade-bench-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let full = fixture_report("2026-07-30", 1000.0, 0.8);
    let path = write_report(&full, &dir).unwrap();
    assert!(path.ends_with(file_name("2026-07-30")));
    let mut quick = fixture_report("2026-07-31", 900.0, 0.7);
    quick.scale = "quick".to_string();
    write_report(&quick, &dir).unwrap();
    // An unrelated file must be ignored entirely.
    std::fs::write(dir.join("notes.txt"), "not json").unwrap();

    let baselines = load_baselines(&dir).unwrap();
    assert_eq!(
        baselines.len(),
        1,
        "quick report must not become a baseline"
    );
    assert_eq!(baselines[0].file_name, file_name("2026-07-30"));
    assert_eq!(baselines[0].report, full);

    // A schema version from the future is a hard error, not a silent skip.
    let mut future = fixture_report("2026-08-01", 1000.0, 0.8);
    future.schema_version = SCHEMA_VERSION + 1;
    write_report(&future, &dir).unwrap();
    let err = load_baselines(&dir).unwrap_err().to_string();
    assert!(err.contains("schema version"), "{err}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn loader_errors_on_corrupt_baseline() {
    let dir = std::env::temp_dir().join(format!("varade-bench-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("BENCH_2026-01-01.json"), "{ not json").unwrap();
    let err = load_baselines(&dir).unwrap_err().to_string();
    assert!(err.contains("BENCH_2026-01-01.json"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn deltas_against_a_fixture_baseline_report_relative_change() {
    let previous = fixture_report("2026-07-01", 1000.0, 0.80);
    let current = fixture_report("2026-07-30", 1250.0, 0.84);
    let deltas = compute_deltas(&previous, &current);

    let row = |metric: &str| {
        deltas
            .iter()
            .find(|d| d.metric == metric)
            .unwrap_or_else(|| panic!("missing delta row `{metric}`"))
    };
    let auc = row("VARADE AUC-ROC");
    assert!((auc.change_percent - 5.0).abs() < 1e-9);

    // The telemetry overhead joins the trajectory: the enabled throughput
    // tracks the fixture's scaling and the overhead percentage is stable.
    let enabled = row("telemetry enabled samples/sec");
    assert!((enabled.change_percent - 25.0).abs() < 1e-9);
    assert!(row("telemetry overhead (%)").change_percent.abs() < 1e-9);

    // Same-valued metrics report a 0% change.
    assert!(row("model file size (bytes)").change_percent.abs() < 1e-9);
    // Both boards are covered.
    assert!(deltas.iter().any(|d| d.metric.contains("Xavier")));
    assert!(deltas.iter().any(|d| d.metric.contains("Orin")));
    // The retired timing cells left no rows behind.
    for gone in ["streaming", "fleet", "multicore", "backend samples/sec"] {
        assert!(
            deltas.iter().all(|d| !d.metric.contains(gone)),
            "a `{gone}` delta row survived"
        );
    }
}

#[test]
fn rendered_markdown_is_deterministic_and_contains_every_section() {
    let baselines = vec![
        Baseline {
            file_name: file_name("2026-07-01"),
            report: fixture_report("2026-07-01", 1000.0, 0.80),
        },
        Baseline {
            file_name: file_name("2026-07-30"),
            report: fixture_report("2026-07-30", 1250.0, 0.84),
        },
    ];
    let md = render_experiments_md(&baselines);
    assert_eq!(
        md,
        render_experiments_md(&baselines),
        "renderer must be pure"
    );
    for section in [
        "## 1. Table 2",
        "## 2. Figure 3",
        "## 3. Ablations",
        "## 4. Architecture",
        "## 5. Channel schema",
        "## 6. Telemetry substrate overhead (`varade-obs`)",
        "## 7. Model persistence (`varade::persist`)",
        "## 8. Trajectory",
        "## 9. Caveats",
    ] {
        assert!(md.contains(section), "missing section {section}");
    }
    assert!(!md.contains("## 10."), "a tenth section survived");
    // Throughput and latency questions are pointed at perfbench.
    assert!(md.contains("perfbench/README.md"));
    assert!(md.contains("**Timing lives in perfbench.**"));
    // The telemetry overhead comparison renders with its ceiling framing.
    assert!(md.contains("Enabled overhead: **0.50%**"));
    // The persistence audit renders with its footprint and the bit-identity
    // verdict, and its deltas join the trajectory.
    assert!(md.contains("**bit-for-bit**"));
    assert!(md.contains("model file size (bytes)"));
    // The host metadata line is rendered from `meta`.
    assert!(md.contains("1 CPU core(s)"));
    // The delta table compares the two baselines.
    assert!(md.contains("`BENCH_2026-07-01.json` → `BENCH_2026-07-30.json`"));
    assert!(md.contains("+25.0%"));
    // The toy-scale variance caveat is surfaced.
    assert!(md.contains("variance-score fidelity"));
}

/// End-to-end `--quick` smoke test of the exp_report pipeline: collect every
/// experiment at quick scale, write the JSON, load it back, and render.
/// This is the library-level equivalent of
/// `cargo run -p varade-bench --bin exp_report -- --quick`.
#[test]
fn quick_report_end_to_end() {
    let dir = std::env::temp_dir().join(format!("varade-bench-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let report =
        varade_bench::report::collect(ExperimentScale::Quick, "2026-07-30").expect("quick run");
    assert_eq!(report.schema_version, SCHEMA_VERSION);
    assert_eq!(report.scale, "quick");
    assert_eq!(report.table2.accuracies.len(), 6);
    assert_eq!(report.figure3.points.len(), 12);
    assert_eq!(report.channels.total, 86);
    assert_eq!(report.ablation.scoring_rules.len(), 2);
    let meta = report.meta.as_ref().expect("v3 reports carry metadata");
    assert!(meta.cpu_cores >= 1);
    assert_eq!(
        meta.active_backend, "scalar",
        "meta records the kernel label"
    );
    let persistence = report
        .persistence
        .as_ref()
        .expect("v5 reports carry a persistence audit");
    assert!(persistence.file_bytes > 0);
    assert_eq!(persistence.max_abs_deviation, 0.0);
    let telemetry = report
        .telemetry
        .as_ref()
        .expect("v7 reports carry the telemetry overhead measurement");
    assert!(telemetry.disabled_samples_per_sec > 0.0);
    assert!(telemetry.enabled_samples_per_sec > 0.0);
    assert!(telemetry.overhead_pct.is_finite());
    assert!(telemetry.stage_spans > 0);
    assert!(telemetry.end_to_end.samples > 0);

    // Disk round trip through the real writer/loader pair. The quick report
    // is filtered out of the baseline trajectory by design, so parse the file
    // directly to prove it is valid.
    let path = write_report(&report, &dir).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let back: BenchReport = serde_json::from_str(&text).unwrap();
    assert_eq!(back, report);
    assert!(load_baselines(&dir).unwrap().is_empty());
    // v11 writes none of the retired timing sections.
    for gone in ["streaming", "backends", "fleet", "multicore"] {
        assert!(
            !text.contains(&format!("\"{gone}\":")),
            "the v11 report still writes `{gone}`"
        );
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A v1 baseline has no `meta`, `persistence` or `telemetry` key at all (not
/// even `null`): the loader must read it with those sections as `None` — the
/// committed early baselines stay part of the trajectory forever. Keys that
/// later schemas dropped are ignored.
#[test]
fn v1_baselines_without_newer_keys_still_load() {
    let mut v1 = fixture_report("2026-07-30", 1000.0, 0.8);
    v1.schema_version = 1;
    v1.meta = None;
    v1.persistence = None;
    v1.telemetry = None;
    let compact = serde_json::to_string(&v1).unwrap();
    // Simulate the genuine v1 file: the keys are absent, not null.
    let without_keys = compact
        .replace("\"meta\":null,", "")
        .replace("\"persistence\":null,", "")
        .replace("\"telemetry\":null,", "");
    assert_ne!(compact, without_keys, "fixture lost its null markers");
    assert!(
        !without_keys.contains("persistence"),
        "a persistence key survived the v1 simulation"
    );
    assert!(
        !without_keys.contains("telemetry"),
        "a telemetry key survived the v1 simulation"
    );
    let back: BenchReport = serde_json::from_str(&without_keys).unwrap();
    assert_eq!(back, v1);

    // v4–v8 baselines carry `incremental` keys that v9 dropped, v8–v9
    // baselines a `quantization` section that v10 dropped, and v1–v10
    // baselines the `streaming`, `backends`, `fleet` and `multicore` timing
    // sections that v11 dropped: the loader ignores all of them.
    let mut v10 = fixture_report("2026-07-30", 1000.0, 0.8);
    v10.schema_version = 10;
    let latency = r#"{"samples":3750,"mean_us":30.4,"p50_us":29.0,"p90_us":33.0,"p99_us":61.0,"max_us":420.0}"#;
    let retired = format!(
        "\"incremental\":{{\"incremental_over_full_speedup\":1.4}},\
         \"quantization\":{{\"footprint_ratio\":0.25,\"max_auc_deviation\":0.004}},\
         \"streaming\":{{\"n_channels\":86,\"window\":64,\"train_samples\":7500,\
         \"streamed_samples\":3750,\"scores_emitted\":3686,\"samples_per_sec\":32900.0,\
         \"push_latency\":{latency},\"model_scoring_mean_us\":25.1,\"score_summary\":null}},\
         \"backends\":{{\"n_channels\":86,\"window\":64,\"streamed_samples\":3750,\
         \"cells\":[{{\"backend\":\"scalar\",\"samples_per_sec\":16700.0,\
         \"push_latency\":{latency},\"model_scoring_mean_us\":50.2,\
         \"max_rel_deviation_vs_scalar\":0.0}}],\"vector_over_scalar_speedup\":1.1}},\
         \"fleet\":{{\"n_channels\":86,\"window\":64,\"queue_capacity\":512,\
         \"overload_policy\":\"Block\",\"one_stream_bit_identical\":true,\
         \"equivalence_samples\":128,\"cells\":[],\"peak_samples_per_sec\":40000.0}},\
         \"multicore\":{{\"cpu_cores\":1,\"queue_impl\":\"lock-free-ring\",\"workers\":4,\
         \"producer_lanes\":2,\"streams\":100000,\"total_pushes_per_cell\":1000000,\
         \"zipf_s\":1.1,\"window\":8,\"queue_capacity\":1024,\
         \"one_stream_bit_identical\":true,\"cells\":[{{\"policy\":\"Block\",\
         \"stages\":[{{\"stage\":\"forward\",\"latency\":{latency},\"share_pct\":60.0}}],\
         \"dominant_stage\":\"queue_wait\",\"telemetry_end_to_end\":null}}],\
         \"peak_samples_per_sec\":90000.0}},"
    );
    let v10_compact = serde_json::to_string(&v10).unwrap();
    let legacy = v10_compact.replacen("\"persistence\":", &format!("{retired}\"persistence\":"), 1);
    assert_ne!(legacy, v10_compact, "fixture lost its persistence marker");
    let loaded: BenchReport = serde_json::from_str(&legacy).unwrap();
    assert_eq!(loaded, v10);

    // The v10 baseline renders without the retired sections …
    let md = render_experiments_md(&[Baseline {
        file_name: file_name("2026-07-30"),
        report: loaded,
    }]);
    for gone in [
        "Streaming throughput",
        "Kernel backends",
        "Fleet serving throughput",
        "Zipf load harness",
    ] {
        assert!(!md.contains(gone), "a `{gone}` section survived");
    }
    // … and the renderer degrades gracefully for baselines predating the
    // newer sections.
    let md = render_experiments_md(&[Baseline {
        file_name: file_name("2026-07-30"),
        report: back,
    }]);
    assert!(md.contains("predates the persistence container"));
    assert!(md.contains("predates the telemetry substrate"));

    // Every committed baseline still loads.
    let committed = load_baselines(std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../.."
    )))
    .expect("committed BENCH_*.json baselines load");
    assert!(!committed.is_empty());
}

#[test]
fn floor_check_gates_quick_reports_only() {
    let floor = BenchFloor {
        schema_version: 7,
        quick_max_telemetry_overhead_pct: Some(2.0),
        note: "test fixture".to_string(),
    };
    // Full-scale reports are exempt regardless of their numbers.
    let mut heavy_full = fixture_report("2026-07-30", 1000.0, 0.8);
    heavy_full.telemetry.as_mut().unwrap().overhead_pct = 5.0;
    check_floor(&heavy_full, &floor).expect("full reports are not gated");

    // A quick report under the ceiling passes …
    let mut quick = fixture_report("2026-07-30", 1000.0, 0.8);
    quick.scale = "quick".to_string();
    check_floor(&quick, &floor).expect("healthy quick report");

    // … and a telemetry substrate costing more than the ceiling trips it.
    let mut heavy = quick.clone();
    heavy.telemetry.as_mut().unwrap().overhead_pct = 5.0;
    let err = check_floor(&heavy, &floor).unwrap_err().to_string();
    assert!(err.contains("telemetry"), "{err}");
    assert!(err.contains("ceiling"), "{err}");

    // A pre-7 floor file still carrying the retired throughput keys loads,
    // and the keys gate nothing.
    let legacy: BenchFloor = serde_json::from_str(
        r#"{"schema_version": 6,
            "quick_min_streaming_samples_per_sec": 1e12,
            "quick_min_vector_over_scalar_speedup": 1e6,
            "quick_max_telemetry_overhead_pct": 2.0,
            "note": "pre-7 floor"}"#,
    )
    .expect("a floor file with retired keys loads");
    assert_eq!(legacy.quick_max_telemetry_overhead_pct, Some(2.0));
    check_floor(&quick, &legacy).expect("retired keys gate nothing");

    // The committed floor file parses and matches this schema.
    let committed = varade_bench::report::load_floor(std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench_floor.json"
    )))
    .expect("committed bench_floor.json parses");
    assert_eq!(committed.schema_version, 7);
    assert_eq!(committed.quick_max_telemetry_overhead_pct, Some(2.0));
}

#[test]
fn quick_and_full_scales_share_the_table2_code_path() {
    // Not a run — just the config plumbing both the binaries and the report
    // collector use. Guards against the scales diverging structurally.
    for scale in [ExperimentScale::Quick, ExperimentScale::Full] {
        let config = scale.experiment_config();
        assert_eq!(config.boards.len(), 2);
        assert_eq!(scale.varade_config(), config.detectors.varade);
    }
    assert_eq!(file_name("d"), "BENCH_d.json");
}
