//! Integration tests of the `BENCH_*.json` schema: serde round-trips, the
//! baseline loader, delta computation against a fixture baseline, and a
//! `--quick` end-to-end run of the `exp_report` pipeline.

use varade_bench::experiments::ablation::{AblationEntry, AblationResultSet};
use varade_bench::experiments::architecture;
use varade_bench::experiments::backend::{BackendCell, BackendSweepResult};
use varade_bench::experiments::channels;
use varade_bench::experiments::figure3::Figure3Result;
use varade_bench::experiments::fleet::{FleetResult, FleetSweepCell};
use varade_bench::experiments::load::{LoadCell, MulticoreResult, StageLatencyCell};
use varade_bench::experiments::persist::PersistenceResult;
use varade_bench::experiments::streaming::StreamingResult;
use varade_bench::experiments::table2::Table2Result;
use varade_bench::experiments::telemetry::TelemetryResult;
use varade_bench::experiments::ExperimentScale;
use varade_bench::report::{
    check_floor, compute_deltas, file_name, load_baselines, render_experiments_md, write_report,
    Baseline, BenchFloor, BenchReport, RunMeta, SCHEMA_VERSION,
};
use varade_bench::timing::LatencyStats;
use varade_edge::table::{DetectorAccuracy, Table2, Table2Row};

/// Hand-built backend sweep: the vector backend at twice the scalar
/// throughput, within the deviation contract.
fn fixture_backends(samples_per_sec: f64) -> BackendSweepResult {
    let cell = |backend: &str, factor: f64, dev: f64| BackendCell {
        backend: backend.to_string(),
        samples_per_sec: samples_per_sec * factor,
        push_latency: LatencyStats {
            samples: 3750,
            mean_us: 1e6 / (samples_per_sec * factor),
            p50_us: 900.0 / factor,
            p90_us: 1200.0 / factor,
            p99_us: 2000.0 / factor,
            max_us: 4000.0 / factor,
        },
        model_scoring_mean_us: 850.0 / factor,
        max_rel_deviation_vs_scalar: dev,
    };
    BackendSweepResult {
        n_channels: 86,
        window: 64,
        streamed_samples: 3750,
        cells: vec![cell("scalar", 1.0, 0.0), cell("vector", 2.0, 3e-7)],
        vector_over_scalar_speedup: 2.0,
    }
}

/// Hand-built fleet sweep whose peak scales with the streaming throughput.
fn fixture_fleet(samples_per_sec: f64) -> FleetResult {
    let cell = |streams: usize, shards: usize, factor: f64| FleetSweepCell {
        streams,
        shards,
        samples_per_stream: 512,
        total_pushes: (streams * 512) as u64,
        total_scores: (streams * (512 - 64)) as u64,
        dropped: 0,
        samples_per_sec: samples_per_sec * factor,
        scores_per_sec: samples_per_sec * factor * 0.9,
        sample_latency: LatencyStats {
            samples: streams * (512 - 64),
            mean_us: 50.0,
            p50_us: 45.0,
            p90_us: 60.0,
            p99_us: 80.0,
            max_us: 200.0,
        },
    };
    FleetResult {
        n_channels: 86,
        window: 64,
        queue_capacity: 512,
        overload_policy: "Block".to_string(),
        one_stream_bit_identical: true,
        equivalence_samples: 128,
        cells: vec![cell(1, 1, 1.0), cell(8, 4, 4.0)],
        peak_samples_per_sec: samples_per_sec * 4.0,
    }
}

/// Hand-built Zipf load harness result: three balanced policy cells whose
/// peak tracks the streaming throughput.
fn fixture_multicore(samples_per_sec: f64) -> MulticoreResult {
    let lat = |scale: f64| LatencyStats {
        samples: 9_000,
        mean_us: 120.0 * scale,
        p50_us: 90.0 * scale,
        p90_us: 200.0 * scale,
        p99_us: 400.0 * scale,
        max_us: 900.0 * scale,
    };
    let cell = |policy: &str, rejected: u64, dropped: u64| {
        let attempted = 30_000u64;
        let accepted = attempted - rejected;
        let admitted = accepted - dropped;
        let scored = admitted - 12_000;
        LoadCell {
            policy: policy.to_string(),
            attempted,
            accepted,
            rejected,
            admitted,
            dropped,
            scored,
            warmup: admitted - scored,
            steals: 7,
            elapsed_secs: 3.0,
            samples_per_sec: samples_per_sec * 8.0,
            scores_per_sec: samples_per_sec * 5.0,
            active_streams: 9_500,
            scored_streams: 1_200,
            end_to_end_latency: lat(1.0),
            stream_p99: lat(3.0),
            slo_us: 1_000.0,
            slo_met_fraction: 0.97,
            stages: Some(
                [
                    ("queue_wait", 30.0),
                    ("assembly", 2.0),
                    ("normalize", 2.0),
                    ("forward", 60.0),
                    ("emit", 6.0),
                ]
                .iter()
                .map(|&(stage, share)| StageLatencyCell {
                    stage: stage.to_string(),
                    latency: lat(0.5),
                    share_pct: share,
                })
                .collect(),
            ),
            dominant_stage: Some("forward".to_string()),
            stage_sum_mean_us: Some(300.0),
            telemetry_end_to_end: Some(lat(1.0)),
        }
    };
    MulticoreResult {
        cpu_cores: 1,
        queue_impl: "lock-free-ring".to_string(),
        workers: 2,
        producer_lanes: 2,
        streams: 10_000,
        total_pushes_per_cell: 30_000,
        zipf_s: 1.1,
        window: 8,
        queue_capacity: 512,
        one_stream_bit_identical: true,
        cells: vec![
            cell("Block", 0, 0),
            cell("DropOldest", 0, 250),
            cell("Reject", 400, 0),
        ],
        peak_samples_per_sec: samples_per_sec * 8.0,
    }
}

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
        streaming: StreamingResult {
            n_channels: 86,
            window: 64,
            train_samples: 7500,
            streamed_samples: 3750,
            scores_emitted: 3686,
            samples_per_sec,
            push_latency: LatencyStats {
                samples: 3750,
                mean_us: 1e6 / samples_per_sec,
                p50_us: 900.0,
                p90_us: 1200.0,
                p99_us: 2000.0,
                max_us: 4000.0,
            },
            model_scoring_mean_us: 850.0,
            score_summary: None,
        },
        persistence: Some(fixture_persistence()),
        backends: Some(fixture_backends(samples_per_sec)),
        fleet: Some(fixture_fleet(samples_per_sec)),
        multicore: Some(fixture_multicore(samples_per_sec)),
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
    let throughput = row("streaming samples/sec");
    assert_eq!(throughput.previous, 1000.0);
    assert_eq!(throughput.current, 1250.0);
    assert!((throughput.change_percent - 25.0).abs() < 1e-9);

    let auc = row("VARADE AUC-ROC");
    assert!((auc.change_percent - 5.0).abs() < 1e-9);

    // The fleet peak tracks the sweep (4x the streaming figure in the
    // fixture), so its relative change matches the streaming one.
    let fleet = row("fleet peak samples/sec");
    assert_eq!(fleet.previous, 4000.0);
    assert_eq!(fleet.current, 5000.0);
    assert!((fleet.change_percent - 25.0).abs() < 1e-9);

    // The multicore peak (8x the streaming figure in the fixture) joins the
    // trajectory, as does the Block cell's SLO attainment.
    let multicore = row("multicore peak samples/sec");
    assert_eq!(multicore.previous, 8000.0);
    assert_eq!(multicore.current, 10000.0);
    assert!(row("multicore Block SLO met").change_percent.abs() < 1e-9);

    // The telemetry overhead joins the trajectory: the enabled throughput
    // tracks the fixture's scaling and the overhead percentage is stable.
    let enabled = row("telemetry enabled samples/sec");
    assert!((enabled.change_percent - 25.0).abs() < 1e-9);
    assert!(row("telemetry overhead (%)").change_percent.abs() < 1e-9);

    // Same-valued metrics report a 0% change.
    assert!(row("streaming p50 latency (us)").change_percent.abs() < 1e-9);
    // Both boards are covered.
    assert!(deltas.iter().any(|d| d.metric.contains("Xavier")));
    assert!(deltas.iter().any(|d| d.metric.contains("Orin")));
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
    // A pre-v10 baseline's cell for the deleted int8 backend is not
    // rendered; the backends this build has still are.
    let mut legacy = baselines.clone();
    let mut legacy_cell = fixture_backends(1250.0).cells[0].clone();
    legacy_cell.backend = "quant".to_string();
    legacy[1]
        .report
        .backends
        .as_mut()
        .unwrap()
        .cells
        .push(legacy_cell);
    let legacy_md = render_experiments_md(&legacy);
    assert!(!legacy_md.contains("| quant |"));
    assert!(legacy_md.contains("| vector |"));
    for section in [
        "## 1. Streaming throughput",
        "## 2. Kernel backends",
        "## 3. Fleet serving throughput",
        "## 4. Table 2",
        "## 5. Figure 3",
        "## 6. Ablations",
        "## 7. Architecture",
        "## 8. Channel schema",
        "## 9. Trajectory",
        "## 10. Caveats",
    ] {
        assert!(md.contains(section), "missing section {section}");
    }
    // The fleet section reports the equivalence verdict and the sweep peak.
    assert!(md.contains("bit-identity"));
    assert!(md.contains("**confirmed**"));
    // The load harness renders inside §3 with its ledger framing and SLO
    // column.
    assert!(md.contains("### Multi-core Zipf load harness (`experiments::load`)"));
    assert!(md.contains("admitted = scored + warm-up"));
    assert!(md.contains("SLO met"));
    // The telemetry overhead comparison renders inside §3 with its ceiling
    // framing, and the load-harness table gains the per-stage decomposition
    // with the dominant stage marked.
    assert!(md.contains("### Telemetry substrate overhead (`varade-obs`)"));
    assert!(md.contains("Enabled overhead: **0.50%**"));
    assert!(md.contains("| forward |"));
    assert!(md.contains(" ◀"));
    // The persistence audit renders inside §3 with its footprint and the
    // bit-identity verdict, and its deltas join the trajectory.
    assert!(md.contains("### Model persistence (`varade::persist`)"));
    assert!(md.contains("**bit-for-bit**"));
    assert!(md.contains("model file size (bytes)"));
    // The backend section reports the speedup and the host metadata line is
    // rendered from `meta`.
    assert!(md.contains("speedup: **2.00x**"));
    assert!(md.contains("1 CPU core(s)"));
    // The delta table compares the two baselines, including per-backend rows.
    assert!(md.contains("`BENCH_2026-07-01.json` → `BENCH_2026-07-30.json`"));
    assert!(md.contains("+25.0%"));
    assert!(md.contains("vector backend samples/sec"));
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
    assert!(report.streaming.samples_per_sec > 0.0);
    assert_eq!(report.ablation.scoring_rules.len(), 2);
    let fleet = report
        .fleet
        .as_ref()
        .expect("v2 reports carry a fleet section");
    assert!(fleet.one_stream_bit_identical);
    assert_eq!(fleet.cells.len(), 4);
    assert!(fleet.peak_samples_per_sec > 0.0);
    let meta = report.meta.as_ref().expect("v3 reports carry metadata");
    assert!(meta.cpu_cores >= 1);
    assert_eq!(
        meta.active_backend,
        varade::BackendKind::active().label(),
        "meta must record the backend the run used"
    );
    let backends = report
        .backends
        .as_ref()
        .expect("v3 reports carry a backend sweep");
    assert_eq!(backends.cells.len(), varade::BackendKind::ALL.len());
    assert!(backends.vector_over_scalar_speedup > 0.0);
    for cell in &backends.cells {
        let kind: varade::BackendKind = cell.backend.parse().expect("cell labels a backend");
        let tolerance = kind.score_tolerance().expect("every backend has one");
        assert!(
            cell.max_rel_deviation_vs_scalar <= tolerance,
            "{}: raw-score deviation {} above {tolerance}",
            cell.backend,
            cell.max_rel_deviation_vs_scalar
        );
    }
    let persistence = report
        .persistence
        .as_ref()
        .expect("v5 reports carry a persistence audit");
    assert!(persistence.file_bytes > 0);
    assert_eq!(persistence.max_abs_deviation, 0.0);
    let multicore = report
        .multicore
        .as_ref()
        .expect("v6 reports carry the load harness");
    assert!(multicore.one_stream_bit_identical);
    assert_eq!(multicore.cells.len(), 3);
    assert_eq!(multicore.streams, 10_000);
    assert!(multicore.peak_samples_per_sec > 0.0);
    // run() already hard-errored on any ledger imbalance; pin the policy
    // contracts here too.
    assert_eq!(multicore.cell("Block").unwrap().rejected, 0);
    assert_eq!(multicore.cell("Block").unwrap().dropped, 0);
    assert_eq!(multicore.cell("DropOldest").unwrap().rejected, 0);
    assert_eq!(multicore.cell("Reject").unwrap().dropped, 0);
    // v7: every load cell decomposes its latency into the five pipeline
    // stages, names the dominant one, and carries the telemetry end-to-end
    // distribution. run() already hard-errored on any span-count mismatch.
    for cell in &multicore.cells {
        let stages = cell
            .stages
            .as_ref()
            .expect("v7 load cells carry the stage decomposition");
        assert_eq!(stages.len(), 5, "{}: five pipeline stages", cell.policy);
        let share: f64 = stages.iter().map(|s| s.share_pct).sum();
        assert!(
            (share - 100.0).abs() < 1e-6,
            "{}: shares sum to 100",
            cell.policy
        );
        let dominant = cell.dominant_stage.as_ref().expect("dominant stage named");
        assert!(stages.iter().any(|s| &s.stage == dominant));
        assert!(cell.stage_sum_mean_us.is_some_and(|s| s > 0.0));
        assert!(cell.telemetry_end_to_end.is_some());
    }
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

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A v1 baseline has no `fleet`, `meta` or `backends` key at all (not even
/// `null`): the loader must read it with those sections as `None` — the
/// committed pre-fleet and pre-backend baselines stay part of the trajectory
/// forever.
#[test]
fn v1_baselines_without_newer_keys_still_load() {
    let mut v1 = fixture_report("2026-07-30", 1000.0, 0.8);
    v1.schema_version = 1;
    v1.fleet = None;
    v1.meta = None;
    v1.backends = None;
    v1.persistence = None;
    v1.multicore = None;
    v1.telemetry = None;
    let compact = serde_json::to_string(&v1).unwrap();
    // Simulate the genuine v1 file: the keys are absent, not null.
    let without_keys = compact
        .replace("\"fleet\":null,", "")
        .replace("\"meta\":null,", "")
        .replace("\"backends\":null,", "")
        .replace("\"persistence\":null,", "")
        .replace("\"multicore\":null,", "")
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
    assert_eq!(back.schema_version, 1);
    assert!(back.fleet.is_none());
    assert!(back.meta.is_none());
    assert!(back.backends.is_none());
    assert!(back.persistence.is_none());
    assert!(back.multicore.is_none());
    assert!(back.telemetry.is_none());
    assert_eq!(back.streaming, v1.streaming);

    // v4–v8 baselines carry `incremental` keys that v9 dropped, and v8–v9
    // baselines a `quantization` section that v10 dropped: the loader
    // ignores both.
    let legacy = compact.replacen(
        "\"persistence\":null",
        "\"incremental\":{\"incremental_over_full_speedup\":1.4},\
         \"quantization\":{\"footprint_ratio\":0.25,\"max_auc_deviation\":0.004},\
         \"persistence\":null",
        1,
    );
    assert_ne!(legacy, compact, "fixture lost its persistence marker");
    let legacy: BenchReport = serde_json::from_str(&legacy).unwrap();
    assert_eq!(legacy, v1);

    // And the renderer degrades gracefully for baselines predating the newer
    // sections.
    let md = render_experiments_md(&[Baseline {
        file_name: file_name("2026-07-30"),
        report: back,
    }]);
    assert!(md.contains("predates the fleet engine"));
    assert!(md.contains("predates the multi-backend substrate"));
    assert!(md.contains("predates the persistence container"));
    assert!(md.contains("predates the load harness"));
    assert!(md.contains("predates the telemetry substrate"));
}

#[test]
fn floor_check_gates_quick_reports_only() {
    let floor = BenchFloor {
        schema_version: 2,
        quick_min_streaming_samples_per_sec: 500.0,
        quick_min_vector_over_scalar_speedup: 1.0,
        quick_max_telemetry_overhead_pct: Some(2.0),
        note: "test fixture".to_string(),
    };
    // Full-scale reports are exempt regardless of their numbers.
    let slow_full = fixture_report("2026-07-30", 1.0, 0.8);
    check_floor(&slow_full, &floor).expect("full reports are not gated");

    // A quick report above the floor passes …
    let mut quick = fixture_report("2026-07-30", 1000.0, 0.8);
    quick.scale = "quick".to_string();
    check_floor(&quick, &floor).expect("healthy quick report");

    // … below the throughput floor fails with a description …
    let mut slow = quick.clone();
    slow.streaming.samples_per_sec = 100.0;
    let err = check_floor(&slow, &floor).unwrap_err().to_string();
    assert!(err.contains("below the floor"), "{err}");

    // … and a vector backend slower than scalar trips the speedup floor.
    let mut regressed = quick.clone();
    regressed
        .backends
        .as_mut()
        .unwrap()
        .vector_over_scalar_speedup = 0.8;
    let err = check_floor(&regressed, &floor).unwrap_err().to_string();
    assert!(err.contains("speedup"), "{err}");

    // A telemetry substrate costing more than the ceiling trips its gate.
    let mut heavy = quick.clone();
    heavy.telemetry.as_mut().unwrap().overhead_pct = 5.0;
    let err = check_floor(&heavy, &floor).unwrap_err().to_string();
    assert!(err.contains("telemetry"), "{err}");
    assert!(err.contains("ceiling"), "{err}");

    // The committed floor file parses and matches this schema.
    let committed = varade_bench::report::load_floor(std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench_floor.json"
    )))
    .expect("committed bench_floor.json parses");
    assert!(committed.schema_version >= 1);
    assert!(committed.quick_min_streaming_samples_per_sec > 0.0);
    assert!(committed
        .quick_max_telemetry_overhead_pct
        .is_some_and(|p| p > 0.0));
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
