//! End-to-end acceptance of the streaming results pipeline: a
//! killed-then-resumed sweep re-executes only its missing cells (with
//! hit/miss counts reported via `RunEvent`s), and the regression gate
//! fails on an injected 2× slowdown against a stored baseline.

use std::path::PathBuf;

use kw_core::solver::{ExperimentRunner, RunEvent, SolverRegistry};
use kw_graph::generators;
use kw_results::pipeline::{PipelineError, SweepSession};
use kw_results::regress::{gate, Check};
use kw_results::store::{RunStore, StoreContents};
use kw_results::summary::Summary;
use kw_results::RunRecord;

fn temp_store(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "kw_pipeline_test_{}_{tag}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn workloads() -> Vec<(String, kw_graph::CsrGraph)> {
    vec![
        ("grid4".to_string(), generators::grid(4, 4)),
        ("petersen".to_string(), generators::petersen()),
    ]
}

#[test]
fn killed_then_resumed_sweep_reexecutes_only_missing_cells() {
    let path = temp_store("resume");
    let registry = SolverRegistry::with_core_solvers();
    let solvers = registry.build_all(["kw:k=2", "composite:k=2"]).unwrap();
    let runner = ExperimentRunner::new().workers(2);
    let total = 2 * 2 * 3; // solvers × workloads × seeds

    // Full sweep into the store.
    let mut session = SweepSession::open(&path).unwrap();
    let full = session
        .run(&runner, &solvers, &workloads(), 0..3, |_| {})
        .unwrap();
    assert_eq!((full.solved, full.cached), (total as u64, 0));
    // Release the writer lock before the "killed" process resumes.
    drop(session);

    // "Kill" the sweep: keep the manifest and the first 5 records, plus
    // a torn half-line exactly as a crash mid-append would leave it.
    let text = std::fs::read_to_string(&path).unwrap();
    let keep: Vec<&str> = text.lines().take(1 + 5).collect();
    let mut truncated = keep.join("\n");
    truncated.push('\n');
    truncated.push_str("{\"v\":1,\"kind\":\"record\",\"solver\":\"kw:k=2\",\"work");
    std::fs::write(&path, &truncated).unwrap();

    // Resume: only the 7 missing cells may solve.
    let mut resumed = SweepSession::open(&path).unwrap();
    assert_eq!(resumed.replayed(), 5, "five surviving records replay");
    let (mut cached_events, mut finished_events) = (0u64, 0u64);
    let out = resumed
        .run(&runner, &solvers, &workloads(), 0..3, |ev| match ev {
            RunEvent::CellCached { .. } => cached_events += 1,
            RunEvent::CellFinished { .. } => finished_events += 1,
            _ => {}
        })
        .unwrap();
    // Hit/miss counts arrive via the events (and the outcome totals).
    assert_eq!((cached_events, finished_events), (5, 7));
    assert_eq!((out.cached, out.solved, out.failed), (5, 7, 0));
    assert_eq!(resumed.cache().hits(), 5);
    assert_eq!(resumed.cache().misses(), 7);

    // The resumed sweep's results are bit-identical to the uninterrupted
    // run's, record by record (wall time aside: re-solved cells are
    // measured afresh).
    let outcomes = |records: &[RunRecord]| -> Vec<RunRecord> {
        records
            .iter()
            .cloned()
            .map(|mut r| {
                r.outcome.wall_ms = 0.0;
                r
            })
            .collect()
    };
    assert_eq!(outcomes(&full.records), outcomes(&out.records));

    // The store is whole again: 12 records, no torn tail, and a third
    // session replays all of them (nothing left to solve).
    drop(resumed);
    let contents = RunStore::open(&path).unwrap().load().unwrap();
    assert_eq!(contents.records.len(), total);
    assert_eq!(contents.manifests.len(), 2, "one manifest per launch");
    assert!(!contents.truncated_tail, "open repaired the torn tail");
    let mut third = SweepSession::open(&path).unwrap();
    assert_eq!(third.replayed(), total);
    let replay = third
        .run(&runner, &solvers, &workloads(), 0..3, |_| {})
        .unwrap();
    assert_eq!((replay.solved, replay.cached), (0, total as u64));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn regress_gate_fails_on_injected_2x_slowdown_against_stored_baseline() {
    let baseline_path = temp_store("baseline");
    let registry = SolverRegistry::with_core_solvers();
    let solvers = registry.build_all(["kw:k=2"]).unwrap();
    let runner = ExperimentRunner::new();

    // Store a baseline the way any sweep would.
    let mut session = SweepSession::open(&baseline_path).unwrap();
    let out = session
        .run(&runner, &solvers, &workloads(), 0..4, |_| {})
        .unwrap();
    drop(session);
    let baseline = RunStore::open(&baseline_path).unwrap().load().unwrap();
    assert_eq!(baseline.records.len(), out.records.len());

    // A fresh run with identical quality and timing passes the gate.
    assert!(gate(&baseline, &baseline).is_empty());

    // Inject a 2× slowdown into otherwise identical records: the gate
    // must fail (exit non-zero in the `regress` binary, which forwards
    // `gate`'s findings).
    let slowed: Vec<RunRecord> = baseline
        .records
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.outcome.wall_ms *= 2.0;
            // Keep every cell above the noise floor so the gate judges
            // the ratio, not the absolute magnitude.
            r.outcome.wall_ms += 1.0;
            r
        })
        .collect();
    let base_above_noise: Vec<RunRecord> = baseline
        .records
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.outcome.wall_ms += 0.5;
            r
        })
        .collect();
    let findings = gate(
        &StoreContents {
            records: base_above_noise,
            ..Default::default()
        },
        &StoreContents {
            records: slowed,
            ..Default::default()
        },
    );
    assert!(
        !findings.is_empty(),
        "2x slowdown must trip the >=20% time gate"
    );
    assert!(findings.iter().all(|f| f.check == Check::WallTime));
    std::fs::remove_file(&baseline_path).unwrap();
}

#[test]
fn stale_store_is_rejected_not_silently_replayed() {
    let path = temp_store("stale");
    let registry = SolverRegistry::with_core_solvers();
    let solvers = registry.build_all(["kw:k=2"]).unwrap();
    let runner = ExperimentRunner::new();
    // Record runs for "grid4" on the 4×4 grid.
    let mut session = SweepSession::open(&path).unwrap();
    session
        .run(&runner, &solvers, &workloads(), 0..2, |_| {})
        .unwrap();
    drop(session);
    // A later launch reuses the label for a *different* graph (the shape
    // a changed generator would produce): replaying must refuse loudly.
    let mut resumed = SweepSession::open(&path).unwrap();
    let changed = vec![("grid4".to_string(), generators::grid(5, 5))];
    match resumed.run(&runner, &solvers, &changed, 0..2, |_| {}) {
        Err(PipelineError::StaleWorkload {
            workload,
            stored,
            live,
        }) => {
            assert_eq!(workload, "grid4");
            assert_eq!(stored, (16, 4));
            assert_eq!(live, (25, 4));
        }
        other => panic!("expected StaleWorkload, got {other:?}"),
    }
    // The unchanged graph still resumes fine.
    let out = resumed
        .run(&runner, &solvers, &workloads(), 0..2, |_| {})
        .unwrap();
    assert_eq!(out.solved, 0);
    assert!(out.store_error.is_none());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn summary_of_a_loaded_store_renders_and_rolls_up() {
    let path = temp_store("summary");
    let registry = SolverRegistry::with_core_solvers();
    let solvers = registry.build_all(["kw:k=2", "kw:k=3"]).unwrap();
    let mut session = SweepSession::open(&path).unwrap();
    session
        .run(
            &ExperimentRunner::new(),
            &solvers,
            &workloads(),
            0..5,
            |_| {},
        )
        .unwrap();
    drop(session);
    let contents = RunStore::open(&path).unwrap().load().unwrap();
    let summary = Summary::from_records(&contents.records);
    assert_eq!(summary.cells.len(), 4);
    assert_eq!(summary.solvers.len(), 2);
    for cell in &summary.cells {
        assert_eq!(cell.runs, 5);
        assert_eq!(cell.failures, 0);
        assert_eq!(cell.size.count, 5);
        assert!(cell.size.p50 >= cell.size.min && cell.size.p95 <= cell.size.max);
        assert!(cell.ratio_vs_lemma1.mean >= 1.0 - 1e-9);
    }
    let md = summary.to_markdown();
    assert!(md.contains("| grid4 | 16 | 4 | kw:k=2 |"));
    assert_eq!(md.lines().count(), 2 + 4);
    let csv = summary.to_csv();
    assert_eq!(csv.lines().count(), 1 + 4);
    std::fs::remove_file(&path).unwrap();
}
