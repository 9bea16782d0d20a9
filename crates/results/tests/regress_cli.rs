//! Locks the `regress` binary's verdicts end to end: two stores are
//! written through `RunStore`'s append API, the binary diffs them, and
//! the exit code plus the sorted finding lines are pinned. The fixture
//! produces every finding kind the gate knows (record quality, failures,
//! time and missing; bench time and missing; phase-share drift; lost
//! multi-thread speedup) next to the cases that must stay silent.

use std::path::{Path, PathBuf};
use std::process::Command;

use kw_core::solver::RunOutcome;
use kw_results::store::{BenchRecord, RunStore, TraceRecord};
use kw_results::RunRecord;

/// A fresh scratch directory for one test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kw_regress_cli_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(solver: &str, workload: &str, seed: u64, size: f64, wall_ms: f64) -> RunRecord {
    RunRecord {
        solver: solver.into(),
        workload: workload.into(),
        n: 64,
        max_degree: 8,
        seed,
        chaos: String::new(),
        threads: 1,
        outcome: RunOutcome {
            dominates: true,
            size,
            rounds: 18.0,
            messages: 500.0,
            bits: 4000.0,
            ratio_vs_lemma1: size / 7.0,
            wall_ms,
        },
    }
}

fn with_chaos(mut r: RunRecord, chaos: &str) -> RunRecord {
    r.chaos = chaos.into();
    r
}

fn with_threads(mut r: RunRecord, threads: usize) -> RunRecord {
    r.threads = threads;
    r
}

fn failing(mut r: RunRecord) -> RunRecord {
    r.outcome.dominates = false;
    r
}

fn bench(bench: &str, id: &str, best_ms: f64) -> BenchRecord {
    BenchRecord {
        bench: bench.into(),
        id: id.into(),
        best_ms,
    }
}

/// A trace whose phases scale with `scale` (so `total_us = 1000·scale`
/// plus `barrier_us`, and shares are scale-invariant).
fn trace(workload: &str, chaos: &str, threads: usize, scale: u64, barrier_us: u64) -> TraceRecord {
    TraceRecord {
        solver: "kw:k=2".into(),
        workload: workload.into(),
        seed: 42,
        chaos: chaos.into(),
        summary: kw_trace::TraceSummary {
            threads,
            rounds: 10,
            total_us: 1_000 * scale + barrier_us,
            phase_us: vec![
                ("barrier".into(), barrier_us),
                ("compute".into(), 700 * scale),
                ("deliver".into(), 100 * scale),
                ("plan".into(), 50 * scale),
                ("send".into(), 150 * scale),
            ],
            barrier_us,
            imbalance: 1.1,
            pool_wakeups: 0,
            pool_idle: 0,
            structure_hash: 7,
            samples: Vec::new(),
        },
    }
}

fn write_store(
    path: &Path,
    records: &[RunRecord],
    benches: &[BenchRecord],
    traces: &[TraceRecord],
) {
    let store = RunStore::open(path).unwrap();
    for r in records {
        store.append_record(r).unwrap();
    }
    for b in benches {
        store.append_bench(b).unwrap();
    }
    for t in traces {
        store.append_trace(t).unwrap();
    }
}

const CHAOS: &str = "drop=0.2,seed=7";

/// Writes the baseline and fresh stores of the full fixture.
fn write_fixture(dir: &Path) -> (PathBuf, PathBuf) {
    let baseline = dir.join("baseline.jsonl");
    let fresh = dir.join("fresh.jsonl");
    write_store(
        &baseline,
        &[
            // Quality: mean |DS| 11 -> 12.1.
            run("kw:k=2", "grid", 0, 10.0, 2.0),
            run("kw:k=2", "grid", 1, 12.0, 2.0),
            // Failures: one seed stops dominating.
            run("kw:k=2", "ring", 0, 6.0, 1.0),
            run("kw:k=2", "ring", 1, 6.0, 1.0),
            // Time: 2 ms -> 3 ms.
            run("greedy", "grid", 0, 8.0, 2.0),
            // Sub-noise: 0.01 ms -> 0.04 ms is exempt.
            run("greedy", "ring", 0, 5.0, 0.01),
            // A 2-thread cell gates against its own 2-thread baseline.
            with_threads(run("kw:k=2", "grid", 0, 10.0, 2.0), 2),
            // A chaotic cell gates under its chaos label.
            with_chaos(run("kw:k=2", "grid", 0, 14.0, 2.0), CHAOS),
            // Missing from the fresh side, while a trace line with the
            // same (solver, workload, chaos, threads) is present there.
            run("kw:k=3", "petersen", 0, 3.0, 1.0),
        ],
        &[
            // The latest baseline line per key is the one compared.
            bench("engine_flood", "threads1/1000", 5.0),
            bench("engine_flood", "threads1/1000", 1.0),
            bench("engine_ping", "threads1/1000", 2.0),
            bench("engine_burst", "threads1/1000", 1.0),
            bench("engine_tiny", "threads1/10", 0.01),
        ],
        &[
            trace("petersen", "", 1, 1, 0),
            trace("flood10k", "", 4, 1, 0),
            trace("ping10k", "", 1, 1, 0),
            trace("scale10k", "", 1, 10, 0),
            trace("scale10k", "", 4, 5, 0),
            trace("scale10k", CHAOS, 1, 10, 0),
            trace("scale10k", CHAOS, 4, 5, 0),
            // Absent from the fresh side: traces are not MISSING.
            trace("gone10k", "", 2, 1, 0),
        ],
    );
    write_store(
        &fresh,
        &[
            run("kw:k=2", "grid", 0, 11.0, 2.0),
            run("kw:k=2", "grid", 1, 13.2, 2.0),
            run("kw:k=2", "ring", 0, 6.0, 1.0),
            failing(run("kw:k=2", "ring", 1, 6.0, 1.0)),
            run("greedy", "grid", 0, 8.0, 3.0),
            run("greedy", "ring", 0, 5.0, 0.04),
            with_threads(run("kw:k=2", "grid", 0, 10.0, 5.0), 2),
            with_chaos(run("kw:k=2", "grid", 0, 16.0, 2.0), CHAOS),
        ],
        &[
            // Time: 1 ms -> 2.5 ms.
            bench("engine_flood", "threads1/1000", 2.5),
            // A slow run cleared by an appended faster re-run.
            bench("engine_burst", "threads1/1000", 2.0),
            bench("engine_burst", "threads1/1000", 0.9),
            bench("engine_tiny", "threads1/10", 0.04),
        ],
        &[
            trace("petersen", "", 1, 1, 0),
            // Barrier grows from 0% to 41% of phase time, at 4 threads
            // and at 1 thread.
            trace("flood10k", "", 4, 1, 700),
            trace("ping10k", "", 1, 1, 700),
            // Speedup at 4 threads drops from 2.0x to 1.43x.
            trace("scale10k", "", 1, 10, 0),
            trace("scale10k", "", 4, 7, 0),
            trace("scale10k", CHAOS, 1, 10, 0),
            trace("scale10k", CHAOS, 4, 7, 0),
        ],
    );
    (baseline, fresh)
}

/// Runs `regress` with `args`; returns the exit code and the sorted,
/// trimmed finding lines (the indented lines of stderr).
fn regress(args: &[&Path]) -> (i32, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_regress"))
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    let mut findings: Vec<String> = stderr
        .lines()
        .filter(|l| l.starts_with("  "))
        .map(|l| l.trim().to_string())
        .collect();
    findings.sort();
    (out.status.code().unwrap(), findings)
}

#[test]
fn every_finding_kind_is_reported_with_its_label() {
    let dir = temp_dir("findings");
    let (baseline, fresh) = write_fixture(&dir);
    let (code, findings) = regress(&[&baseline, &fresh]);
    assert_eq!(code, 1, "{findings:#?}");
    let expected = [
        "FAILURES kw:k=2 on ring: non-dominating runs 0 -> 1",
        "MISSING  bench engine_ping/threads1/1000: absent from fresh measurements",
        "MISSING  kw:k=3 on petersen: cell absent from fresh run",
        "PHASE    kw:k=2 on flood10k@4t: barrier share 0% -> 41% of phase time",
        "PHASE    kw:k=2 on flood10k@4t: compute share 70% -> 41% of phase time",
        "PHASE    kw:k=2 on ping10k: barrier share 0% -> 41% of phase time",
        "PHASE    kw:k=2 on ping10k: compute share 70% -> 41% of phase time",
        "QUALITY  kw:k=2 on grid (chaos:drop=0.2,seed=7): mean |DS| 14.00 -> 16.00 (+14.3%)",
        "QUALITY  kw:k=2 on grid: mean |DS| 11.00 -> 12.10 (+10.0%)",
        "SCALING  kw:k=2 on scale10k@4t (chaos:drop=0.2,seed=7): speedup vs 1t 2.00x -> 1.43x",
        "SCALING  kw:k=2 on scale10k@4t: speedup vs 1t 2.00x -> 1.43x",
        "TIME     bench engine_flood/threads1/1000: 1.000 ms -> 2.500 ms (2.50x)",
        "TIME     greedy on grid: mean wall 2.000 ms -> 3.000 ms (1.50x)",
        "TIME     kw:k=2 on grid@2t: mean wall 2.000 ms -> 5.000 ms (2.50x)",
    ];
    assert_eq!(findings, expected, "{findings:#?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_stores_pass() {
    let dir = temp_dir("identical");
    let (baseline, fresh) = write_fixture(&dir);
    for store in [&baseline, &fresh] {
        let (code, findings) = regress(&[store, store]);
        assert_eq!(code, 0, "{findings:#?}");
        assert!(findings.is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The gate's budgets are constants: a flag that used to tune one is a
/// usage error, so nobody can switch the gate off from the command line.
#[test]
fn budget_flags_are_usage_errors() {
    let dir = temp_dir("flags");
    let (baseline, fresh) = write_fixture(&dir);
    for knob in [
        "time-ratio",
        "quality-ratio",
        "min-wall-ms",
        "phase-share-drift",
        "scaling-drop",
    ] {
        let flag = format!("--{knob}");
        let args = [&baseline, &fresh, Path::new(&flag), Path::new("1.5")];
        assert_eq!(regress(&args).0, 2, "{flag}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_missing_store_is_a_load_error() {
    let dir = temp_dir("missing");
    let (baseline, _) = write_fixture(&dir);
    let absent = dir.join("absent.jsonl");
    assert_eq!(regress(&[&baseline, &absent]).0, 2);
    assert_eq!(regress(&[&absent, &baseline]).0, 2);
    assert!(!absent.exists(), "the gate must not create a missing store");
    let _ = std::fs::remove_dir_all(&dir);
}
