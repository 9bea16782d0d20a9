//! CI end-to-end check of the streaming results pipeline: run a tiny
//! streaming sweep into a fresh store, validate every emitted JSONL
//! line against the schema, then resume the sweep in a second session
//! and require 100% cache hits.
//!
//! Exits non-zero (via panic) on any violation; prints a short
//! transcript otherwise. `KW_STORE_SMOKE_PATH` overrides the store
//! location (default: a per-process file under the system temp dir).

use kw_core::solver::{ExperimentRunner, RunEvent, SolverRegistry};
use kw_graph::generators;
use kw_results::pipeline::SweepSession;
use kw_results::store::SCHEMA_VERSION;

fn main() {
    let path = std::env::var("KW_STORE_SMOKE_PATH").unwrap_or_else(|_| {
        std::env::temp_dir()
            .join(format!("kw_store_smoke_{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned()
    });
    let _ = std::fs::remove_file(&path);
    println!("store smoke: {path}");

    let registry = SolverRegistry::with_core_solvers();
    let solvers = registry
        .build_all(["kw:k=2", "composite:k=2"])
        .expect("core specs registered");
    let workloads = vec![
        ("grid4".to_string(), generators::grid(4, 4)),
        ("petersen".to_string(), generators::petersen()),
    ];
    let seeds = 0..3u64;
    let total = solvers.len() * workloads.len() * 3;
    let runner = ExperimentRunner::new().workers(2);

    // Pass 1: fresh store, everything solves.
    let mut session = SweepSession::open(&path).expect("open fresh store");
    assert_eq!(session.replayed(), 0, "fresh store must replay nothing");
    let mut events = 0usize;
    let out = session
        .run(&runner, &solvers, &workloads, seeds.clone(), |ev| {
            if ev.is_terminal() {
                events += 1;
            }
        })
        .expect("first sweep runs");
    assert_eq!(events, total, "one terminal event per cell");
    assert_eq!(
        (out.solved, out.cached, out.failed),
        (total as u64, 0, 0),
        "first pass solves every cell"
    );
    assert!(out.store_error.is_none(), "appends must succeed");
    println!("pass 1: solved {} cells, {} events", out.solved, events);
    // Release the writer lock before the resume session takes it.
    drop(session);

    // Validate the emitted JSONL against the schema (read-only; no
    // writer lock needed).
    let contents = kw_results::store::load_path(&path).expect("store validates against the schema");
    assert_eq!(contents.manifests.len(), 1, "one manifest per sweep");
    assert_eq!(contents.records.len(), total, "one record per solved cell");
    assert!(!contents.truncated_tail, "no torn tail after clean run");
    assert_eq!(contents.unknown_kinds, 0);
    let manifest = &contents.manifests[0];
    assert_eq!(manifest.solvers.len(), solvers.len());
    assert_eq!(manifest.seeds, vec![0, 1, 2]);
    println!(
        "validated: schema v{SCHEMA_VERSION}, {} manifests, {} records (git {})",
        contents.manifests.len(),
        contents.records.len(),
        manifest.git,
    );

    // Pass 2: a new session over the same store must resume to 100%
    // cache hits — zero fresh solves.
    let mut resumed = SweepSession::open(&path).expect("reopen for resume");
    assert_eq!(resumed.replayed(), total, "replay every stored record");
    let mut cached_events = 0usize;
    let out2 = resumed
        .run(&runner, &solvers, &workloads, seeds, |ev| {
            if matches!(ev, RunEvent::CellCached { .. }) {
                cached_events += 1;
            }
        })
        .expect("resumed sweep runs");
    assert_eq!(
        (out2.solved, out2.cached),
        (0, total as u64),
        "resume must be 100% cache hits"
    );
    assert_eq!(cached_events, total);
    let cache = resumed.cache();
    assert_eq!(cache.hits(), total as u64);
    assert_eq!(cache.misses(), 0);

    // Resumed results equal the originals bit for bit.
    assert_eq!(out2.records, out.records);
    println!(
        "pass 2: resumed with {}/{} cache hits, 0 solves — results identical",
        out2.cached, total
    );
    let _ = std::fs::remove_file(&path);
    println!("store smoke OK");
}
