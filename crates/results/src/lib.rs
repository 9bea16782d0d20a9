//! # kw-results — the streaming results pipeline
//!
//! Experiment output used to be barrier-shaped: a binary ran its whole
//! solver × workload × seed matrix, then pretty-printed a table that
//! died with the process. This crate is the layer that makes results
//! *stream* and *persist* (ROADMAP item (c)):
//!
//! * **Events** — [`ExperimentRunner::run_matrix`], given an event
//!   sender, emits a [`RunEvent`] per `(solver, workload, seed)` cell
//!   over a bounded MPSC channel; [`pipeline::stream_sweep`] pairs it
//!   with a consumer thread so one caller can run and observe
//!   simultaneously. Either way the sweep returns one [`RunRecord`] per
//!   run.
//! * **Store** — [`store::RunStore`] is an append-only JSONL file with a
//!   versioned schema ([`store::SCHEMA_VERSION`]) holding sweep
//!   manifests (solver specs, workloads, seeds, fault plan, git
//!   describe), per-cell run records, and criterion bench measurements.
//!   Appends are crash-safe (one flushed write per line; torn tails are
//!   repaired on open) and stores replay into an [`ExperimentCache`], so
//!   a killed sweep resumes by solving only its missing cells.
//! * **Summaries** — [`summary::Summary`], the one rollup of run
//!   records, aggregates them per `(workload, chaos, solver, threads)`
//!   cell and per solver with [`summary::Percentiles`] (mean/p50/p95/p99;
//!   quality stats exclude non-dominating runs), rendering to markdown
//!   or CSV.
//! * **Regression gating** — [`regress::gate`] diffs a fresh store
//!   against a stored baseline in one keyed pass and flags quality
//!   growth, new failures, ≥20% time regressions of record cells and
//!   bench lines, missing cells and benches, and changes in the *shape*
//!   of profiles (per-phase share drift and lost multi-thread speedup,
//!   matched by thread count). The `regress` binary exits non-zero on
//!   findings, and `store_smoke` is the CI end-to-end check (sweep →
//!   validate → resume → 100% cache hits).
//! * **Traces** — profiled solves ([`kw_trace`] spans through
//!   `SolveContext::trace`) persist as `trace` store lines
//!   ([`store::TraceRecord`]) and roll up per solver × workload ×
//!   threads via [`summary::TraceRollup`] (phase shares, barrier cost,
//!   worker imbalance).
//!
//! [`ExperimentRunner::run_matrix`]:
//!     kw_core::solver::ExperimentRunner::run_matrix
//! [`ExperimentCache`]: kw_core::solver::ExperimentCache
//! [`RunEvent`]: kw_core::solver::RunEvent
//! [`RunRecord`]: kw_core::solver::RunRecord

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod pipeline;
pub mod regress;
pub mod render;
pub mod store;
pub mod summary;

pub use pipeline::{stream_sweep, PipelineError, SweepOutcome, SweepSession};
pub use regress::{gate, Check, Regression};
pub use render::Table;
pub use store::{
    load_path, BenchRecord, RunManifest, RunStore, StoreError, TraceRecord, SCHEMA_VERSION,
};
pub use summary::{nearest_rank, CellRollup, Percentiles, SolverRollup, Summary, TraceRollup};

// The event types are defined next to the runner that emits them; this
// crate is their natural home from a consumer's point of view.
pub use kw_core::solver::{RunEvent, RunRecord};
