//! Streaming sweep events (ROADMAP item (c)).
//!
//! [`ExperimentRunner::run_matrix`], given an event sender, reports
//! progress *while* a solver × workload × seed matrix executes, instead
//! of staying silent until the final barrier: every `(solver, workload, seed)` run — a
//! *cell* in store terminology — produces a [`RunEvent::CellStarted`]
//! followed by exactly one terminal event (`CellFinished`, `CellCached`,
//! or `CellFailed`), bracketed by one `SweepStarted`/`SweepFinished`
//! pair. Events travel over a caller-supplied **bounded** MPSC channel
//! ([`std::sync::mpsc::sync_channel`]), so a slow consumer backpressures
//! the sweep rather than buffering unboundedly.
//!
//! The `kw_results` crate consumes these events to drive progress
//! display, append durable [`RunRecord`]s to its JSONL run store, and
//! resume interrupted sweeps (replayed records surface as `CellCached`).
//!
//! # Ordering guarantees
//!
//! Each event carries the id of the worker that emitted it and a
//! per-worker sequence number: within one worker the sequence is
//! strictly increasing and the channel preserves send order, so
//! per-worker event streams are monotonic. No ordering is promised
//! *between* workers (cells are work-stolen).
//!
//! [`ExperimentRunner::run_matrix`]: super::ExperimentRunner::run_matrix

use super::runner::RunOutcome;

/// Durable description of one `(solver, workload, seed)` run: the cache
/// key (including the chaos-plan fingerprint, the one context knob
/// besides the seed that changes results) plus the [`RunOutcome`].
///
/// This is exactly the information the `kw_results` run store persists
/// per line, and exactly what [`ExperimentCache::insert_outcome`] needs
/// to replay a run without re-solving it.
///
/// [`ExperimentCache::insert_outcome`]: super::ExperimentCache::insert_outcome
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Canonical solver spec (e.g. `"kw:k=2"`).
    pub solver: String,
    /// Workload label (unique per graph within one cache/store).
    pub workload: String,
    /// Node count of the workload graph (store metadata; not part of
    /// the cache key).
    pub n: usize,
    /// Maximum degree `Δ` of the workload graph (store metadata).
    pub max_degree: usize,
    /// Run seed.
    pub seed: u64,
    /// Canonical chaos spec of the context's [`ChaosPlan`] (`""` =
    /// reliable network) — the fingerprint the cache keys outcomes by.
    ///
    /// [`ChaosPlan`]: kw_sim::ChaosPlan
    pub chaos: String,
    /// Engine worker threads the run executed with (`1` = sequential).
    /// Part of the cache key: outcomes are bit-identical across thread
    /// counts, but `wall_ms` is not, and the scaling gate compares
    /// same-key cells across exactly this field.
    pub threads: usize,
    /// What the run produced.
    pub outcome: RunOutcome,
}

/// One progress event of a streaming sweep.
///
/// `worker` is the index of the runner worker that executed the cell and
/// `seq` its per-worker sequence number (see the module docs for the
/// ordering guarantees).
#[derive(Clone, Debug)]
pub enum RunEvent {
    /// The sweep's matrix has been laid out; `runs` cells will execute.
    SweepStarted {
        /// Number of solvers in the matrix.
        solvers: usize,
        /// Number of workloads in the matrix.
        workloads: usize,
        /// Number of seeds per (solver, workload) cell.
        seeds: usize,
        /// Total `(solver, workload, seed)` cells.
        runs: usize,
    },
    /// A cell is about to run (or be served from the cache).
    CellStarted {
        /// Emitting worker.
        worker: usize,
        /// Per-worker sequence number.
        seq: u64,
        /// Solver spec of the cell.
        solver: String,
        /// Workload label of the cell.
        workload: String,
        /// Seed of the cell.
        seed: u64,
    },
    /// A cell was solved fresh; its record is durable-store-ready.
    CellFinished {
        /// Emitting worker.
        worker: usize,
        /// Per-worker sequence number.
        seq: u64,
        /// The run's durable record.
        record: RunRecord,
    },
    /// A cell was served from the [`ExperimentCache`] (hit counts in the
    /// record reflect the *original* solve, including its wall time).
    ///
    /// [`ExperimentCache`]: super::ExperimentCache
    CellCached {
        /// Emitting worker.
        worker: usize,
        /// Per-worker sequence number.
        seq: u64,
        /// The originally solved record, replayed.
        record: RunRecord,
    },
    /// A cell errored or its worker panicked; the sweep aborts after
    /// this event (it is the last cell event its worker emits).
    CellFailed {
        /// Emitting worker.
        worker: usize,
        /// Per-worker sequence number.
        seq: u64,
        /// Solver spec of the failing cell.
        solver: String,
        /// Workload label of the failing cell.
        workload: String,
        /// Seed of the failing cell.
        seed: u64,
        /// Human-readable failure description.
        error: String,
    },
    /// The sweep is over; totals partition the cells that ran.
    SweepFinished {
        /// Cells solved fresh.
        solved: u64,
        /// Cells served from the cache.
        cached: u64,
        /// Cells that failed. The first failure aborts the sweep, but
        /// workers already mid-cell may each record their own failure,
        /// so this can reach the worker count (it is 0 iff the sweep
        /// succeeded).
        failed: u64,
    },
}

impl RunEvent {
    /// The `(solver, workload, seed)` identity of a cell event (`None`
    /// for the sweep bracket events).
    pub fn cell(&self) -> Option<(&str, &str, u64)> {
        match self {
            RunEvent::CellStarted {
                solver,
                workload,
                seed,
                ..
            }
            | RunEvent::CellFailed {
                solver,
                workload,
                seed,
                ..
            } => Some((solver, workload, *seed)),
            RunEvent::CellFinished { record, .. } | RunEvent::CellCached { record, .. } => {
                Some((&record.solver, &record.workload, record.seed))
            }
            _ => None,
        }
    }

    /// Worker id and per-worker sequence number (`None` for the sweep
    /// bracket events, which the calling thread emits).
    pub fn worker_seq(&self) -> Option<(usize, u64)> {
        match *self {
            RunEvent::CellStarted { worker, seq, .. }
            | RunEvent::CellFinished { worker, seq, .. }
            | RunEvent::CellCached { worker, seq, .. }
            | RunEvent::CellFailed { worker, seq, .. } => Some((worker, seq)),
            _ => None,
        }
    }

    /// Whether this is a cell's terminal event (finished/cached/failed).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            RunEvent::CellFinished { .. }
                | RunEvent::CellCached { .. }
                | RunEvent::CellFailed { .. }
        )
    }
}
