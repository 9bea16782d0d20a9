//! Wiring between the streaming runner and the run store.
//!
//! [`stream_sweep`] is the minimal harness: it pairs a bounded event
//! channel with a consumer thread so a single caller can both run a
//! matrix and observe its events without deadlocking on backpressure.
//!
//! [`SweepSession`] is the durable layer on top: it opens a
//! [`RunStore`], replays every persisted record into an
//! [`ExperimentCache`] (so a killed sweep resumes where it died), and
//! while a sweep runs it appends each freshly solved cell to the store
//! the moment its `CellFinished` event arrives — a crash loses at most
//! the cell in flight.

use std::collections::HashMap;
use std::fmt;
use std::sync::mpsc::sync_channel;

use kw_graph::CsrGraph;

use kw_core::solver::{
    DsSolver, ExperimentCache, ExperimentRunner, RunEvent, RunRecord, SolveError,
};

use crate::store::{git_describe, RunManifest, RunStore, StoreError};

/// Bound of the event channel [`stream_sweep`] allocates: big enough to
/// decouple worker bursts from consumer I/O, small enough that a stuck
/// consumer backpressures the sweep instead of buffering it whole.
pub const EVENT_CHANNEL_BOUND: usize = 256;

/// Errors of a persistent sweep: either the sweep itself failed or the
/// store did.
#[derive(Debug)]
pub enum PipelineError {
    /// The sweep aborted (solver error or panic).
    Solve(SolveError),
    /// The run store failed to read or append.
    Store(StoreError),
    /// The store holds records for a workload label whose graph shape
    /// differs from the sweep's live graph — the label was reused for a
    /// different graph (or a generator changed), and replaying would
    /// silently serve stale results. Delete the store (or use a fresh
    /// path) to re-measure.
    StaleWorkload {
        /// The offending workload label.
        workload: String,
        /// `(n, Δ)` recorded in the store.
        stored: (usize, usize),
        /// `(n, Δ)` of the live graph.
        live: (usize, usize),
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Solve(e) => write!(f, "sweep failed: {e}"),
            PipelineError::Store(e) => write!(f, "{e}"),
            PipelineError::StaleWorkload {
                workload,
                stored,
                live,
            } => write!(
                f,
                "run store is stale for workload {workload:?}: stored graph has \
                 (n, Δ) = {stored:?} but the live graph has {live:?}; delete the \
                 store or use a fresh path to re-measure"
            ),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Solve(e) => Some(e),
            PipelineError::Store(e) => Some(e),
            PipelineError::StaleWorkload { .. } => None,
        }
    }
}

impl From<SolveError> for PipelineError {
    fn from(e: SolveError) -> Self {
        PipelineError::Solve(e)
    }
}

impl From<StoreError> for PipelineError {
    fn from(e: StoreError) -> Self {
        PipelineError::Store(e)
    }
}

/// What a [`SweepSession::run`] call produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Every run record of this sweep (fresh and cached), in the
    /// runner's order: solver-major, then workload, then seed. Roll them
    /// up with [`Summary::from_records`](crate::Summary::from_records).
    pub records: Vec<RunRecord>,
    /// Cells solved fresh this sweep.
    pub solved: u64,
    /// Cells served from the cache (store replay or earlier sweeps).
    pub cached: u64,
    /// Cells that failed (0 iff the sweep succeeded; parallel workers
    /// mid-cell at abort time may each record one).
    pub failed: u64,
    /// First store-append failure, if any. The sweep's results above
    /// are complete regardless — a full disk must not discard computed
    /// cells — but records appended after the failure may be missing
    /// from the store, so callers should surface this to the user.
    pub store_error: Option<StoreError>,
}

/// Runs a streaming sweep, draining events on a consumer thread and
/// handing each to `on_event` (in channel order). Returns the same
/// records as [`ExperimentRunner::run_matrix`].
///
/// The channel is bounded at [`EVENT_CHANNEL_BOUND`]; a slow `on_event`
/// slows the sweep rather than ballooning memory.
pub fn stream_sweep<S: DsSolver>(
    runner: &ExperimentRunner,
    solvers: &[S],
    workloads: &[(String, CsrGraph)],
    seeds: impl IntoIterator<Item = u64>,
    on_event: impl FnMut(&RunEvent) + Send,
) -> Result<Vec<RunRecord>, SolveError> {
    let seeds: Vec<u64> = seeds.into_iter().collect();
    let (tx, rx) = sync_channel::<RunEvent>(EVENT_CHANNEL_BOUND);
    std::thread::scope(|scope| {
        let consumer = scope.spawn(move || {
            let mut on_event = on_event;
            for ev in rx.iter() {
                on_event(&ev);
            }
        });
        // The runner drops its sender clones when the sweep ends, which
        // closes the channel and lets the consumer drain out.
        let result = runner.run_matrix(solvers, workloads, seeds, Some(tx));
        consumer.join().expect("event consumer panicked");
        result
    })
}

/// A persistent, resumable sweep context bound to one store file.
///
/// # Example
///
/// ```no_run
/// use kw_core::solver::{ExperimentRunner, SolverRegistry};
/// use kw_graph::generators;
/// use kw_results::pipeline::SweepSession;
///
/// let registry = SolverRegistry::with_core_solvers();
/// let solvers = registry.build_all(["kw:k=2"]).unwrap();
/// let workloads = vec![("grid6".to_string(), generators::grid(6, 6))];
/// let mut session = SweepSession::open("target/runs.jsonl")?;
/// let out = session.run(
///     &ExperimentRunner::new(),
///     &solvers,
///     &workloads,
///     0..10,
///     |_event| {},
/// )?;
/// // Re-running after a crash (or in a later process) solves nothing:
/// // the store replays into the cache first.
/// assert_eq!(out.records.len(), 10);
/// # Ok::<(), kw_results::pipeline::PipelineError>(())
/// ```
#[derive(Debug)]
pub struct SweepSession {
    store: RunStore,
    cache: std::sync::Arc<ExperimentCache>,
    replayed: usize,
    /// `(n, Δ)` of every workload label ever seen (store replay + this
    /// session's sweeps) — the staleness guard replaying depends on.
    shapes: HashMap<String, (usize, usize)>,
}

impl SweepSession {
    /// Opens (or creates) the store at `path` and replays its records
    /// into a fresh cache.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, StoreError> {
        let store = RunStore::open(path)?;
        let contents = store.load()?;
        let cache = ExperimentCache::new();
        let mut shapes = HashMap::new();
        for r in &contents.records {
            cache.insert_outcome(
                &r.solver,
                &r.workload,
                r.seed,
                &r.chaos,
                r.threads,
                r.outcome,
            );
            shapes.insert(r.workload.clone(), (r.n, r.max_degree));
        }
        Ok(SweepSession {
            store,
            cache,
            replayed: contents.records.len(),
            shapes,
        })
    }

    /// Number of records replayed from the store at open.
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// The cache sweeps of this session share.
    pub fn cache(&self) -> std::sync::Arc<ExperimentCache> {
        self.cache.clone()
    }

    /// The underlying store.
    pub fn store(&self) -> &RunStore {
        &self.store
    }

    /// Runs one streaming sweep through this session: a manifest line is
    /// appended first, the session cache is attached to (a clone of)
    /// `runner`, every freshly solved cell is appended to the store as
    /// its event arrives, and all events are forwarded to `progress`.
    ///
    /// Cells already in the store (or solved by an earlier sweep of this
    /// session) are served from the cache and *not* re-appended. Before
    /// anything replays, every workload's live `(n, Δ)` is checked
    /// against the shape its records were stored with —
    /// [`PipelineError::StaleWorkload`] rejects a label reused for a
    /// different graph instead of silently serving stale results.
    ///
    /// A store append failure mid-sweep does **not** abort or discard
    /// the sweep; it is reported in [`SweepOutcome::store_error`] and
    /// later records still attempt to append (transient failures lose
    /// as little as possible).
    pub fn run<S: DsSolver>(
        &mut self,
        runner: &ExperimentRunner,
        solvers: &[S],
        workloads: &[(String, CsrGraph)],
        seeds: impl IntoIterator<Item = u64>,
        mut progress: impl FnMut(&RunEvent) + Send,
    ) -> Result<SweepOutcome, PipelineError> {
        for (label, graph) in workloads {
            let live = (graph.len(), graph.max_degree());
            match self.shapes.get(label) {
                Some(&stored) if stored != live => {
                    return Err(PipelineError::StaleWorkload {
                        workload: label.clone(),
                        stored,
                        live,
                    });
                }
                Some(_) => {}
                None => {
                    self.shapes.insert(label.clone(), live);
                }
            }
        }
        let seeds: Vec<u64> = seeds.into_iter().collect();
        let base = runner.base_context();
        self.store.append_manifest(&RunManifest {
            git: git_describe(),
            solvers: solvers.iter().map(DsSolver::spec).collect(),
            workloads: workloads.iter().map(|(label, _)| label.clone()).collect(),
            seeds: seeds.clone(),
            chaos: base.faults.spec(),
        })?;
        let runner = runner.clone().cache(self.cache.clone());
        let store = &self.store;
        let mut totals = (0u64, 0u64, 0u64);
        let mut write_err: Option<StoreError> = None;
        let records = stream_sweep(&runner, solvers, workloads, seeds, |ev| {
            match ev {
                RunEvent::CellFinished { record, .. } => {
                    if let Err(e) = store.append_record(record) {
                        write_err.get_or_insert(e);
                    }
                }
                RunEvent::SweepFinished {
                    solved,
                    cached,
                    failed,
                } => totals = (*solved, *cached, *failed),
                _ => {}
            }
            progress(ev);
        })?;
        Ok(SweepOutcome {
            records,
            solved: totals.0,
            cached: totals.1,
            failed: totals.2,
            store_error: write_err,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_core::solver::SolverRegistry;
    use kw_graph::generators;

    #[test]
    fn stream_sweep_matches_batch_and_observes_events() {
        let registry = SolverRegistry::with_core_solvers();
        let solvers = registry.build_all(["kw:k=2"]).unwrap();
        let workloads = vec![("grid4".to_string(), generators::grid(4, 4))];
        let runner = ExperimentRunner::new()
            .workers(2)
            .cache(ExperimentCache::new());
        let mut streamed = Vec::new();
        let records = stream_sweep(&runner, &solvers, &workloads, 0..5, |ev| {
            if let RunEvent::CellFinished { record, .. } = ev {
                streamed.push(record.clone());
            }
        })
        .unwrap();
        // The returned records are the streamed ones, in seed order.
        assert_eq!(streamed.len(), 5);
        streamed.sort_by_key(|r| r.seed);
        assert_eq!(records, streamed);
        // A silent sweep over the warm cache replays the very same records.
        let batch = runner.run_matrix(&solvers, &workloads, 0..5, None).unwrap();
        assert_eq!(batch, records);
    }
}
