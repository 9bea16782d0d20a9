//! The unified dominating-set solver API.
//!
//! The paper's central claim is a *comparison* — its constant-round
//! pipeline versus greedy, JRS-LRG, MIS-based, and trivial baselines — so
//! every algorithm in this workspace is reachable through one polymorphic
//! interface:
//!
//! * [`DsSolver`] — the trait: `solve(&self, graph, context)` produces a
//!   uniform [`SolveReport`];
//! * [`SolveContext`] — execution environment (seed, threads, fault model,
//!   certificate checking), kept separate from algorithm configuration;
//! * [`SolveReport`] — dominating set, optional fractional solution,
//!   merged and per-stage [`RunMetrics`], and a quality [`Certificate`]
//!   against the Lemma-1 LP lower bound;
//! * [`SolverRegistry`] — string-keyed construction from specs such as
//!   `"kw:k=2"` or `"connected(greedy)"` ([`spec::SolverSpec`] documents
//!   the grammar);
//! * [`ExperimentRunner`] — fans a solver × workload × seed matrix into
//!   batched, optionally multi-threaded runs with aggregated statistics.
//!
//! The paper pipeline lives here ([`registry::register_core_solvers`]);
//! the five baselines register themselves from `kw_baselines` and the
//! umbrella crate's `default_registry()` combines both.
//!
//! # Example
//!
//! ```
//! use kw_core::solver::{SolveContext, SolverRegistry};
//! use kw_graph::generators;
//!
//! let registry = SolverRegistry::with_core_solvers();
//! let solver = registry.build("kw:k=3")?;
//! let g = generators::grid(6, 6);
//! let report = solver.solve(&g, &SolveContext::seeded(7))?;
//! assert!(report.dominating_set.is_dominating(&g));
//! assert!(report.certificate.as_ref().unwrap().dominates);
//! # Ok::<(), kw_core::solver::SolveError>(())
//! ```

pub mod events;
mod pipeline_solvers;
pub mod registry;
pub mod runner;
pub mod spec;

use std::error::Error;
use std::fmt;

use kw_graph::{CsrGraph, DominatingSet, FractionalAssignment};
use kw_sim::{ChaosPlan, RunMetrics, SimError};

use crate::CoreError;

pub use events::{RunEvent, RunRecord};
pub use pipeline_solvers::{CompositeSolver, PipelineSolver};
pub use registry::SolverRegistry;
pub use runner::{ExperimentCache, ExperimentRunner, RunOutcome};
pub use spec::SolverSpec;

/// Execution environment of a solve call.
///
/// Everything here is about *how* to run, never about *which* algorithm —
/// algorithm parameters belong to the solver itself (configured through
/// its [`SolverSpec`]). One context can therefore drive any solver, which
/// is what makes solver × workload × seed matrices well-defined.
#[derive(Clone, Debug)]
pub struct SolveContext {
    /// Run seed; all randomness any solver consumes derives from it.
    pub seed: u64,
    /// Worker threads for the simulation engine (`<= 1` = sequential,
    /// `0` = all available cores). Never affects results.
    pub threads: usize,
    /// Chaos model — iid losses, drop bursts, crashes, byzantine senders,
    /// churn (defaults to the paper's reliable network).
    pub faults: ChaosPlan,
    /// Whether to attach a quality [`Certificate`] to reports
    /// (verification + Lemma-1 ratio; costs one `is_dominating` pass).
    pub check_certificates: bool,
    /// Whether to profile the solve with the `kw_trace` span plane and
    /// attach the rollup to [`SolveReport::trace`]. Off by default; an
    /// untraced run pays one thread-local read per engine drive and
    /// nothing per round. Tracing never affects results — only the
    /// report's `trace` field.
    pub trace: bool,
}

impl Default for SolveContext {
    fn default() -> Self {
        SolveContext {
            seed: 0,
            threads: 1,
            faults: ChaosPlan::reliable(),
            check_certificates: true,
            trace: false,
        }
    }
}

impl SolveContext {
    /// A default context with the given seed.
    pub fn seeded(seed: u64) -> Self {
        SolveContext {
            seed,
            ..Self::default()
        }
    }

    /// Returns a copy of the context with a different seed (used by the
    /// [`ExperimentRunner`] to sweep seeds).
    pub fn with_seed(&self, seed: u64) -> Self {
        SolveContext {
            seed,
            ..self.clone()
        }
    }
}

/// Solution-quality evidence attached to a [`SolveReport`].
#[derive(Clone, Debug)]
pub struct Certificate {
    /// Whether the output set actually dominates the graph (verified, not
    /// assumed — under message loss the theorems' guarantees lapse).
    pub dominates: bool,
    /// The Lemma-1 lower bound `n / (Δ + 1) ≤ |DS_OPT|` family value from
    /// [`kw_lp::bounds::lemma1_bound`].
    pub lemma1_bound: f64,
    /// `|DS| / lemma1_bound` — an upper bound on the true approximation
    /// ratio (1.0 for an empty graph).
    pub ratio_vs_lemma1: f64,
    /// Whether the intermediate fractional solution is LP-feasible
    /// (`None` when the solver has no fractional stage).
    pub fractional_feasible: Option<bool>,
    /// Objective value of the fractional solution, if any.
    pub fractional_objective: Option<f64>,
}

/// Metrics of one stage of a composed algorithm.
#[derive(Clone, Debug)]
pub struct StageMetrics {
    /// Stage label (e.g. `"fractional"`, `"rounding"`, `"stitch"`).
    pub stage: String,
    /// Communication metrics of that stage. All-zero metrics mean the
    /// stage is centralized/sequential (e.g. greedy, the CDS stitch).
    pub metrics: RunMetrics,
}

/// Everything a [`DsSolver::solve`] call produces, uniform across
/// algorithms.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// Canonical spec of the solver that produced this report.
    pub solver: String,
    /// The computed dominating set (verification status is in
    /// [`certificate`](Self::certificate)).
    pub dominating_set: DominatingSet,
    /// The intermediate fractional `LP_MDS` solution, for solvers that
    /// compute one.
    pub fractional: Option<FractionalAssignment>,
    /// Communication metrics merged across all stages.
    pub metrics: RunMetrics,
    /// Per-stage metrics, in execution order.
    pub stages: Vec<StageMetrics>,
    /// Quality certificate (present unless the context disabled it).
    pub certificate: Option<Certificate>,
    /// Where-does-time-go rollup of the solve's span/counter trace.
    /// Present only when the run was traced ([`SolveContext::trace`] via
    /// [`traced_solve`], or an externally installed tracer harvested by
    /// the caller).
    pub trace: Option<kw_trace::TraceSummary>,
}

impl SolveReport {
    /// Size of the dominating set.
    pub fn size(&self) -> usize {
        self.dominating_set.len()
    }

    /// Total synchronous rounds across all distributed stages (0 for
    /// purely centralized solvers).
    pub fn rounds(&self) -> usize {
        self.metrics.rounds
    }

    /// Total messages across all stages.
    pub fn messages(&self) -> u64 {
        self.metrics.messages
    }

    /// Approximation-ratio upper bound vs the Lemma-1 lower bound, if a
    /// certificate was computed.
    pub fn ratio_vs_lemma1(&self) -> Option<f64> {
        self.certificate.as_ref().map(|c| c.ratio_vs_lemma1)
    }
}

/// Incremental [`SolveReport`] construction shared by all trait
/// implementations, so certificate computation stays in one place.
#[derive(Clone, Debug)]
pub struct ReportBuilder {
    solver: String,
    dominating_set: DominatingSet,
    fractional: Option<FractionalAssignment>,
    stages: Vec<StageMetrics>,
}

impl ReportBuilder {
    /// Starts a report for `solver`'s output set.
    pub fn new(solver: impl Into<String>, dominating_set: DominatingSet) -> Self {
        ReportBuilder {
            solver: solver.into(),
            dominating_set,
            fractional: None,
            stages: Vec::new(),
        }
    }

    /// Attaches the fractional stage output.
    pub fn fractional(mut self, x: FractionalAssignment) -> Self {
        self.fractional = Some(x);
        self
    }

    /// Appends a stage's metrics (stages merge in insertion order).
    pub fn stage(mut self, name: impl Into<String>, metrics: RunMetrics) -> Self {
        self.stages.push(StageMetrics {
            stage: name.into(),
            metrics,
        });
        self
    }

    /// Finishes the report, computing the certificate if the context asks
    /// for one.
    pub fn finish(self, g: &CsrGraph, ctx: &SolveContext) -> SolveReport {
        let metrics = self
            .stages
            .iter()
            .fold(RunMetrics::default(), |acc, s| acc.merged(&s.metrics));
        let certificate = ctx.check_certificates.then(|| {
            // Under churn the run ends on a different topology than it
            // started from; quality is judged against the final graph the
            // chaos script produced.
            let churned = ctx.faults.churned_graph(g);
            let g = churned.as_ref().unwrap_or(g);
            let size = self.dominating_set.len() as f64;
            let lemma1 = kw_lp::bounds::lemma1_bound(g);
            let ratio_vs_lemma1 = if lemma1 > 0.0 {
                size / lemma1
            } else if size == 0.0 {
                1.0
            } else {
                f64::INFINITY
            };
            Certificate {
                dominates: self.dominating_set.is_dominating(g),
                lemma1_bound: lemma1,
                ratio_vs_lemma1,
                fractional_feasible: self.fractional.as_ref().map(|x| x.is_feasible(g)),
                fractional_objective: self.fractional.as_ref().map(|x| x.objective()),
            }
        });
        SolveReport {
            solver: self.solver,
            dominating_set: self.dominating_set,
            fractional: self.fractional,
            metrics,
            stages: self.stages,
            certificate,
            trace: None,
        }
    }
}

/// Runs `solver` with the span/profiling plane active when the context
/// asks for it ([`SolveContext::trace`]), harvesting the trace into
/// [`SolveReport::trace`]; with tracing off this is exactly
/// `solver.solve(g, ctx)`.
///
/// A [`kw_trace::Tracer`] is installed in this thread's slot around the
/// solve (wrapped in a root `solve` span), so the engine rounds the
/// solver drives — on this thread — record phase spans and round
/// samples. The slot is cleared even when the solver errors or panics;
/// a pre-installed tracer is replaced (traced solves don't nest).
///
/// # Errors
///
/// Whatever `solver.solve` returns; the trace of a failed solve is
/// discarded with the error.
pub fn traced_solve(
    solver: &dyn DsSolver,
    g: &CsrGraph,
    ctx: &SolveContext,
) -> Result<SolveReport, SolveError> {
    if !ctx.trace {
        return solver.solve(g, ctx);
    }
    // Clears the thread-local slot on every exit path, including a
    // panicking solver unwinding through this frame (the runner converts
    // such panics into `CellFailed` events and reuses the worker).
    struct ClearSlot;
    impl Drop for ClearSlot {
        fn drop(&mut self) {
            let _ = kw_trace::take();
        }
    }
    kw_trace::install(kw_trace::Tracer::new());
    let _clear = ClearSlot;
    kw_trace::with_active(|t| t.begin("solve"));
    let result = solver.solve(g, ctx);
    let summary = kw_trace::take().map(|mut t| {
        t.finish();
        t.summarize()
    });
    result.map(|mut report| {
        report.trace = summary;
        report
    })
}

/// Errors produced by solver construction and solve calls.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveError {
    /// A spec string failed to parse or carried invalid parameters.
    InvalidSpec {
        /// The offending spec text.
        spec: String,
        /// Human-readable reason.
        reason: String,
    },
    /// The registry has no solver under the requested name.
    UnknownSolver {
        /// The requested name.
        name: String,
        /// Registered names, for the error message.
        known: Vec<String>,
    },
    /// An algorithm-level failure from the paper implementations.
    Core(CoreError),
    /// A simulation-level failure.
    Sim(SimError),
    /// A solver panicked inside an [`ExperimentRunner`] worker; the
    /// runner converts the unwind into this error (and a `CellFailed`
    /// event in streaming mode) instead of poisoning the sweep.
    Panicked {
        /// The panic payload's message, when it was a string.
        reason: String,
    },
    /// Two workloads in one matrix share a label. Labels key the
    /// experiment cache and the run store, so a duplicate would silently
    /// serve one workload the other's cached results; the runner detects
    /// this at matrix start and refuses to sweep.
    DuplicateWorkload {
        /// The label both workloads carry.
        label: String,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::InvalidSpec { spec, reason } => {
                write!(f, "invalid solver spec {spec:?}: {reason}")
            }
            SolveError::UnknownSolver { name, known } => {
                write!(
                    f,
                    "unknown solver {name:?}; registered: {}",
                    known.join(", ")
                )
            }
            SolveError::Core(e) => write!(f, "solver failed: {e}"),
            SolveError::Sim(e) => write!(f, "simulation failed: {e}"),
            SolveError::Panicked { reason } => write!(f, "solver panicked: {reason}"),
            SolveError::DuplicateWorkload { label } => write!(
                f,
                "duplicate workload label {label:?} in one matrix: labels key the \
                 experiment cache and the run store, so every workload in a sweep \
                 must carry a unique label"
            ),
        }
    }
}

impl Error for SolveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SolveError::Core(e) => Some(e),
            SolveError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for SolveError {
    fn from(e: CoreError) -> Self {
        SolveError::Core(e)
    }
}

impl From<SimError> for SolveError {
    fn from(e: SimError) -> Self {
        SolveError::Sim(e)
    }
}

/// A dominating-set algorithm behind the uniform interface.
///
/// Implementations must be deterministic in `(graph, context.seed)`: the
/// same graph and seed produce the identical set, metrics, and
/// certificate, regardless of `context.threads`. The conformance suite
/// (`tests/solver_conformance.rs` in the umbrella crate) enforces this for
/// every registered solver.
pub trait DsSolver: Send + Sync {
    /// Canonical spec of this solver instance (parseable by the registry
    /// that created it, e.g. `"kw:k=2"` or `"connected(greedy)"`).
    fn spec(&self) -> String;

    /// Computes a dominating set of `g`.
    ///
    /// # Errors
    ///
    /// [`SolveError`] on invalid configuration or simulation failure.
    /// An output that fails to dominate under message loss is *not* an
    /// error; it is reported through the certificate.
    fn solve(&self, g: &CsrGraph, ctx: &SolveContext) -> Result<SolveReport, SolveError>;

    /// Whether the algorithm consumes randomness. Deterministic solvers
    /// (greedy, trivial) ignore `ctx.seed` entirely.
    fn randomized(&self) -> bool {
        true
    }
}

// Consumers routinely hold `Result<Box<dyn DsSolver>, SolveError>`;
// without this, `unwrap`/`unwrap_err` on it won't compile.
impl fmt::Debug for dyn DsSolver + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("DsSolver").field(&self.spec()).finish()
    }
}

impl DsSolver for Box<dyn DsSolver> {
    fn spec(&self) -> String {
        (**self).spec()
    }

    fn solve(&self, g: &CsrGraph, ctx: &SolveContext) -> Result<SolveReport, SolveError> {
        (**self).solve(g, ctx)
    }

    fn randomized(&self) -> bool {
        (**self).randomized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_graph::generators;

    #[test]
    fn report_builder_merges_stages_and_certifies() {
        let g = generators::star(6);
        let ds = DominatingSet::from_indices(&g, [0usize]);
        let m1 = RunMetrics {
            rounds: 3,
            messages: 10,
            bits: 50,
            ..Default::default()
        };
        let m2 = RunMetrics {
            rounds: 2,
            messages: 4,
            bits: 8,
            ..Default::default()
        };
        let report = ReportBuilder::new("test", ds)
            .stage("a", m1)
            .stage("b", m2)
            .finish(&g, &SolveContext::default());
        assert_eq!(report.rounds(), 5);
        assert_eq!(report.messages(), 14);
        assert_eq!(report.stages.len(), 2);
        let cert = report.certificate.expect("certificates default on");
        assert!(cert.dominates);
        assert!(cert.lemma1_bound >= 1.0 - 1e-9);
        assert!(cert.ratio_vs_lemma1 >= 1.0 - 1e-9);
        assert_eq!(cert.fractional_feasible, None);
    }

    #[test]
    fn certificate_flags_non_dominating_output() {
        let g = generators::path(4);
        let not_ds = DominatingSet::from_indices(&g, [0usize]);
        let report = ReportBuilder::new("bad", not_ds).finish(&g, &SolveContext::default());
        assert!(!report.certificate.unwrap().dominates);
    }

    #[test]
    fn certificates_can_be_disabled() {
        let g = generators::path(3);
        let ds = DominatingSet::from_indices(&g, [1usize]);
        let ctx = SolveContext {
            check_certificates: false,
            ..Default::default()
        };
        let report = ReportBuilder::new("x", ds).finish(&g, &ctx);
        assert!(report.certificate.is_none());
    }

    #[test]
    fn empty_graph_certificate_is_sane() {
        let g = kw_graph::CsrGraph::empty(0);
        let ds = DominatingSet::new(&g);
        let report = ReportBuilder::new("x", ds).finish(&g, &SolveContext::default());
        let cert = report.certificate.unwrap();
        assert!(cert.dominates);
        assert_eq!(cert.ratio_vs_lemma1, 1.0);
    }

    #[test]
    fn error_display_and_conversions() {
        let e = SolveError::UnknownSolver {
            name: "nope".into(),
            known: vec!["kw".into(), "greedy".into()],
        };
        assert!(e.to_string().contains("nope") && e.to_string().contains("kw"));
        let e: SolveError = CoreError::InvalidConfig { reason: "k".into() }.into();
        assert!(matches!(e, SolveError::Core(_)));
        assert!(Error::source(&e).is_some());
        let e: SolveError = SimError::MaxRoundsExceeded { limit: 1 }.into();
        assert!(matches!(e, SolveError::Sim(_)));
    }
}
