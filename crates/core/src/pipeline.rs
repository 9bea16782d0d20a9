//! The end-to-end dominating set pipeline (Theorem 6).
//!
//! Applies a fractional solver (Algorithm 3 by default, or Algorithm 2 when
//! `Δ`-knowledge is assumed) and rounds the result with Algorithm 1. By
//! Theorems 3 and 5 the expected dominating set size is within
//! `O(k·Δ^{2/k}·log Δ)` of optimal, after `O(k²)` rounds.
//!
//! When Algorithm 3 is the solver, its setup rounds already computed
//! `δ⁽²⁾` per node, so the rounding stage skips its two degree-exchange
//! rounds (the paper's modular composition would redo them; either way the
//! total stays `O(k²)`).
//!
//! # Example
//!
//! ```
//! use kw_graph::generators;
//! use kw_core::{Pipeline, PipelineConfig};
//!
//! let g = generators::grid(5, 5);
//! let outcome = Pipeline::new(PipelineConfig { k: 2, ..Default::default() }).run(&g, 7)?;
//! assert!(outcome.dominating_set.is_dominating(&g));
//! # Ok::<(), kw_core::CoreError>(())
//! ```

use kw_graph::{CsrGraph, DominatingSet, FractionalAssignment};
use kw_sim::{ChaosPlan, EngineConfig, RunMetrics};

use crate::alg2::run_alg2;
use crate::alg3::run_alg3;
use crate::rounding::{run_rounding, run_rounding_with_delta2, RoundingConfig};
use crate::CoreError;

/// Which algorithm computes the fractional solution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FractionalSolver {
    /// Algorithm 2 — assumes all nodes know the maximum degree `Δ`.
    Alg2DeltaKnown,
    /// Algorithm 3 — purely local (the paper's headline configuration).
    #[default]
    Alg3,
}

/// Pipeline configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PipelineConfig {
    /// The time/quality trade-off parameter `k ≥ 1`.
    pub k: u32,
    /// Fractional solver choice.
    pub solver: FractionalSolver,
    /// Rounding stage configuration.
    pub rounding: RoundingConfig,
    /// Worker threads for the simulation engine (`<= 1` = sequential).
    pub threads: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            k: 2,
            solver: FractionalSolver::default(),
            rounding: RoundingConfig::default(),
            threads: 1,
        }
    }
}

/// Everything a pipeline run produces.
#[derive(Clone, Debug)]
pub struct PipelineOutcome {
    /// The dominating set (guaranteed dominating unless the fallback was
    /// disabled in the rounding config).
    pub dominating_set: DominatingSet,
    /// The intermediate fractional solution.
    pub fractional: FractionalAssignment,
    /// Metrics of the fractional stage.
    pub fractional_metrics: RunMetrics,
    /// Metrics of the rounding stage.
    pub rounding_metrics: RunMetrics,
}

impl PipelineOutcome {
    /// Total synchronous rounds across both stages.
    pub fn total_rounds(&self) -> usize {
        self.fractional_metrics.rounds + self.rounding_metrics.rounds
    }

    /// Total messages across both stages.
    pub fn total_messages(&self) -> u64 {
        self.fractional_metrics.messages + self.rounding_metrics.messages
    }

    /// Total payload bits across both stages.
    pub fn total_bits(&self) -> u64 {
        self.fractional_metrics.bits + self.rounding_metrics.bits
    }

    /// Largest message observed in either stage, in bits.
    pub fn max_message_bits(&self) -> usize {
        self.fractional_metrics
            .max_message_bits
            .max(self.rounding_metrics.max_message_bits)
    }
}

/// The composed Kuhn–Wattenhofer dominating set algorithm.
#[derive(Clone, Copy, Debug)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the pipeline on `g`, with all randomness derived from `seed`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if `k == 0`; simulation errors are
    /// propagated.
    pub fn run(&self, g: &CsrGraph, seed: u64) -> Result<PipelineOutcome, CoreError> {
        self.run_with_faults(g, seed, ChaosPlan::reliable())
    }

    /// Runs the pipeline under a chaos plan: iid losses, correlated drop
    /// bursts, crash/recover schedules, adversarial (byzantine) senders,
    /// and inter-round churn (robustness ablation A3; the paper's model is
    /// the reliable special case).
    ///
    /// Both simulation stages (fractional solver, then rounding) run under
    /// the same plan, each from its own round 0 — chaos round numbers are
    /// stage-local.
    ///
    /// With chaos the theorems' guarantees no longer apply — the output
    /// may even fail to dominate; callers should check.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_with_faults(
        &self,
        g: &CsrGraph,
        seed: u64,
        faults: ChaosPlan,
    ) -> Result<PipelineOutcome, CoreError> {
        let engine = EngineConfig {
            seed,
            threads: self.config.threads,
            faults: faults.clone(),
            ..EngineConfig::default()
        };
        // Stage spans bracket the two simulation segments when a tracer is
        // installed; an early `?` return leaves the span open, and the
        // harvester's `Tracer::finish` closes it at the error tick.
        kw_trace::with_active(|t| t.begin("stage:fractional"));
        let (fractional, fractional_metrics, delta2) = match self.config.solver {
            FractionalSolver::Alg2DeltaKnown => {
                let run = run_alg2(g, self.config.k, engine)?;
                (run.x, run.metrics, None)
            }
            FractionalSolver::Alg3 => {
                let run = run_alg3(g, self.config.k, engine)?;
                (run.x, run.metrics, Some(run.delta2))
            }
        };
        kw_trace::with_active(|t| t.end());
        // Derive a distinct engine seed for the rounding stage so its RNG
        // draws are independent of anything the solver consumed.
        let rounding_engine = EngineConfig {
            seed: kw_sim::rng::split_mix64(seed ^ 0x524f_554e_4449_4e47),
            threads: self.config.threads,
            faults,
            ..EngineConfig::default()
        };
        kw_trace::with_active(|t| t.begin("stage:rounding"));
        let rounding = match &delta2 {
            Some(d2) => {
                run_rounding_with_delta2(g, &fractional, d2, self.config.rounding, rounding_engine)?
            }
            None => run_rounding(g, &fractional, self.config.rounding, rounding_engine)?,
        };
        kw_trace::with_active(|t| t.end());
        Ok(PipelineOutcome {
            dominating_set: rounding.set,
            fractional,
            fractional_metrics,
            rounding_metrics: rounding.metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math;
    use kw_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn default_pipeline_dominates() {
        let mut rng = SmallRng::seed_from_u64(30);
        for seed in 0..10u64 {
            let g = generators::gnp(60, 0.08, &mut rng);
            let out = Pipeline::new(PipelineConfig::default())
                .run(&g, seed)
                .unwrap();
            assert!(out.dominating_set.is_dominating(&g), "seed {seed}");
            assert!(out.fractional.is_feasible(&g));
        }
    }

    #[test]
    fn round_counts_match_theorems() {
        let g = generators::grid(6, 6);
        let k = 3;
        let out = Pipeline::new(PipelineConfig {
            k,
            ..Default::default()
        })
        .run(&g, 1)
        .unwrap();
        // Alg 3 rounds + 2 rounding rounds (δ² reused from setup).
        assert_eq!(out.total_rounds(), math::alg3_rounds(k) + 2);
        let out2 = Pipeline::new(PipelineConfig {
            k,
            solver: FractionalSolver::Alg2DeltaKnown,
            ..Default::default()
        })
        .run(&g, 1)
        .unwrap();
        assert_eq!(out2.total_rounds(), math::alg2_rounds(k) + 4);
    }

    #[test]
    fn deterministic_for_seed() {
        let g = generators::petersen();
        let p = Pipeline::new(PipelineConfig::default());
        let a = p.run(&g, 99).unwrap();
        let b = p.run(&g, 99).unwrap();
        let av: Vec<bool> = g.node_ids().map(|v| a.dominating_set.contains(v)).collect();
        let bv: Vec<bool> = g.node_ids().map(|v| b.dominating_set.contains(v)).collect();
        assert_eq!(av, bv);
        assert_eq!(a.fractional.values(), b.fractional.values());
    }

    #[test]
    fn expected_ratio_within_theorem6() {
        // Statistical check on a structured graph with known optimum:
        // star-of-cliques(4, 5) has γ = 4 (one per clique).
        let g = generators::star_of_cliques(4, 5);
        let opt = 4.0;
        let k = 2;
        let trials = 60;
        let mut total = 0usize;
        for seed in 0..trials {
            let out = Pipeline::new(PipelineConfig {
                k,
                ..Default::default()
            })
            .run(&g, seed)
            .unwrap();
            assert!(out.dominating_set.is_dominating(&g));
            total += out.dominating_set.len();
        }
        let mean = total as f64 / trials as f64;
        let bound = math::theorem6_bound(k, g.max_degree()) * opt;
        assert!(mean <= bound, "mean {mean} > Theorem 6 bound {bound}");
    }

    #[test]
    fn metrics_compose() {
        let g = generators::cycle(12);
        let out = Pipeline::new(PipelineConfig::default()).run(&g, 5).unwrap();
        assert_eq!(
            out.total_messages(),
            out.fractional_metrics.messages + out.rounding_metrics.messages
        );
        assert!(out.total_bits() > 0);
        assert!(out.max_message_bits() > 0);
    }

    #[test]
    fn invalid_k_rejected() {
        let g = generators::path(4);
        assert!(Pipeline::new(PipelineConfig {
            k: 0,
            ..Default::default()
        })
        .run(&g, 0)
        .is_err());
    }
}
