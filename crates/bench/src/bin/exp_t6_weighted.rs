//! Experiment T6 (remark after Theorem 4): the weighted variant.
//!
//! Sweeps `c_max` and validates the stated ratio
//! `k(Δ+1)^{1/k}[c_max(Δ+1)]^{1/k}` against the exact weighted LP
//! optimum, and shows the benefit over the cost-blind algorithm.

use kw_core::math;
use kw_core::solver::{SolveContext, SolverRegistry};
use kw_core::weighted::run_weighted_alg2;
use kw_graph::{generators, VertexWeights};
use kw_results::render::Table;
use kw_sim::EngineConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    println!("T6 — weighted fractional dominating set: cost ratio vs stated bound\n");
    let mut rng = SmallRng::seed_from_u64(6);
    let g = generators::gnp(96, 0.07, &mut rng);
    let delta = g.max_degree();
    let k = 3u32;
    // Cost-blind contender: the plain Algorithm-2 solver via the trait
    // API; its fractional output is evaluated on each cost vector.
    let blind_solver = SolverRegistry::with_core_solvers()
        .build(&format!("alg2:k={k}"))
        .expect("registered");
    let blind_x = blind_solver
        .solve(&g, &SolveContext::seeded(0))
        .expect("alg2 runs")
        .fractional
        .expect("fractional stage");
    let mut table = Table::new([
        "c_max",
        "wLP_OPT",
        "Σc·x (weighted)",
        "ratio",
        "bound",
        "Σc·x (cost-blind)",
        "blind/weighted",
    ]);
    for c_max in [1.0f64, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] {
        let costs: Vec<f64> = (0..g.len())
            .map(|_| 1.0 + rng.gen::<f64>() * (c_max - 1.0))
            .collect();
        let w = VertexWeights::from_values(costs).expect("valid costs");
        let lp = kw_lp::domset::solve_weighted_lp_mds(&g, &w).expect("weighted LP solves");
        let run = run_weighted_alg2(&g, &w, k, EngineConfig::default()).expect("weighted runs");
        assert!(run.x.is_feasible(&g));
        let ratio = run.cost / lp.value;
        let bound = math::weighted_lp_bound(k, delta, w.c_max());
        assert!(ratio <= bound + 1e-6, "bound violated: {ratio} > {bound}");
        let blind = blind_x.weighted_objective(&w);
        table.row([
            format!("{c_max:.0}"),
            format!("{:.2}", lp.value),
            format!("{:.2}", run.cost),
            format!("{ratio:.2}"),
            format!("{bound:.1}"),
            format!("{blind:.2}"),
            format!("{:.2}", blind / run.cost),
        ]);
    }
    println!("{table}");
    println!("PASS: ratio ≤ bound for every c_max. The blind/weighted column trends above 1");
    println!("as the cost spread grows — the cost-aware activity rule increasingly pays off,");
    println!("though on easy instances the two can tie (both are feasible either way).");
}
