//! Experiment T4 (Theorem 3 + remark): randomized rounding quality.
//!
//! Rounds the *exact* LP optimum (α = 1) with both multipliers over many
//! seeds. Claims: `E|DS| ≤ (1 + ln(Δ+1))·|DS_OPT|` for the plain
//! multiplier and `≤ 2(ln(Δ+1) − ln ln(Δ+1))·|DS_OPT|` for the
//! alternative.

use kw_bench::denominators::best_denominator;
use kw_bench::workloads::small_suite;
use kw_core::math;
use kw_core::rounding::{run_rounding, Multiplier, RoundingConfig};
use kw_results::render::Table;
use kw_results::Percentiles;
use kw_sim::EngineConfig;

fn main() {
    println!("T4 — Theorem 3: rounding the exact LP optimum (α = 1), 200 seeds\n");
    let trials = 200u64;
    let mut table = Table::new([
        "workload",
        "Δ",
        "denom",
        "mult",
        "E|DS|",
        "E|DS|/denom",
        "bound",
        "fallback%",
    ]);
    for w in small_suite() {
        let g = w.build(1);
        let lp = kw_lp::domset::solve_lp_mds(&g).expect("LP solvable at suite sizes");
        let denom = best_denominator(&g, 72, 400);
        for (mult, name) in [(Multiplier::Ln, "ln"), (Multiplier::LnMinusLnLn, "ln-lnln")] {
            let config = RoundingConfig {
                multiplier: mult,
                ..Default::default()
            };
            let mut sizes = Vec::new();
            let mut fallbacks = 0u64;
            for seed in 0..trials {
                let run = run_rounding(&g, &lp.x, config, EngineConfig::seeded(seed))
                    .expect("rounding runs");
                assert!(run.set.is_dominating(&g), "fallback guarantees domination");
                sizes.push(run.set.len() as f64);
                fallbacks += run.fallback_members.iter().filter(|&&b| b).count() as u64;
            }
            let mean = Percentiles::from_samples(&sizes).mean;
            let bound = match mult {
                Multiplier::Ln => math::rounding_bound(1.0, g.max_degree()),
                Multiplier::LnMinusLnLn => math::rounding_bound_alt(1.0, g.max_degree()),
            };
            table.row([
                w.label(),
                g.max_degree().to_string(),
                denom.kind.label().to_string(),
                name.to_string(),
                format!("{mean:.1}"),
                format!("{:.2}", mean / denom.value),
                format!("{bound:.2}"),
                format!(
                    "{:.1}",
                    100.0 * fallbacks as f64 / (trials as f64 * g.len() as f64)
                ),
            ]);
        }
    }
    println!("{table}");
    println!("PASS criteria: E|DS|/OPT ≤ bound for every row (w.h.p. given 200 seeds). Rows");
    println!("whose denom is LP_OPT overstate the true OPT-relative ratio by the integrality");
    println!("gap (see T8) — e.g. the grid row sits ≈7% above its LP-relative value.");
    println!("The ln−lnln multiplier trades a smaller sampling term for more fallback joins.");
}
