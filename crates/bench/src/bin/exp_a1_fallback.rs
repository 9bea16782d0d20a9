//! Ablation A1: Algorithm 1 *without* the deterministic fallback
//! (lines 5–6).
//!
//! The random draw alone leaves each node uncovered with probability up to
//! `1/(δ⁽¹⁾+1)` (the paper's `q_i` bound in Theorem 3's proof). This
//! ablation measures how often coverage actually fails without the
//! fallback — demonstrating both why lines 5–6 exist and that the
//! measured failure mass matches the `E[Y] ≤ Σ 1/(δ⁽¹⁾+1)` accounting.

use kw_bench::workloads::small_suite;
use kw_core::rounding::{run_rounding, RoundingConfig};
use kw_results::render::Table;
use kw_results::Percentiles;
use kw_sim::EngineConfig;

fn main() {
    println!("A1 — rounding without the fallback (lines 5–6): coverage failures\n");
    let trials = 200u64;
    let mut table = Table::new([
        "workload",
        "E[uncovered]",
        "bound Σ1/(δ¹+1)",
        "P(any uncovered)",
        "E|DS| no-fb",
        "E|DS| with-fb",
    ]);
    for w in small_suite() {
        let g = w.build(1);
        let lp = kw_lp::domset::solve_lp_mds(&g).expect("LP solvable");
        let no_fb = RoundingConfig {
            skip_fallback: true,
            ..Default::default()
        };
        let with_fb = RoundingConfig::default();
        let mut uncovered = Vec::new();
        let mut failures = 0u64;
        let mut sizes_no = Vec::new();
        let mut sizes_with = Vec::new();
        for seed in 0..trials {
            let a = run_rounding(&g, &lp.x, no_fb, EngineConfig::seeded(seed)).expect("runs");
            let miss = a.set.undominated(&g).len();
            uncovered.push(miss as f64);
            failures += u64::from(miss > 0);
            sizes_no.push(a.set.len() as f64);
            let b = run_rounding(&g, &lp.x, with_fb, EngineConfig::seeded(seed)).expect("runs");
            assert!(b.set.is_dominating(&g));
            sizes_with.push(b.set.len() as f64);
        }
        // E[Y] bound from Theorem 3's proof: Σ 1/(δ⁽¹⁾+1) — Lemma 1's value.
        let ey_bound = kw_lp::bounds::lemma1_bound(&g);
        let mean_uncovered = Percentiles::from_samples(&uncovered).mean;
        // Unbiased sample standard deviation of the uncovered counts.
        let sd_uncovered = (uncovered
            .iter()
            .map(|x| (x - mean_uncovered).powi(2))
            .sum::<f64>()
            / (trials - 1) as f64)
            .sqrt();
        table.row([
            w.label(),
            format!("{mean_uncovered:.2}"),
            format!("{ey_bound:.2}"),
            format!("{:.2}", failures as f64 / trials as f64),
            format!("{:.1}", Percentiles::from_samples(&sizes_no).mean),
            format!("{:.1}", Percentiles::from_samples(&sizes_with).mean),
        ]);
        assert!(
            mean_uncovered <= ey_bound + 3.0 * sd_uncovered,
            "uncovered mass exceeds the q_i accounting"
        );
    }
    println!("{table}");
    println!("Findings: without lines 5–6 coverage fails in a constant fraction of runs");
    println!("(P(any uncovered) ≫ 0), while E[uncovered] ≤ Σ1/(δ¹+1) matches the E[Y] term");
    println!("of Theorem 3's proof — the fallback converts exactly that mass into members.");
    println!("Degenerate cases are starkest: an isolated node has p = x·ln(0+1) = 0 and is");
    println!("*never* drawn — only the fallback covers it (the udg row's permanent miss).");
}
