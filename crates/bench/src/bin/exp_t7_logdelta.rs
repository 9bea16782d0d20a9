//! Experiment T7 (remark after Theorem 6): setting `k = Θ(log Δ)` yields
//! an `O(log²Δ)` approximation in `O(log²Δ)` rounds.
//!
//! Sweeps Δ via star-of-cliques size (Δ doubles per row) with
//! `k = ⌈ln(Δ+2)⌉` and reports ratio / log²Δ and rounds / log²Δ — both
//! must stay bounded by constants for the remark to hold.
//!
//! Runs the pipeline through the `DsSolver` trait (`kw:k=K` specs),
//! with each Δ row's seed sweep persisted through a [`SweepSession`]
//! (`target/exp_t7_runs.jsonl`, or `KW_RUN_STORE`) — the Δ ladder is
//! exactly the kind of long sweep the streaming pipeline makes
//! resumable: kill it at any rung and restart to continue from there.

use kw_bench::denominators::best_denominator;
use kw_core::math;
use kw_core::solver::{ExperimentRunner, SolverRegistry};
use kw_graph::generators;
use kw_results::pipeline::SweepSession;
use kw_results::render::Table;
use kw_results::Summary;

fn main() {
    println!("T7 — k = Θ(log Δ): O(log²Δ) ratio in O(log²Δ) rounds\n");
    let registry = SolverRegistry::with_core_solvers();
    let store_path =
        std::env::var("KW_RUN_STORE").unwrap_or_else(|_| "target/exp_t7_runs.jsonl".to_string());
    let mut session = SweepSession::open(&store_path).expect("open run store");
    if session.replayed() > 0 {
        println!(
            "resuming: {} records replayed from {store_path}\n",
            session.replayed()
        );
    }
    let runner = ExperimentRunner::new();
    let (mut solved, mut cached) = (0u64, 0u64);
    let mut table = Table::new([
        "Δ",
        "n",
        "k=⌈lnΔ⌉",
        "rounds",
        "rounds/log²Δ",
        "E|DS|",
        "ratio",
        "ratio/log²Δ",
    ]);
    for exp in 3..9u32 {
        let clique = 1usize << exp;
        let g = generators::star_of_cliques(6, clique);
        let delta = g.max_degree();
        let k = math::log_delta_k(delta);
        let denom = best_denominator(&g, 0, 0); // Lemma 1 at scale
        let solver = registry.build(&format!("kw:k={k}")).expect("kw registered");
        let workloads = vec![(format!("cliques(6x{clique})"), g.clone())];
        let out = session
            .run(
                &runner,
                std::slice::from_ref(&solver),
                &workloads,
                0..8,
                |_| {},
            )
            .expect("sweep runs");
        let summary = Summary::from_records(&out.records);
        let cell = &summary.cells[0];
        assert_eq!(cell.failures, 0);
        solved += out.solved;
        cached += out.cached;
        let log2d = ((delta + 1) as f64).ln().powi(2);
        let rounds = cell.rounds.max as usize;
        let ratio = cell.size.mean / denom.value;
        table.row([
            delta.to_string(),
            g.len().to_string(),
            k.to_string(),
            rounds.to_string(),
            format!("{:.2}", rounds as f64 / log2d),
            format!("{:.1}", cell.size.mean),
            format!("{ratio:.2}"),
            format!("{:.3}", ratio / log2d),
        ]);
    }
    println!("{table}");
    println!(
        "run store: {store_path} — {solved} cells solved, {cached} served from the store/cache"
    );
    println!("PASS criteria: both normalized columns remain O(1) as Δ doubles six times —");
    println!("that constancy is the O(log²Δ)/O(log²Δ) claim of the remark after Theorem 6.");
}
