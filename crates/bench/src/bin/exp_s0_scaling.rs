//! Experiment S0 (ROADMAP item (i)): does the persistent worker pool
//! make threads actually win?
//!
//! `exp_o1_profile` attributes *where* engine time goes; this binary
//! asks the bottom-line question: wall-clock speedup of k workers over
//! the 1-thread run on the two boundary traffic shapes from
//! [`kw_bench::traffic`] — broadcast-heavy *flood* at n = 100k and
//! unicast-heavy *ping* at n = 10k, G(n, p) with average degree 16, at
//! 1/2/4/8 workers.
//!
//! Outputs:
//!
//! * a markdown speedup table on stdout and at `KW_SCALING_MD`
//!   (default `target/exp_s0_scaling.md`);
//! * one `bench` line per cell (bench `engine_scaling`, id
//!   `<protocol>/n<n>/t<threads>`, best-of-3 ms) and one `trace` line
//!   per cell appended to the run store at `KW_RUN_STORE` (default
//!   `target/exp_s0_scaling.jsonl`) — the trace lines carry the
//!   per-thread-count `total_us` the `regress` scaling gate
//!   (`kw_results::regress::gate`, fixed 20% drop budget) anchors
//!   against the 1-thread run.
//!
//! `KW_BENCH_QUICK=1` (as CI's scaling_smoke step sets) shrinks to
//! flood-only, n = 2_000, 4 rounds, threads 1/2, single repetition.
//!
//! Speedup numbers are *measurements, not assertions*: on a single-core
//! host every multi-thread cell timeshares one CPU and speedup ≤ 1 is
//! the honest reading. What the binary does assert is the determinism
//! contract — outputs and span structure hashes must be bit-identical
//! across every thread count.

use kw_bench::traffic::{Flood, Ping};
use kw_graph::generators;
use kw_results::store::{BenchRecord, RunStore, TraceRecord};
use kw_sim::{Engine, EngineConfig};
use kw_trace::{TraceSummary, Tracer};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn quick() -> bool {
    std::env::var_os("KW_BENCH_QUICK").is_some_and(|v| v != "0")
}

/// One traced engine run: the trace rollup, an output fingerprint, and
/// the wall time in milliseconds.
fn run_once(
    g: &kw_graph::CsrGraph,
    threads: usize,
    rounds: u32,
    protocol: &str,
) -> (TraceSummary, u64, f64) {
    let cfg = EngineConfig {
        threads,
        ..Default::default()
    };
    kw_trace::install(Tracer::new());
    kw_trace::with_active(|t| t.begin("solve"));
    let start = std::time::Instant::now();
    let outputs: Vec<u64> = match protocol {
        "flood" => {
            Engine::new(g, cfg, |info| Flood::new(u64::from(info.id.raw()), rounds))
                .run()
                .expect("reliable run")
                .outputs
        }
        "ping" => {
            Engine::new(g, cfg, |info| Ping::new(u64::from(info.id.raw()), rounds))
                .run()
                .expect("reliable run")
                .outputs
        }
        other => unreachable!("unknown protocol {other}"),
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut tracer = kw_trace::take().expect("tracer was installed");
    tracer.finish();
    let fingerprint = outputs.iter().fold(0u64, |a, &x| a.wrapping_add(x));
    (tracer.summarize(), fingerprint, wall_ms)
}

/// One measured cell: `(protocol, n, rounds)`.
type Cell = (&'static str, usize, u32);

fn main() {
    let (cells, thread_counts, reps): (&[Cell], &[usize], usize) = if quick() {
        (&[("flood", 2_000, 4)], &[1, 2], 1)
    } else {
        (
            &[("flood", 100_000, 10), ("ping", 10_000, 10)],
            &[1, 2, 4, 8],
            3,
        )
    };
    println!("S0 — engine thread scaling on the persistent worker pool\n");

    let store_path =
        std::env::var("KW_RUN_STORE").unwrap_or_else(|_| "target/exp_s0_scaling.jsonl".to_string());
    let store = RunStore::open(&store_path).expect("open run store");

    let mut md = String::new();
    md.push_str(
        "# S0 — engine thread scaling\n\n\
         Best-of-N wall times and speedups vs the 1-thread run on the\n\
         persistent worker pool (degree-weighted chunks, per-chunk\n\
         delivery). Speedups are measurements, not assertions: on a\n\
         single-core host they sit at or below 1.0 by construction.\n\n\
         | protocol | n | threads | best ms | speedup vs 1t | barrier share |\n\
         |---|---:|---:|---:|---:|---:|\n",
    );

    for &(protocol, n, rounds) in cells {
        let mut rng = SmallRng::seed_from_u64(42);
        let g = generators::gnp(n, 16.0 / n as f64, &mut rng);
        let workload = format!("gnp:n={n},deg=16");
        let mut hashes = Vec::new();
        let mut fingerprints = Vec::new();
        let mut base_ms = None;
        for &threads in thread_counts {
            let mut best: Option<(TraceSummary, u64, f64)> = None;
            for _ in 0..reps {
                let run = run_once(&g, threads, rounds, protocol);
                if best.as_ref().is_none_or(|b| run.2 < b.2) {
                    best = Some(run);
                }
            }
            let (summary, fingerprint, best_ms) = best.expect("reps >= 1");
            hashes.push(summary.structure_hash);
            fingerprints.push(fingerprint);
            if threads == 1 {
                base_ms = Some(best_ms);
            }
            let speedup = base_ms.map_or(f64::NAN, |b| b / best_ms);
            md.push_str(&format!(
                "| {protocol} | {n} | {threads} | {best_ms:.2} | {speedup:.2}x | {:.0}% |\n",
                100.0 * summary.phase_share("barrier"),
            ));
            store
                .append_bench(&BenchRecord {
                    bench: "engine_scaling".to_string(),
                    id: format!("{protocol}/n{n}/t{threads}"),
                    best_ms,
                })
                .expect("append bench line");
            store
                .append_trace(&TraceRecord {
                    solver: format!("engine:{protocol}"),
                    workload: workload.clone(),
                    seed: 42,
                    chaos: String::new(),
                    summary,
                })
                .expect("append trace line");
        }
        // Determinism contract: results and structure are thread-invariant.
        assert!(
            hashes.windows(2).all(|w| w[0] == w[1]),
            "{protocol}: structure hash varies across thread counts: {hashes:x?}"
        );
        assert!(
            fingerprints.windows(2).all(|w| w[0] == w[1]),
            "{protocol}: outputs vary across thread counts"
        );
    }

    println!("{md}");
    let md_path =
        std::env::var("KW_SCALING_MD").unwrap_or_else(|_| "target/exp_s0_scaling.md".to_string());
    std::fs::write(&md_path, &md).expect("write markdown report");
    println!("speedup table -> {md_path}");
    println!("bench + trace lines -> {store_path}");
}
