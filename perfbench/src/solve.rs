//! The solve workloads (`solve-100k`, `solve-1k`), and the per-layer
//! probe of one solve that the serve workload shares.

use std::time::Instant;

use kw_bench::workloads::Workload;
use kw_core::alg3::run_alg3;
use kw_core::math::alg3_rounds;
use kw_core::rounding::{run_rounding_with_delta2, RoundingConfig};
use kw_core::solver::{traced_solve, DsSolver, SolveContext, SolveReport, SolverRegistry};
use kw_graph::CsrGraph;
use kw_sim::EngineConfig;
use kw_trace::TraceSummary;

use crate::stats::{
    derive, graph_mb, median, percentile, rss_mb, window_count, window_rates, Fnv, Spans,
};
use crate::{write_spans, Args, Report};

/// The solver every workload runs: the paper's pipeline at `k = 3`.
pub const SOLVER: &str = "kw:k=3";
/// Its `k`.
pub const K: u32 = 3;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

const TAG_GRAPH: u64 = 1;
const TAG_SOLVE: u64 = 2;
const TAG_ROUNDING: u64 = 3;

/// One solve workload: `graphs` graphs from `G(n, p)`, solved in turn
/// with fresh seeds on `threads` engine threads.
pub struct SolveWorkload {
    pub n: usize,
    pub p: f64,
    pub graphs: u64,
    pub threads: usize,
    /// Thread count of the reference outputs set-up computes for each
    /// graph's first solve, which the timed outputs must equal; `None`
    /// skips the thread check.
    pub reference_threads: Option<usize>,
}

/// ROADMAP's unit of truth: the engine at scale, pool bypassed.
pub const SOLVE_100K: SolveWorkload = SolveWorkload {
    n: 100_000,
    p: 16.0 / 100_000.0,
    graphs: 4,
    threads: 1,
    reference_threads: None,
};

/// Small solves, where per-solve fixed costs show. The timed solves run
/// on 1 thread: on a 2-core host, 2-thread solve times spread about three
/// times as much from run to run. The 2-thread path runs in set-up, as
/// the reference outputs.
pub const SOLVE_1K: SolveWorkload = SolveWorkload {
    n: 1000,
    p: 0.016,
    graphs: 64,
    threads: 1,
    reference_threads: Some(2),
};

/// The context of one measured solve: certificates on, as in sweeps and
/// the daemon.
pub fn context(seed: u64, threads: usize) -> SolveContext {
    SolveContext {
        threads,
        check_certificates: true,
        ..SolveContext::seeded(seed)
    }
}

pub fn build_solver() -> Box<dyn DsSolver> {
    SolverRegistry::with_core_solvers()
        .build(SOLVER)
        .expect("kw:k=3 is a registered solver spec")
}

/// Checks one solve's output: it dominates, its fractional stage is
/// LP-feasible, and it ran Algorithm 3's `4k²+2k` rounds plus 2 rounding
/// rounds.
pub fn check_report(r: &SolveReport) -> Result<(), String> {
    let cert = r.certificate.as_ref().ok_or("no certificate")?;
    if !cert.dominates {
        return Err("output does not dominate".into());
    }
    if cert.fractional_feasible != Some(true) {
        return Err(format!(
            "fractional stage not LP-feasible ({:?})",
            cert.fractional_feasible
        ));
    }
    let want = alg3_rounds(K) + 2;
    if r.rounds() != want {
        return Err(format!("{} rounds, want {want}", r.rounds()));
    }
    Ok(())
}

/// Per-solve engine counters from `traced_solve`'s `TraceSummary`, one
/// entry per traced solve.
#[derive(Default)]
pub struct EngineLayers {
    compute_ms: Vec<f64>,
    deliver_ms: Vec<f64>,
    plan_ms: Vec<f64>,
    send_ms: Vec<f64>,
    barrier_ms: Vec<f64>,
    rounds: Vec<f64>,
    messages: Vec<f64>,
    bits: Vec<f64>,
    arena_peak: Vec<f64>,
    wakeups: Vec<f64>,
    idle: Vec<f64>,
    imbalance: Vec<f64>,
}

impl EngineLayers {
    fn push(&mut self, s: &TraceSummary, r: &SolveReport) {
        let ms = |label: &str| s.phase_total(label) as f64 / 1e3;
        self.compute_ms.push(ms("compute"));
        self.deliver_ms.push(ms("deliver"));
        self.plan_ms.push(ms("plan"));
        self.send_ms.push(ms("send"));
        self.barrier_ms.push(s.barrier_us as f64 / 1e3);
        self.rounds.push(s.rounds as f64);
        self.messages.push(r.metrics.messages as f64);
        self.bits.push(r.metrics.bits as f64);
        let arena = s.samples.iter().map(|x| x.arena_bytes).max().unwrap_or(0);
        self.arena_peak.push(arena as f64);
        self.wakeups.push(s.pool_wakeups as f64);
        self.idle.push(s.pool_idle as f64);
        self.imbalance.push(s.imbalance);
    }
}

/// Measures one solve of `(g, seed)` three ways, each inside its own
/// span: the plain `DsSolver::solve` (`solve`), `traced_solve` with the
/// span plane on (`solve.traced`, for the engine phases), and the
/// pipeline's stages called one by one (`solve.staged` over
/// `core.fractional`, `core.rounding`, `core.certificate`). The three
/// take turns going first, since the first finds the graph coldest in
/// cache. Returns the plain solve's report and its time in milliseconds.
#[allow(clippy::too_many_arguments)]
pub fn probe(
    spans: &mut Spans,
    layers: &mut EngineLayers,
    solver: &dyn DsSolver,
    g: &CsrGraph,
    seed: u64,
    threads: usize,
    turn: u64,
    report: &mut Report,
) -> Option<(SolveReport, f64)> {
    let ctx = context(seed, threads);
    let traced_ctx = SolveContext {
        trace: true,
        ..ctx.clone()
    };
    let mut plain = None;
    let mut traced = None;
    for k in 0..3 {
        match (turn + k) % 3 {
            0 => {
                let id = spans.begin("solve", 0);
                let r = solver.solve(g, &ctx);
                plain = Some((r, spans.end(id) / 1e3));
            }
            1 => {
                let id = spans.begin("solve.traced", 0);
                let r = traced_solve(solver, g, &traced_ctx);
                spans.end(id);
                traced = Some(r);
            }
            _ => {
                if let Err(e) = staged(spans, g, seed, threads) {
                    report.problem(format!("staged solve (seed {seed}): {e}"));
                }
            }
        }
    }
    let (plain, plain_ms) = plain.expect("the plain solve ran");
    let plain = match plain.map_err(|e| e.to_string()).and_then(|r| {
        check_report(&r)?;
        Ok(r)
    }) {
        Ok(r) => r,
        Err(e) => {
            report.problem(format!("solve (seed {seed}): {e}"));
            return None;
        }
    };
    match traced.expect("the traced solve ran") {
        Ok(r) => match &r.trace {
            Some(summary) => {
                if summary.rounds != (alg3_rounds(K) + 2) as u64 {
                    report.problem(format!(
                        "traced solve (seed {seed}) recorded {} rounds",
                        summary.rounds
                    ));
                }
                if r.dominating_set != plain.dominating_set {
                    report.problem(format!("traced solve (seed {seed}) changed the output"));
                }
                layers.push(summary, &r);
            }
            None => report.problem(format!("traced solve (seed {seed}) has no trace")),
        },
        Err(e) => report.problem(format!("traced solve (seed {seed}) failed: {e}")),
    }
    Some((plain, plain_ms))
}

/// The pipeline's stages called one by one, each in its own span.
fn staged(spans: &mut Spans, g: &CsrGraph, seed: u64, threads: usize) -> Result<(), String> {
    let root = spans.begin("solve.staged", 0);
    let engine = |seed| EngineConfig {
        seed,
        threads,
        ..EngineConfig::default()
    };
    let id = spans.begin("core.fractional", root);
    let fractional = run_alg3(g, K, engine(seed)).map_err(|e| e.to_string())?;
    spans.end(id);
    let id = spans.begin("core.rounding", root);
    let rounding = run_rounding_with_delta2(
        g,
        &fractional.x,
        &fractional.delta2,
        RoundingConfig::default(),
        engine(derive(seed, TAG_ROUNDING, 0)),
    )
    .map_err(|e| e.to_string())?;
    spans.end(id);
    let id = spans.begin("core.certificate", root);
    let dominates = rounding.set.is_dominating(g);
    let lemma1 = kw_lp::bounds::lemma1_bound(g);
    let feasible = fractional.x.is_feasible(g);
    spans.end(id);
    spans.end(root);
    let rounds = fractional.metrics.rounds + rounding.metrics.rounds;
    if !dominates || !feasible || lemma1 <= 0.0 || rounds != alg3_rounds(K) + 2 {
        return Err(format!(
            "dominates={dominates} feasible={feasible} lemma1={lemma1} rounds={rounds}"
        ));
    }
    Ok(())
}

/// Reports the core, engine and tracing layers measured by [`probe`].
pub fn report_layers(spans: &Spans, layers: &EngineLayers, report: &mut Report) {
    let n = spans.durations_ms("solve").len();
    let solve = spans.median_ms("solve");
    let fractional = spans.median_ms("core.fractional");
    let rounding = spans.median_ms("core.rounding");
    let certificate = spans.median_ms("core.certificate");
    report.metric("core.fractional_ms", fractional, n);
    report.metric("core.rounding_ms", rounding, n);
    report.metric("core.certificate_ms", certificate, n);
    report.metric(
        "core.solve_self_ms",
        solve - fractional - rounding - certificate,
        n,
    );
    let t = layers.compute_ms.len();
    report.metric("sim.compute_ms", median(&layers.compute_ms), t);
    report.metric("sim.deliver_ms", median(&layers.deliver_ms), t);
    report.metric("sim.plan_ms", median(&layers.plan_ms), t);
    report.metric("sim.send_ms", median(&layers.send_ms), t);
    report.metric("sim.barrier_ms", median(&layers.barrier_ms), t);
    report.metric("sim.rounds", median(&layers.rounds), t);
    report.metric("sim.messages", median(&layers.messages), t);
    report.metric("sim.bits", median(&layers.bits), t);
    report.metric("sim.arena_peak_bytes", median(&layers.arena_peak), t);
    report.metric("sim.pool_wakeups", median(&layers.wakeups), t);
    report.metric("sim.pool_idle", median(&layers.idle), t);
    report.metric("sim.imbalance", median(&layers.imbalance), t);
    let traced = spans.median_ms("solve.traced");
    report.metric("trace.overhead_pct", 100.0 * (traced / solve - 1.0), n);
}

/// Prints a latency distribution's median and tails with sample counts.
pub fn print_latency(name: &str, ms: &[f64]) {
    println!(
        "latency {name}: p50={:.4} p95={:.4} p99={:.4} max={:.4} ms (n={})",
        median(ms),
        percentile(ms, 95.0),
        percentile(ms, 99.0),
        percentile(ms, 100.0),
        ms.len()
    );
}

/// The set-up of one run, done [`SETUP_REPEATS`] times: the workload's
/// graph set and, when the workload has a thread check, the reference
/// output of each graph's first solve on `reference_threads` threads.
/// Returns the last graph set, its references, and the median set-up
/// time in seconds.
fn set_up(
    w: &SolveWorkload,
    args: &Args,
    solver: &dyn DsSolver,
    spans: &mut Spans,
    report: &mut Report,
) -> (Vec<CsrGraph>, Vec<SolveReport>, f64) {
    let family = Workload::Gnp { n: w.n, p: w.p };
    let mut times = Vec::new();
    let mut ref_ms = Vec::new();
    let mut graphs = Vec::new();
    let mut refs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        // Free the previous set first, so every set-up starts from the
        // same heap and the peak holds one set.
        graphs.clear();
        refs.clear();
        let start = Instant::now();
        graphs.extend((0..w.graphs).map(|i| {
            let id = spans.begin("graph.build", 0);
            let g = family.build(derive(args.seed, TAG_GRAPH, i));
            spans.end(id);
            g
        }));
        if let Some(threads) = w.reference_threads {
            for (i, g) in graphs.iter().enumerate() {
                let seed = derive(args.seed, TAG_SOLVE, i as u64);
                let t = Instant::now();
                match solver.solve(g, &context(seed, threads)) {
                    Ok(reference) => refs.push(reference),
                    Err(e) => {
                        report.problem(format!("{threads}-thread reference solve {i}: {e}"));
                        break;
                    }
                }
                ref_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        times.push(start.elapsed().as_secs_f64());
    }
    println!(
        "setup: {} x {} built {SETUP_REPEATS} times: {times:?} s",
        w.graphs,
        family.label(),
    );
    if let Some(threads) = w.reference_threads {
        print_latency(&format!("{threads}-thread reference solve"), &ref_ms);
    }
    (graphs, refs, median(&times))
}

/// Whether two solves of one `(graph, seed)` produced the same output.
fn same_output(a: &SolveReport, b: &SolveReport) -> bool {
    a.dominating_set == b.dominating_set
        && a.fractional.as_ref().map(|x| x.values()) == b.fractional.as_ref().map(|x| x.values())
        && a.metrics.messages == b.metrics.messages
        && a.metrics.bits == b.metrics.bits
}

pub fn run(w: &SolveWorkload, args: &Args, report: &mut Report) {
    println!(
        "input: {} graphs G(n={}, p={}), {SOLVER}, {} engine thread(s), certificates on",
        w.graphs, w.n, w.p, w.threads
    );
    let mut spans = Spans::new(args.trace);
    let solver = build_solver();
    let (graphs, refs, setup_s) = set_up(w, args, &*solver, &mut spans, report);
    let mut fp = Fnv::new();
    for g in &graphs {
        fp.graph(g);
    }
    for i in 0..1000 {
        fp.u64(derive(args.seed, TAG_SOLVE, i));
    }
    println!("input fingerprint: {:016x}", fp.finish());

    let mut layers = EngineLayers::default();
    let mut thread_checks = 0;
    let mut latencies = Vec::new();
    let mut completions = Vec::new();
    let rss_before = rss_mb().0;
    let start = Instant::now();
    let mut i = 0u64;
    while i == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let g = &graphs[(i % w.graphs) as usize];
        let seed = derive(args.seed, TAG_SOLVE, i);
        report.attempted += 1;
        let solved = if args.trace {
            probe(
                &mut spans,
                &mut layers,
                &*solver,
                g,
                seed,
                w.threads,
                i,
                report,
            )
        } else {
            let t = Instant::now();
            let r = solver.solve(g, &context(seed, w.threads));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match r.map_err(|e| e.to_string()).and_then(|r| {
                check_report(&r)?;
                Ok(r)
            }) {
                Ok(r) => Some((r, ms)),
                Err(e) => {
                    report.problem(format!("solve {i} (seed {seed}): {e}"));
                    None
                }
            }
        };
        completions.push(start.elapsed().as_secs_f64());
        match solved {
            Some((r, ms)) => {
                latencies.push(ms);
                // Outputs must not depend on the thread count.
                if let Some(reference) = refs.get(i as usize) {
                    thread_checks += 1;
                    if !same_output(reference, &r) {
                        report.failed += 1;
                        report.problem(format!(
                            "solve {i} (seed {seed}): output differs from its reference \
                             on another thread count"
                        ));
                    }
                }
            }
            None => report.failed += 1,
        }
        i += 1;
    }
    let hwm = rss_mb().1;
    println!(
        "measured: {} solves in {:.3} s",
        latencies.len(),
        start.elapsed().as_secs_f64()
    );

    if thread_checks > 0 {
        println!(
            "thread check: {thread_checks} {}-thread outputs compared with their {}-thread references",
            w.threads,
            w.reference_threads.unwrap_or(w.threads)
        );
    }

    print_latency("solve", &latencies);
    if args.trace {
        report.metric(
            "graph.build_ms",
            spans.median_ms("graph.build"),
            spans.durations_ms("graph.build").len(),
        );
        report_layers(&spans, &layers, report);
        let held: f64 = graphs.iter().map(graph_mb).sum();
        report.metric("mem.graph_mb", held, graphs.len());
        report.metric("mem.solve_peak_mb", hwm - rss_before, 1);
        report.bypass("serve.");
        report.bypass("results.");
        let n = latencies.len();
        report.metric("tail.solve_ms_p95", percentile(&latencies, 95.0), n);
        report.metric("tail.solve_ms_p99", percentile(&latencies, 99.0), n);
        report.metric("tail.call_ms_p95", percentile(&latencies, 95.0), n);
        report.metric("tail.call_ms_p99", percentile(&latencies, 99.0), n);
        write_spans(&spans, args, report);
    } else {
        let n = latencies.len();
        let rates = window_rates(&completions, window_count(completions.len()));
        report.metric("setup_s", setup_s, SETUP_REPEATS);
        report.metric("solve_ms_p50", median(&latencies), n);
        // Every call of a solve workload is one solve.
        report.metric("call_ms_p50", median(&latencies), n);
        report.metric("calls_per_s", median(&rates), rates.len());
        report.metric("peak_rss_mb", hwm, 1);
    }
}
