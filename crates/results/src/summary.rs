//! Rollups of run records: per-cell and per-solver statistics with
//! mean/p50/p95, rendered to markdown or CSV.
//!
//! A [`Summary`] is built from [`RunRecord`]s — the records a sweep
//! returns or persisted ones loaded from a [`RunStore`] — and aggregates
//! each `(workload, chaos, solver, threads)` cell over its seeds, plus
//! each solver over all its cells. This is the workspace's one rollup,
//! and [`Percentiles`] (ranked by [`nearest_rank`]) its one statistic.
//! Quality statistics (size, rounds, messages, bits, ratio-vs-Lemma-1)
//! exclude non-dominating runs, which are counted as `failures` instead;
//! wall-time statistics include every run (cost is cost, dominated or
//! not).
//!
//! [`RunStore`]: crate::store::RunStore

use std::fmt::Write as _;

use kw_core::solver::RunRecord;

use crate::render::Table;

/// Nearest-rank percentile rank, computed exactly in integers: the P-th
/// percentile of `n` samples is the `ceil(P·n/100)`-th order statistic,
/// returned here as a **1-based rank** clamped to at least 1 (so for
/// n = 1 every percentile is the sole sample). Returns 0 when `n` is 0 —
/// no samples, no rank. The earlier float formulation
/// (`(q * n as f64).ceil()`) was correct for small n but hinged on
/// `0.95 * n` rounding to the right side of an integer; integer
/// arithmetic removes that hazard for every n.
///
/// This is the *single* percentile definition of the workspace: both
/// [`Percentiles::from_samples`] and the serving daemon's latency
/// histogram (`kw_serve`) rank through this function, so a p99 in a
/// summary table and a p99 on `/metrics` mean exactly the same thing.
pub fn nearest_rank(percent: usize, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    (percent * n).div_ceil(100).max(1)
}

/// Order statistics of one sample set (nearest-rank percentiles).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Percentiles {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0 when empty), summed in input order — feed
    /// samples in seed order and the mean is reproducible bit for bit.
    pub mean: f64,
    /// Median (0 when empty).
    pub p50: f64,
    /// 95th percentile (0 when empty).
    pub p95: f64,
    /// 99th percentile (0 when empty).
    pub p99: f64,
    /// Minimum (0 when empty).
    pub min: f64,
    /// Maximum (0 when empty).
    pub max: f64,
}

impl Percentiles {
    /// Summarizes `samples`.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are comparable"));
        let rank = |percent: usize| -> f64 { sorted[nearest_rank(percent, sorted.len()) - 1] };
        Percentiles {
            count: sorted.len(),
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            p50: rank(50),
            p95: rank(95),
            p99: rank(99),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }
}

/// One `(solver, workload, chaos, threads)` cell aggregated over seeds.
#[derive(Clone, Debug)]
pub struct CellRollup {
    /// Canonical solver spec.
    pub solver: String,
    /// Workload label.
    pub workload: String,
    /// Canonical chaos spec the cell ran under (`""` = reliable). Part
    /// of the cell key: the same `(solver, workload)` under different
    /// chaos plans rolls up as separate cells.
    pub chaos: String,
    /// Engine worker threads the runs used. Part of the cell key:
    /// outcomes are thread-invariant but `wall_ms` is not, so runs at
    /// different thread counts roll up (and gate) as separate cells.
    pub threads: usize,
    /// Node count of the workload graph.
    pub n: usize,
    /// Maximum degree `Δ` of the workload graph.
    pub max_degree: usize,
    /// Seeds aggregated.
    pub runs: usize,
    /// Runs whose output failed to dominate.
    pub failures: usize,
    /// Dominating-set sizes.
    pub size: Percentiles,
    /// Synchronous rounds.
    pub rounds: Percentiles,
    /// Total messages.
    pub messages: Percentiles,
    /// Total payload bits.
    pub bits: Percentiles,
    /// Set size over the Lemma-1 lower bound.
    pub ratio_vs_lemma1: Percentiles,
    /// Wall-clock solve time, ms (includes failed runs).
    pub wall_ms: Percentiles,
}

impl CellRollup {
    /// The workload as tables show it (chaos has its own column).
    pub(crate) fn workload_label(&self) -> String {
        cell_label(&self.workload, "", self.threads)
    }
}

/// The one label of a `(workload, chaos, threads)` cell, as tables and
/// regression findings show it: `workload[@Nt][ (chaos:spec)]`, with
/// `@Nt` only when the cell ran at `N ≠ 1` engine threads (so 1-thread
/// labels read as they always have) and the chaos suffix only for a
/// non-reliable spec.
pub(crate) fn cell_label(workload: &str, chaos: &str, threads: usize) -> String {
    let mut label = workload.to_string();
    if threads != 1 {
        let _ = write!(label, "@{threads}t");
    }
    if !chaos.is_empty() {
        let _ = write!(label, " (chaos:{chaos})");
    }
    label
}

/// One solver aggregated over every workload and seed it ran.
#[derive(Clone, Debug)]
pub struct SolverRollup {
    /// Canonical solver spec.
    pub solver: String,
    /// Total runs across workloads.
    pub runs: usize,
    /// Total non-dominating runs.
    pub failures: usize,
    /// Dominating-set sizes, pooled across workloads.
    pub size: Percentiles,
    /// Ratio-vs-Lemma-1, pooled across workloads (the comparable
    /// quality number between solvers).
    pub ratio_vs_lemma1: Percentiles,
    /// Rounds, pooled across workloads.
    pub rounds: Percentiles,
    /// Wall-clock time, ms, pooled across workloads.
    pub wall_ms: Percentiles,
}

/// Per-cell and per-solver rollups of a set of run records.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Cells, sorted by `(workload, chaos, solver, threads)` (the classic
    /// table order, with chaos variants of a workload grouped together).
    pub cells: Vec<CellRollup>,
    /// Solvers, sorted by spec.
    pub solvers: Vec<SolverRollup>,
}

impl Summary {
    /// Aggregates `records`. Order-insensitive: any permutation of the
    /// same records yields the identical summary.
    pub fn from_records(records: &[RunRecord]) -> Self {
        #[derive(Default)]
        struct Acc {
            n: usize,
            max_degree: usize,
            runs: usize,
            failures: usize,
            size: Vec<f64>,
            rounds: Vec<f64>,
            messages: Vec<f64>,
            bits: Vec<f64>,
            ratio: Vec<f64>,
            wall: Vec<f64>,
        }
        impl Acc {
            fn push(&mut self, r: &RunRecord) {
                self.n = r.n;
                self.max_degree = r.max_degree;
                self.runs += 1;
                self.wall.push(r.outcome.wall_ms);
                if !r.outcome.dominates {
                    self.failures += 1;
                    return;
                }
                self.size.push(r.outcome.size);
                self.rounds.push(r.outcome.rounds);
                self.messages.push(r.outcome.messages);
                self.bits.push(r.outcome.bits);
                self.ratio.push(r.outcome.ratio_vs_lemma1);
            }
        }
        let mut cells: std::collections::BTreeMap<(String, String, String, usize), Acc> =
            Default::default();
        let mut solvers: std::collections::BTreeMap<String, Acc> = Default::default();
        // Seeds sort runs deterministically inside each accumulator, so
        // percentile input order never depends on worker scheduling.
        let mut sorted: Vec<&RunRecord> = records.iter().collect();
        sorted.sort_by(|a, b| {
            (&a.solver, &a.workload, &a.chaos, a.threads, a.seed).cmp(&(
                &b.solver,
                &b.workload,
                &b.chaos,
                b.threads,
                b.seed,
            ))
        });
        for r in sorted {
            cells
                .entry((
                    r.workload.clone(),
                    r.chaos.clone(),
                    r.solver.clone(),
                    r.threads,
                ))
                .or_default()
                .push(r);
            solvers.entry(r.solver.clone()).or_default().push(r);
        }
        Summary {
            cells: cells
                .into_iter()
                .map(|((workload, chaos, solver, threads), acc)| CellRollup {
                    solver,
                    workload,
                    chaos,
                    threads,
                    n: acc.n,
                    max_degree: acc.max_degree,
                    runs: acc.runs,
                    failures: acc.failures,
                    size: Percentiles::from_samples(&acc.size),
                    rounds: Percentiles::from_samples(&acc.rounds),
                    messages: Percentiles::from_samples(&acc.messages),
                    bits: Percentiles::from_samples(&acc.bits),
                    ratio_vs_lemma1: Percentiles::from_samples(&acc.ratio),
                    wall_ms: Percentiles::from_samples(&acc.wall),
                })
                .collect(),
            solvers: solvers
                .into_iter()
                .map(|(solver, acc)| SolverRollup {
                    solver,
                    runs: acc.runs,
                    failures: acc.failures,
                    size: Percentiles::from_samples(&acc.size),
                    ratio_vs_lemma1: Percentiles::from_samples(&acc.ratio),
                    rounds: Percentiles::from_samples(&acc.rounds),
                    wall_ms: Percentiles::from_samples(&acc.wall),
                })
                .collect(),
        }
    }

    /// Looks one cell up by solver and workload (first match across
    /// chaos variants and thread counts; summaries of reliable 1-thread
    /// sweeps have exactly one).
    pub fn cell(&self, solver: &str, workload: &str) -> Option<&CellRollup> {
        self.cells
            .iter()
            .find(|c| c.solver == solver && c.workload == workload)
    }

    /// Looks one cell up under a specific canonical chaos spec (`""` =
    /// reliable) and engine thread count.
    pub fn cell_under(
        &self,
        solver: &str,
        workload: &str,
        chaos: &str,
        threads: usize,
    ) -> Option<&CellRollup> {
        self.cells.iter().find(|c| {
            c.solver == solver && c.workload == workload && c.chaos == chaos && c.threads == threads
        })
    }

    /// Renders the per-cell table as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "| workload | n | Δ | solver | chaos | runs | fail | E\\|DS\\| | p50 | p95 | p99 | ratio | rounds | msgs(p50) | wall ms |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n");
        for c in &self.cells {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {:.1} | {:.0} | {:.0} | {:.0} | {:.2} | {:.0} | {:.0} | {:.2} |",
                c.workload_label(),
                c.n,
                c.max_degree,
                c.solver,
                if c.chaos.is_empty() { "-" } else { &c.chaos },
                c.runs,
                c.failures,
                c.size.mean,
                c.size.p50,
                c.size.p95,
                c.size.p99,
                c.ratio_vs_lemma1.mean,
                c.rounds.p50,
                c.messages.p50,
                c.wall_ms.mean,
            );
        }
        out
    }

    /// Renders the per-cell statistics as CSV (full precision; one row
    /// per cell).
    pub fn to_csv(&self) -> String {
        let mut t = Table::new([
            "workload",
            "n",
            "max_degree",
            "solver",
            "chaos",
            "runs",
            "failures",
            "size_mean",
            "size_p50",
            "size_p95",
            "size_p99",
            "ratio_mean",
            "rounds_p50",
            "messages_p50",
            "bits_p50",
            "wall_ms_mean",
            "wall_ms_p99",
        ]);
        for c in &self.cells {
            t.row([
                c.workload_label(),
                c.n.to_string(),
                c.max_degree.to_string(),
                c.solver.clone(),
                c.chaos.clone(),
                c.runs.to_string(),
                c.failures.to_string(),
                c.size.mean.to_string(),
                c.size.p50.to_string(),
                c.size.p95.to_string(),
                c.size.p99.to_string(),
                c.ratio_vs_lemma1.mean.to_string(),
                c.rounds.p50.to_string(),
                c.messages.p50.to_string(),
                c.bits.p50.to_string(),
                c.wall_ms.mean.to_string(),
                c.wall_ms.p99.to_string(),
            ]);
        }
        t.to_csv()
    }
}

/// Where-does-time-go rollup over a store's trace lines: one row per
/// `(solver, workload, chaos, threads)` key, keeping the latest trace
/// for each (re-profiles append, the newest is the current state).
///
/// The row reports each engine phase's share of total phase time, the
/// fork/join barrier share, and the worker imbalance ratio — the three
/// numbers that answer "is this workload compute-bound, delivery-bound,
/// or coordination-bound at this thread count?".
#[derive(Clone, Debug, Default)]
pub struct TraceRollup {
    /// One row per key, in first-seen order.
    pub rows: Vec<TraceRow>,
}

/// One [`TraceRollup`] row.
#[derive(Clone, Debug)]
pub struct TraceRow {
    /// Canonical solver spec.
    pub solver: String,
    /// Workload label.
    pub workload: String,
    /// Canonical chaos spec (`""` = reliable).
    pub chaos: String,
    /// Engine worker count of the profile.
    pub threads: usize,
    /// Round count of the profiled solve.
    pub rounds: u64,
    /// Wall time of the whole trace, milliseconds.
    pub total_ms: f64,
    /// `(phase, share of phase time)` for each of [`kw_trace::PHASES`].
    pub shares: Vec<(String, f64)>,
    /// Max worker busy time over mean worker busy time.
    pub imbalance: f64,
}

impl TraceRollup {
    /// Rolls trace records up, keeping the latest per key.
    pub fn from_traces(traces: &[crate::store::TraceRecord]) -> TraceRollup {
        let mut rows: Vec<TraceRow> = Vec::new();
        for t in traces {
            let row = TraceRow {
                solver: t.solver.clone(),
                workload: t.workload.clone(),
                chaos: t.chaos.clone(),
                threads: t.summary.threads,
                rounds: t.summary.rounds,
                total_ms: t.summary.total_us as f64 / 1e3,
                shares: kw_trace::PHASES
                    .iter()
                    .map(|&p| (p.to_string(), t.summary.phase_share(p)))
                    .collect(),
                imbalance: t.summary.imbalance,
            };
            let key = |r: &TraceRow| {
                (
                    r.solver.clone(),
                    r.workload.clone(),
                    r.chaos.clone(),
                    r.threads,
                )
            };
            match rows.iter_mut().find(|r| key(r) == key(&row)) {
                Some(existing) => *existing = row,
                None => rows.push(row),
            }
        }
        TraceRollup { rows }
    }

    /// Renders the rollup as a GitHub-flavored markdown table (phase
    /// shares as percentages of phase time).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "| solver | workload | chaos | threads | rounds | total ms | plan | send | deliver | compute | barrier | imbalance |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|\n");
        for r in &self.rows {
            let share = |phase: &str| {
                r.shares
                    .iter()
                    .find(|(p, _)| p == phase)
                    .map_or(0.0, |&(_, s)| s)
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {:.2} | {:.0}% | {:.0}% | {:.0}% | {:.0}% | {:.0}% | {:.2} |",
                r.solver,
                r.workload,
                if r.chaos.is_empty() { "-" } else { &r.chaos },
                r.threads,
                r.rounds,
                r.total_ms,
                100.0 * share("plan"),
                100.0 * share("send"),
                100.0 * share("deliver"),
                100.0 * share("compute"),
                100.0 * share("barrier"),
                r.imbalance,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_core::solver::RunOutcome;

    fn record(solver: &str, workload: &str, seed: u64, size: f64, dominates: bool) -> RunRecord {
        RunRecord {
            solver: solver.into(),
            workload: workload.into(),
            n: 100,
            max_degree: 9,
            seed,
            chaos: String::new(),
            threads: 1,
            outcome: RunOutcome {
                dominates,
                size,
                rounds: 18.0,
                messages: 100.0 * size,
                bits: 1000.0 * size,
                ratio_vs_lemma1: size / 10.0,
                wall_ms: size / 2.0,
            },
        }
    }

    #[test]
    fn percentiles_nearest_rank() {
        let p = Percentiles::from_samples(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(p.count, 4);
        assert_eq!(p.mean, 2.5);
        assert_eq!(p.p50, 2.0);
        assert_eq!(p.p95, 4.0);
        assert_eq!(p.p99, 4.0);
        assert_eq!((p.min, p.max), (1.0, 4.0));
        assert_eq!(Percentiles::from_samples(&[]), Percentiles::default());
    }

    /// The shared rank function itself, at the sizes the satellite pins
    /// (n = 1/2/3/20) plus the first n where p99 separates from max.
    #[test]
    fn nearest_rank_boundary_cases() {
        assert_eq!(nearest_rank(50, 0), 0, "no samples, no rank");
        for percent in [50, 95, 99] {
            assert_eq!(nearest_rank(percent, 1), 1);
        }
        // n = 2: ceil(1.0) = 1, ceil(1.9) = 2, ceil(1.98) = 2.
        assert_eq!(
            (
                nearest_rank(50, 2),
                nearest_rank(95, 2),
                nearest_rank(99, 2)
            ),
            (1, 2, 2)
        );
        // n = 3: ceil(1.5) = 2, ceil(2.85) = 3, ceil(2.97) = 3.
        assert_eq!(
            (
                nearest_rank(50, 3),
                nearest_rank(95, 3),
                nearest_rank(99, 3)
            ),
            (2, 3, 3)
        );
        // n = 20: p50 and p95 are exact integer ranks; p99 still clamps
        // to the max (ceil(19.8) = 20).
        assert_eq!(
            (
                nearest_rank(50, 20),
                nearest_rank(95, 20),
                nearest_rank(99, 20)
            ),
            (10, 19, 20)
        );
        // n = 101 is the first size where p99 drops below the max.
        assert_eq!(nearest_rank(99, 101), 100);
        assert_eq!(nearest_rank(100, 101), 101);
    }

    /// Nearest-rank boundary behavior on tiny and exact-rank cells:
    /// singletons report the sole sample for every statistic, 2- and
    /// 3-sample cells take the lower median and the max for p95/p99, and
    /// 20 samples put p95 exactly at the 19th order statistic
    /// (`ceil(95·20/100) = 19`, an exact integer rank the old float path
    /// could only hit by rounding luck).
    #[test]
    fn percentiles_small_and_exact_rank_cells() {
        // n = 1: p50 = p95 = p99 = min = max = the sample.
        let one = Percentiles::from_samples(&[7.0]);
        assert_eq!((one.p50, one.p95, one.p99), (7.0, 7.0, 7.0));
        assert_eq!((one.min, one.max), (7.0, 7.0));
        assert_eq!(one.mean, 7.0);
        // n = 2: rank(50) = ceil(1.0) = 1st, rank(95) = ceil(1.9) = 2nd.
        let two = Percentiles::from_samples(&[10.0, 2.0]);
        assert_eq!((two.p50, two.p95, two.p99), (2.0, 10.0, 10.0));
        // n = 3: rank(50) = ceil(1.5) = 2nd, rank(95) = ceil(2.85) = 3rd.
        let three = Percentiles::from_samples(&[9.0, 1.0, 5.0]);
        assert_eq!((three.p50, three.p95, three.p99), (5.0, 9.0, 9.0));
        // n = 20: p50/p95 ranks are exact integers (10 and 19); p99
        // clamps to the 20th.
        let many: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let p = Percentiles::from_samples(&many);
        assert_eq!(p.p50, 10.0);
        assert_eq!(p.p95, 19.0);
        assert_eq!(p.p99, 20.0);
        // n = 200: p99 sits strictly below the max (198th of 200).
        let wide: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        let p = Percentiles::from_samples(&wide);
        assert_eq!(p.p99, 198.0);
        assert_eq!(p.max, 200.0);
    }

    #[test]
    fn rollups_group_and_exclude_failures_from_quality() {
        let records = vec![
            record("kw:k=2", "grid", 0, 10.0, true),
            record("kw:k=2", "grid", 1, 12.0, true),
            record("kw:k=2", "grid", 2, 99.0, false), // failure
            record("kw:k=2", "udg", 0, 20.0, true),
            record("greedy", "grid", 0, 8.0, true),
        ];
        let s = Summary::from_records(&records);
        assert_eq!(s.cells.len(), 3);
        let cell = s.cell("kw:k=2", "grid").unwrap();
        assert_eq!((cell.runs, cell.failures), (3, 1));
        assert_eq!(cell.size.count, 2, "failed run excluded from quality");
        assert_eq!(cell.size.mean, 11.0);
        assert_eq!(cell.wall_ms.count, 3, "failed run still costs wall time");
        assert_eq!((cell.n, cell.max_degree), (100, 9));
        // Solver rollup pools workloads.
        let kw = s.solvers.iter().find(|r| r.solver == "kw:k=2").unwrap();
        assert_eq!((kw.runs, kw.failures), (4, 1));
        assert_eq!(kw.size.count, 3);
        // Cells sort workload-major.
        let order: Vec<(&str, &str)> = s
            .cells
            .iter()
            .map(|c| (c.workload.as_str(), c.solver.as_str()))
            .collect();
        assert_eq!(
            order,
            vec![("grid", "greedy"), ("grid", "kw:k=2"), ("udg", "kw:k=2")]
        );
    }

    #[test]
    fn summary_is_order_insensitive() {
        let mut records = vec![
            record("kw:k=2", "grid", 0, 10.0, true),
            record("kw:k=2", "grid", 1, 12.0, true),
            record("greedy", "grid", 0, 8.0, true),
            record("greedy", "udg", 3, 9.0, true),
        ];
        let a = Summary::from_records(&records);
        records.reverse();
        let b = Summary::from_records(&records);
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.to_markdown(), b.to_markdown());
    }

    #[test]
    fn renders_markdown_and_csv() {
        let records = vec![
            record("kw:k=2", "grid", 0, 10.0, true),
            record("kw:k=2", "grid", 1, 12.0, true),
        ];
        let s = Summary::from_records(&records);
        let md = s.to_markdown();
        assert!(md.starts_with("| workload |"));
        assert!(md.lines().next().unwrap().contains("| p99 |"));
        // p50/p95/p99 of {10, 12}: ranks 1/2/2 → 10, 12, 12.
        assert!(md.contains("| grid | 100 | 9 | kw:k=2 | - | 2 | 0 | 11.0 | 10 | 12 | 12 |"));
        let csv = s.to_csv();
        assert!(csv.starts_with("workload,n,max_degree,solver,chaos,"));
        assert!(csv.lines().next().unwrap().contains("size_p99"));
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("grid,100,9,kw:k=2,,2,0,11,10,12,12,"));
    }

    /// The same `(solver, workload)` under different chaos plans must
    /// roll up as separate cells — collapsing them would average a
    /// degraded run into the clean baseline.
    #[test]
    fn chaos_variants_are_distinct_cells() {
        let mut clean = record("kw:k=2", "grid", 0, 10.0, true);
        clean.chaos = String::new();
        let mut noisy = record("kw:k=2", "grid", 0, 14.0, true);
        noisy.chaos = "drop=0.2,seed=7".into();
        let mut noisy2 = record("kw:k=2", "grid", 1, 16.0, false);
        noisy2.chaos = "drop=0.2,seed=7".into();
        let s = Summary::from_records(&[clean, noisy, noisy2]);
        assert_eq!(s.cells.len(), 2);
        let base = s.cell_under("kw:k=2", "grid", "", 1).unwrap();
        assert_eq!((base.runs, base.failures), (1, 0));
        assert_eq!(base.size.mean, 10.0);
        let chaotic = s
            .cell_under("kw:k=2", "grid", "drop=0.2,seed=7", 1)
            .unwrap();
        assert_eq!((chaotic.runs, chaotic.failures), (2, 1));
        assert_eq!(chaotic.size.mean, 14.0, "failed run excluded");
        // The chaos spec shows up in both rendered tables.
        assert!(s.to_markdown().contains("| drop=0.2,seed=7 |"));
        assert!(s.to_csv().contains(",drop=0.2,seed=7,"));
        // The chaos-blind lookup still finds the first variant.
        assert!(s.cell("kw:k=2", "grid").is_some());
    }

    /// Runs of one cell at different engine thread counts must roll up
    /// as separate cells: merged, `runs` doubles and `wall_ms` averages
    /// a 1-thread measurement into a 2-thread one.
    #[test]
    fn thread_counts_are_distinct_cells() {
        let one = record("kw:k=2", "grid", 0, 10.0, true);
        let mut two = record("kw:k=2", "grid", 0, 10.0, true);
        two.threads = 2;
        two.outcome.wall_ms = 40.0;
        let s = Summary::from_records(&[two, one]);
        assert_eq!(s.cells.len(), 2);
        let base = s.cell_under("kw:k=2", "grid", "", 1).unwrap();
        assert_eq!((base.runs, base.wall_ms.mean), (1, 5.0));
        let pooled = s.cell_under("kw:k=2", "grid", "", 2).unwrap();
        assert_eq!((pooled.runs, pooled.wall_ms.mean), (1, 40.0));
        // 1-thread cells render as before; others name their threads.
        let md = s.to_markdown();
        assert!(md.contains("\n| grid | 100 | 9 | kw:k=2 | - | 1 |"), "{md}");
        assert!(
            md.contains("\n| grid@2t | 100 | 9 | kw:k=2 | - | 1 |"),
            "{md}"
        );
        assert!(s.to_csv().contains("\ngrid@2t,100,9,kw:k=2,"));
    }

    /// The mean sums in input order (the order `Summary` feeds, i.e.
    /// seed order), not in sorted order; the two sums differ for these
    /// samples.
    #[test]
    fn percentile_mean_sums_in_input_order() {
        let samples = [0.1, 1e16, -1e16, 0.2];
        let in_order = samples.iter().sum::<f64>() / 4.0;
        let mut sorted = samples;
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_ne!(in_order, sorted.iter().sum::<f64>() / 4.0);
        assert_eq!(Percentiles::from_samples(&samples).mean, in_order);
    }

    #[test]
    fn trace_rollup_keeps_latest_per_key_and_renders_shares() {
        let trace = |threads: usize, compute_us: u64| crate::store::TraceRecord {
            solver: "kw:k=2".into(),
            workload: "flood10k".into(),
            seed: 42,
            chaos: String::new(),
            summary: kw_trace::TraceSummary {
                threads,
                rounds: 10,
                total_us: 2_000,
                phase_us: vec![
                    ("barrier".into(), 100),
                    ("compute".into(), compute_us),
                    ("deliver".into(), 200),
                    ("plan".into(), 50),
                    ("send".into(), 150),
                ],
                barrier_us: 100,
                imbalance: 1.3,
                pool_wakeups: 0,
                pool_idle: 0,
                structure_hash: 1,
                samples: Vec::new(),
            },
        };
        // Two profiles of the same key: the later one wins. A different
        // thread count is its own row.
        let rollup = TraceRollup::from_traces(&[trace(4, 900), trace(4, 500), trace(1, 500)]);
        assert_eq!(rollup.rows.len(), 2);
        let row = &rollup.rows[0];
        assert_eq!((row.threads, row.rounds), (4, 10));
        // compute share = 500 / (50+150+200+500+100) = 50%.
        let compute = row
            .shares
            .iter()
            .find(|(p, _)| p == "compute")
            .map(|&(_, s)| s)
            .unwrap();
        assert!((compute - 0.5).abs() < 1e-9);
        let md = rollup.to_markdown();
        assert!(md.contains("| kw:k=2 | flood10k | - | 4 |"), "{md}");
        assert!(md.contains("50%"), "{md}");
        assert!(md.contains("| 1.30 |"), "{md}");
    }
}
