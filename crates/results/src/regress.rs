//! Regression gating: one keyed diff of a fresh store against a stored
//! baseline, with fixed per-metric budgets.
//!
//! Every line of a store is indexed under one key, `(line kind,
//! solver|bench, workload|id, chaos, threads)`: run records roll up per
//! cell through [`Summary::from_records`], bench and trace lines keep
//! the latest line per key (re-runs append; the newest is the current
//! state). [`gate`] then walks the baseline's keys and applies each
//! metric's rule wherever both sides have it.
//!
//! The budgets are asymmetric on purpose: *quality* uses a tight
//! relative tolerance (set sizes are deterministic given seeds, so any
//! growth is a real algorithmic change), *time* uses the classic ≥20%
//! threshold with an absolute floor below which timer noise drowns the
//! signal, and the trace metrics (phase shares, multi-thread speedup)
//! are ratios of same-machine runs, immune to the box being uniformly
//! faster or slower.

use std::collections::hash_map::{Entry, HashMap};
use std::fmt;

use crate::store::{BenchRecord, StoreContents};
use crate::summary::{cell_label, Summary};

/// A cell's mean wall time (or a bench's best-of-N) may grow to at most
/// `baseline × MAX_TIME_RATIO` — a 20% slowdown fails.
pub const MAX_TIME_RATIO: f64 = 1.2;
/// Baselines faster than this (ms) are exempt from the time gate
/// (sub-tick noise).
pub const MIN_WALL_MS: f64 = 0.05;
/// A cell's mean set size may grow to at most
/// `baseline × MAX_QUALITY_RATIO`.
pub const MAX_QUALITY_RATIO: f64 = 1.02;
/// A traced phase's share of phase time may drift from the baseline by
/// at most this, absolute (compute going from 60% to 80% of a solve
/// fails): the gate fires only when the *shape* of where time goes
/// changes.
pub const MAX_PHASE_SHARE_DRIFT: f64 = 0.15;
/// A multi-thread trace's speedup over the 1-thread trace of the same
/// workload may shrink to at most `baseline × (1 − MAX_SCALING_DROP)` (a
/// run that used to scale 2.0× fails below 1.6×).
pub const MAX_SCALING_DROP: f64 = 0.2;

/// What a [`Regression`] measured, and so which rule flagged it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// A cell's mean |DS| grew beyond [`MAX_QUALITY_RATIO`].
    Quality,
    /// A cell has more non-dominating runs than the baseline.
    Failures,
    /// A cell's mean wall time grew beyond [`MAX_TIME_RATIO`].
    WallTime,
    /// A bench's best-of-N grew beyond [`MAX_TIME_RATIO`].
    BenchTime,
    /// A traced phase's share of phase time drifted beyond
    /// [`MAX_PHASE_SHARE_DRIFT`].
    PhaseShare(&'static str),
    /// A multi-thread trace's speedup over its 1-thread anchor shrank
    /// beyond [`MAX_SCALING_DROP`].
    Speedup,
    /// A baseline cell is absent from the fresh records.
    MissingCell,
    /// A baseline bench is absent from the fresh measurements.
    MissingBench,
}

impl Check {
    /// Whether moving from `base` to `fresh` breaks this metric's budget.
    fn regressed(self, base: f64, fresh: f64) -> bool {
        match self {
            Check::Quality => fresh > base * MAX_QUALITY_RATIO + 1e-9,
            Check::Failures => fresh > base,
            Check::WallTime | Check::BenchTime => {
                base >= MIN_WALL_MS && fresh > base * MAX_TIME_RATIO
            }
            Check::PhaseShare(_) => (fresh - base).abs() > MAX_PHASE_SHARE_DRIFT,
            Check::Speedup => fresh < base * (1.0 - MAX_SCALING_DROP),
            Check::MissingCell | Check::MissingBench => true,
        }
    }
}

/// One detected regression.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// The metric that regressed.
    pub check: Check,
    /// What regressed: `solver on workload[@Nt][ (chaos:spec)]` for
    /// record cells and traces, `bench group/id` for bench lines.
    pub subject: String,
    /// Baseline value (0 for the missing checks).
    pub baseline: f64,
    /// Fresh value (0 for the missing checks).
    pub fresh: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Regression {
            check,
            subject,
            baseline: b,
            fresh: n,
        } = self;
        match check {
            Check::Quality => write!(
                f,
                "QUALITY  {subject}: mean |DS| {b:.2} -> {n:.2} ({:+.1}%)",
                100.0 * (n / b - 1.0)
            ),
            Check::Failures => write!(f, "FAILURES {subject}: non-dominating runs {b} -> {n}"),
            Check::WallTime => write!(
                f,
                "TIME     {subject}: mean wall {b:.3} ms -> {n:.3} ms ({:.2}x)",
                n / b
            ),
            Check::BenchTime => write!(
                f,
                "TIME     {subject}: {b:.3} ms -> {n:.3} ms ({:.2}x)",
                n / b
            ),
            Check::PhaseShare(phase) => write!(
                f,
                "PHASE    {subject}: {phase} share {:.0}% -> {:.0}% of phase time",
                100.0 * b,
                100.0 * n
            ),
            Check::Speedup => write!(f, "SCALING  {subject}: speedup vs 1t {b:.2}x -> {n:.2}x"),
            Check::MissingCell => write!(f, "MISSING  {subject}: cell absent from fresh run"),
            Check::MissingBench => write!(f, "MISSING  {subject}: absent from fresh measurements"),
        }
    }
}

/// The kind of store line a key indexes. Part of the key, so a trace
/// line can never stand in for a record cell of the same name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Kind {
    Record,
    Bench,
    Trace,
}

/// `(kind, solver|bench, workload|id, chaos, threads)`; bench lines use
/// `("", 1)` for chaos and threads.
type Key = (Kind, String, String, String, usize);

/// One store's metrics per key: the latest line per key, in first-seen
/// key order.
#[derive(Default)]
struct Index {
    position: HashMap<Key, usize>,
    rows: Vec<(Key, Vec<(Check, f64)>)>,
}

impl Index {
    fn of(store: &StoreContents) -> Index {
        let mut index = Index::default();
        for c in Summary::from_records(&store.records).cells {
            let mut metrics = vec![(Check::Failures, c.failures as f64)];
            if c.size.count > 0 {
                metrics.push((Check::Quality, c.size.mean));
            }
            metrics.push((Check::WallTime, c.wall_ms.mean));
            index.insert(
                (Kind::Record, c.solver, c.workload, c.chaos, c.threads),
                metrics,
            );
        }
        index.add_benches(&store.benches);
        // Latest 1-thread total per (solver, workload, chaos): the anchor
        // a multi-thread trace's speedup is credited against.
        let mut anchors = HashMap::new();
        for t in store.traces.iter().filter(|t| t.summary.threads == 1) {
            anchors.insert((&t.solver, &t.workload, &t.chaos), t.summary.total_us);
        }
        for t in &store.traces {
            let s = &t.summary;
            let mut metrics: Vec<(Check, f64)> = kw_trace::PHASES
                .iter()
                .map(|&phase| (Check::PhaseShare(phase), s.phase_share(phase)))
                .collect();
            if let Some(&one) = anchors.get(&(&t.solver, &t.workload, &t.chaos)) {
                if s.threads > 1 && s.total_us > 0 {
                    metrics.push((Check::Speedup, one as f64 / s.total_us as f64));
                }
            }
            let key = (
                Kind::Trace,
                t.solver.clone(),
                t.workload.clone(),
                t.chaos.clone(),
                s.threads,
            );
            index.insert(key, metrics);
        }
        index
    }

    fn add_benches(&mut self, benches: &[BenchRecord]) {
        for b in benches {
            self.insert(
                (Kind::Bench, b.bench.clone(), b.id.clone(), String::new(), 1),
                vec![(Check::BenchTime, b.best_ms)],
            );
        }
    }

    /// Records `metrics` under `key`; a later line replaces an earlier
    /// one but keeps its position.
    fn insert(&mut self, key: Key, metrics: Vec<(Check, f64)>) {
        match self.position.entry(key) {
            Entry::Occupied(e) => self.rows[*e.get()].1 = metrics,
            Entry::Vacant(e) => {
                let key = e.key().clone();
                e.insert(self.rows.len());
                self.rows.push((key, metrics));
            }
        }
    }

    fn get(&self, key: &Key) -> Option<&[(Check, f64)]> {
        self.position.get(key).map(|&i| self.rows[i].1.as_slice())
    }
}

/// The finding label of a key: `bench group/id` for bench lines,
/// `solver on workload[@Nt][ (chaos:spec)]` otherwise.
fn subject((kind, name, item, chaos, threads): &Key) -> String {
    match kind {
        Kind::Bench => format!("bench {name}/{item}"),
        Kind::Record | Kind::Trace => format!("{name} on {}", cell_label(item, chaos, *threads)),
    }
}

/// Diffs `fresh` against `baseline`, key by key. A chaotic cell is only
/// ever compared against the same chaos plan and a 2-thread cell only
/// against a 2-thread baseline; keys only in `fresh` are new coverage,
/// not regressions. A baseline record cell or bench absent from `fresh`
/// is a `MISSING` finding; an absent trace is not (a profile run covers
/// whatever matrix it chose that day). A trace at `k > 1` threads with a
/// 1-thread anchor on the same side also gates its speedup
/// `total_us(1T) / total_us(kT)`.
pub fn gate(baseline: &StoreContents, fresh: &StoreContents) -> Vec<Regression> {
    let fresh = Index::of(fresh);
    let mut findings = Vec::new();
    for (key, base_metrics) in Index::of(baseline).rows {
        let Some(fresh_metrics) = fresh.get(&key) else {
            let check = match key.0 {
                Kind::Record => Check::MissingCell,
                Kind::Bench => Check::MissingBench,
                Kind::Trace => continue,
            };
            findings.push(Regression {
                check,
                subject: subject(&key),
                baseline: 0.0,
                fresh: 0.0,
            });
            continue;
        };
        for &(check, base) in &base_metrics {
            let Some(&(_, new)) = fresh_metrics.iter().find(|(c, _)| *c == check) else {
                continue;
            };
            if check.regressed(base, new) {
                findings.push(Regression {
                    check,
                    subject: subject(&key),
                    baseline: base,
                    fresh: new,
                });
            }
        }
    }
    findings
}

/// The latest `best_ms` per `(bench, id)`, in first-seen order — the
/// bench lines exactly as [`gate`] compares them.
pub fn latest_benches(benches: &[BenchRecord]) -> Vec<(String, String, f64)> {
    let mut index = Index::default();
    index.add_benches(benches);
    index
        .rows
        .into_iter()
        .map(|((_, bench, id, _, _), metrics)| (bench, id, metrics[0].1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TraceRecord;
    use kw_core::solver::{RunOutcome, RunRecord};

    fn record(solver: &str, workload: &str, seed: u64, size: f64, wall_ms: f64) -> RunRecord {
        RunRecord {
            solver: solver.into(),
            workload: workload.into(),
            n: 64,
            max_degree: 8,
            seed,
            chaos: String::new(),
            threads: 1,
            outcome: RunOutcome {
                dominates: true,
                size,
                rounds: 18.0,
                messages: 500.0,
                bits: 4000.0,
                ratio_vs_lemma1: size / 7.0,
                wall_ms,
            },
        }
    }

    fn records(records: Vec<RunRecord>) -> StoreContents {
        StoreContents {
            records,
            ..Default::default()
        }
    }

    fn traces(traces: Vec<TraceRecord>) -> StoreContents {
        StoreContents {
            traces,
            ..Default::default()
        }
    }

    fn summary(scale_size: f64, scale_time: f64) -> StoreContents {
        records(vec![
            record("kw:k=2", "grid", 0, 10.0 * scale_size, 2.0 * scale_time),
            record("kw:k=2", "grid", 1, 12.0 * scale_size, 2.2 * scale_time),
            record("greedy", "grid", 0, 8.0 * scale_size, 0.5 * scale_time),
        ])
    }

    #[test]
    fn identical_summaries_pass() {
        let base = summary(1.0, 1.0);
        assert!(gate(&base, &base).is_empty());
    }

    #[test]
    fn injected_2x_slowdown_fails_the_time_gate() {
        let base = summary(1.0, 1.0);
        let slow = summary(1.0, 2.0);
        let findings = gate(&base, &slow);
        assert_eq!(findings.len(), 2, "both cells slowed down 2x: {findings:?}");
        assert!(findings.iter().all(|r| r.check == Check::WallTime));
        // Within the 20% budget: no finding.
        let ok = summary(1.0, 1.15);
        assert!(gate(&base, &ok).is_empty());
    }

    #[test]
    fn quality_growth_fails_the_quality_gate() {
        let base = summary(1.0, 1.0);
        let worse = summary(1.10, 1.0);
        let findings = gate(&base, &worse);
        assert!(findings.iter().any(|r| r.check == Check::Quality));
        // 1% growth is within the 2% tolerance.
        let ok = summary(1.01, 1.0);
        assert!(gate(&base, &ok).is_empty());
    }

    #[test]
    fn new_failures_and_missing_cells_are_flagged() {
        let base = summary(1.0, 1.0);
        let mut bad_records = vec![
            record("kw:k=2", "grid", 0, 10.0, 2.0),
            record("kw:k=2", "grid", 1, 12.0, 2.2),
        ];
        bad_records[1].outcome.dominates = false;
        let fresh = records(bad_records); // greedy cell gone too
        let findings = gate(&base, &fresh);
        assert!(findings.iter().any(|r| r.check == Check::Failures));
        assert!(findings
            .iter()
            .any(|r| r.check == Check::MissingCell && r.subject == "greedy on grid"));
    }

    #[test]
    fn chaos_cells_gate_independently_of_clean_cells() {
        let chaotic = |size: f64| {
            let mut r = record("kw:k=2", "grid", 0, size, 2.0);
            r.chaos = "drop=0.2,seed=7".into();
            r
        };
        let base = records(vec![record("kw:k=2", "grid", 0, 10.0, 2.0), chaotic(14.0)]);
        // The chaotic cell degrades; the clean cell is unchanged. Only
        // the chaotic cell may be flagged — and under its chaos label.
        let fresh = records(vec![record("kw:k=2", "grid", 0, 10.0, 2.0), chaotic(16.0)]);
        let findings = gate(&base, &fresh);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].check, Check::Quality);
        assert_eq!(
            findings[0].subject,
            "kw:k=2 on grid (chaos:drop=0.2,seed=7)"
        );
        // A fresh run that dropped the chaotic cell but kept the clean
        // one reports exactly the chaotic cell missing, not the clean.
        let clean_only = records(vec![record("kw:k=2", "grid", 0, 10.0, 2.0)]);
        let findings = gate(&base, &clean_only);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].check, Check::MissingCell);
        assert_eq!(
            findings[0].subject,
            "kw:k=2 on grid (chaos:drop=0.2,seed=7)"
        );
    }

    /// A 2-thread cell gates against a 2-thread baseline only. A fresh
    /// store adding a slower 2-thread run of a 1-thread baseline cell is
    /// new coverage, not a 1-thread time regression.
    #[test]
    fn thread_counts_gate_independently() {
        let at = |threads: usize, wall_ms: f64| {
            let mut r = record("kw:k=2", "grid", 0, 10.0, wall_ms);
            r.threads = threads;
            r
        };
        let base = records(vec![at(1, 2.0)]);
        let fresh = records(vec![at(1, 2.0), at(2, 9.0)]);
        assert!(gate(&base, &fresh).is_empty());
        // The 2-thread cell gates against its own baseline, under its
        // thread label.
        let base = records(vec![at(1, 2.0), at(2, 2.0)]);
        let findings = gate(&base, &fresh);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].check, Check::WallTime);
        assert_eq!(findings[0].subject, "kw:k=2 on grid@2t");
    }

    #[test]
    fn sub_noise_cells_are_exempt_from_the_time_gate() {
        let base = records(vec![record("kw:k=2", "grid", 0, 10.0, 0.01)]);
        let slow = records(vec![record("kw:k=2", "grid", 0, 10.0, 0.04)]);
        assert!(gate(&base, &slow).is_empty());
    }

    fn trace(threads: usize, scale: u64, barrier_us: u64) -> TraceRecord {
        TraceRecord {
            solver: "kw:k=2".into(),
            workload: "flood10k".into(),
            seed: 42,
            chaos: String::new(),
            summary: kw_trace::TraceSummary {
                threads,
                rounds: 10,
                total_us: 1_000 * scale + barrier_us,
                phase_us: vec![
                    ("barrier".into(), barrier_us),
                    ("compute".into(), 700 * scale),
                    ("deliver".into(), 100 * scale),
                    ("plan".into(), 50 * scale),
                    ("send".into(), 150 * scale),
                ],
                barrier_us,
                imbalance: 1.1,
                pool_wakeups: 0,
                pool_idle: 0,
                structure_hash: 7,
                samples: Vec::new(),
            },
        }
    }

    #[test]
    fn phase_share_drift_gates_within_matching_thread_counts() {
        // Baseline: compute dominates (700 of 1000 phase µs = 70%).
        let base = traces(vec![trace(4, 1, 0)]);
        // Same shape, uniformly 3x slower: shares unchanged, no finding.
        let slower = traces(vec![trace(4, 3, 0)]);
        assert!(gate(&base, &slower).is_empty());
        // Barrier grows from 0% to ~41% of phase time: flagged, and the
        // compute share collapse is flagged alongside it.
        let barrier_heavy = traces(vec![trace(4, 1, 700)]);
        let findings = gate(&base, &barrier_heavy);
        assert!(
            findings
                .iter()
                .any(|r| r.check == Check::PhaseShare("barrier")
                    && r.subject == "kw:k=2 on flood10k@4t"),
            "{findings:?}"
        );
        // A 1-thread fresh trace never gates against the 4-thread base.
        let other_threads = traces(vec![trace(1, 1, 700)]);
        assert!(gate(&base, &other_threads).is_empty());
        // Missing fresh traces are not findings.
        assert!(gate(&base, &traces(Vec::new())).is_empty());
        // Re-profiles append: the latest fresh trace is the one gated.
        let appended = traces(vec![trace(4, 1, 700), trace(4, 1, 0)]);
        assert!(gate(&base, &appended).is_empty());
    }

    #[test]
    fn scaling_gate_fires_on_lost_speedup() {
        // trace(threads, scale, 0) has total_us = 1000 * scale, so the
        // baseline speedup at 4 threads is 10000 / 5000 = 2.0x.
        let base = traces(vec![trace(1, 10, 0), trace(4, 5, 0)]);
        // Fresh speedup 10000 / 7000 = 1.43x < 2.0 * 0.8: flagged.
        let degraded = traces(vec![trace(1, 10, 0), trace(4, 7, 0)]);
        let findings = gate(&base, &degraded);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let r = &findings[0];
        assert_eq!(r.check, Check::Speedup);
        assert_eq!(r.subject, "kw:k=2 on flood10k@4t");
        assert!((r.baseline - 2.0).abs() < 1e-9 && r.fresh < 1.6, "{r:?}");
        // 1.67x is within the 20% drop budget of 2.0x.
        let ok = traces(vec![trace(1, 10, 0), trace(4, 6, 0)]);
        assert!(gate(&base, &ok).is_empty());
        // Speedups are ratios: a uniformly 3x slower box still passes.
        let slower_box = traces(vec![trace(1, 30, 0), trace(4, 15, 0)]);
        assert!(gate(&base, &slower_box).is_empty());
        // No 1-thread anchor on the fresh side: skipped, not a finding.
        let no_anchor = traces(vec![trace(4, 7, 0)]);
        assert!(gate(&base, &no_anchor).is_empty());
        // Missing fresh traces entirely: skipped, like phase shares.
        assert!(gate(&base, &traces(Vec::new())).is_empty());
        // Re-profiles append; the latest fresh measurement is gated.
        let recovered = traces(vec![trace(1, 10, 0), trace(4, 7, 0), trace(4, 5, 0)]);
        assert!(gate(&base, &recovered).is_empty());
    }

    #[test]
    fn bench_records_gate_on_time_and_presence() {
        let bench = |bench: &str, best_ms: f64| BenchRecord {
            bench: bench.into(),
            id: "threads1/1000".into(),
            best_ms,
        };
        let benches = |benches: Vec<BenchRecord>| StoreContents {
            benches,
            ..Default::default()
        };
        let base = benches(vec![bench("engine_flood", 1.0), bench("engine_ping", 2.0)]);
        let fresh = benches(vec![bench("engine_flood", 2.5)]);
        let findings = gate(&base, &fresh);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().any(|r| r.check == Check::BenchTime));
        assert!(findings.iter().any(|r| r.check == Check::MissingBench));
        // A re-run that appended a newer, faster measurement passes.
        let appended = benches(vec![
            bench("engine_flood", 2.5),
            bench("engine_flood", 0.9),
            bench("engine_ping", 2.1),
        ]);
        assert!(gate(&base, &appended).is_empty());
    }
}
