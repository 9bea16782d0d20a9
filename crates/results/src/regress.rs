//! Regression gating: diff a fresh [`Summary`] (or bench records)
//! against a stored baseline and flag quality or time regressions.
//!
//! The policy is asymmetric on purpose: *quality* regressions use a
//! tight relative tolerance (set sizes are deterministic given seeds, so
//! any growth is a real algorithmic change), while *time* regressions
//! use the classic ≥20% threshold with an absolute floor below which
//! timer noise drowns the signal.

use std::fmt;

use crate::store::{BenchRecord, TraceRecord};
use crate::summary::Summary;

/// Thresholds for [`compare`] / [`compare_benches`] / [`compare_traces`].
#[derive(Clone, Copy, Debug)]
pub struct RegressPolicy {
    /// A cell's mean wall time (or a bench's best-of-N) may grow to at
    /// most `baseline × max_time_ratio` (default 1.2 — a 20% slowdown
    /// fails).
    pub max_time_ratio: f64,
    /// A cell's mean set size may grow to at most
    /// `baseline × max_quality_ratio` (default 1.02).
    pub max_quality_ratio: f64,
    /// Baseline cells faster than this (ms) are exempt from the time
    /// gate (default 0.05 ms — sub-tick noise).
    pub min_wall_ms: f64,
    /// A traced phase's share of phase time may drift from the baseline
    /// by at most this, absolute (default 0.15 — compute going from 60%
    /// to 80% of a solve fails). Shares are ratios, so this gate is
    /// immune to the machine being uniformly faster or slower; it fires
    /// only when the *shape* of where time goes changes.
    pub max_phase_share_drift: f64,
    /// A multi-thread trace's speedup over the matching 1-thread trace
    /// (`total_us(1T) / total_us(kT)`) may shrink to at most
    /// `baseline_speedup × (1 − max_scaling_drop)` (default 0.2 — a run
    /// that used to scale 2.0× at 4 threads fails below 1.6×). Speedups
    /// are ratios of same-machine runs, so this gate is immune to the
    /// box being uniformly faster or slower; it fires only when threads
    /// stop paying off relative to the recorded baseline.
    pub max_scaling_drop: f64,
}

impl Default for RegressPolicy {
    fn default() -> Self {
        RegressPolicy {
            max_time_ratio: 1.2,
            max_quality_ratio: 1.02,
            min_wall_ms: 0.05,
            max_phase_share_drift: 0.15,
            max_scaling_drop: 0.2,
        }
    }
}

/// One detected regression.
#[derive(Clone, Debug, PartialEq)]
pub enum Regression {
    /// Mean set size grew beyond the quality tolerance.
    Quality {
        /// Solver spec of the regressing cell.
        solver: String,
        /// Workload label of the regressing cell.
        workload: String,
        /// Baseline mean size.
        baseline: f64,
        /// Fresh mean size.
        fresh: f64,
    },
    /// More non-dominating runs than the baseline.
    MoreFailures {
        /// Solver spec of the regressing cell.
        solver: String,
        /// Workload label of the regressing cell.
        workload: String,
        /// Baseline failure count.
        baseline: usize,
        /// Fresh failure count.
        fresh: usize,
    },
    /// Mean wall time grew beyond the time threshold.
    Time {
        /// Solver spec of the regressing cell.
        solver: String,
        /// Workload label of the regressing cell.
        workload: String,
        /// Baseline mean wall time, ms.
        baseline_ms: f64,
        /// Fresh mean wall time, ms.
        fresh_ms: f64,
    },
    /// A baseline cell is absent from the fresh summary.
    MissingCell {
        /// Solver spec of the absent cell.
        solver: String,
        /// Workload label of the absent cell.
        workload: String,
    },
    /// A benchmark's best-of-N grew beyond the time threshold.
    BenchTime {
        /// Benchmark group.
        bench: String,
        /// Benchmark id.
        id: String,
        /// Baseline time, ms.
        baseline_ms: f64,
        /// Fresh time, ms.
        fresh_ms: f64,
    },
    /// A baseline benchmark is absent from the fresh measurements.
    MissingBench {
        /// Benchmark group.
        bench: String,
        /// Benchmark id.
        id: String,
    },
    /// A traced phase's share of phase time drifted beyond tolerance.
    PhaseShare {
        /// Solver spec of the drifting trace.
        solver: String,
        /// Workload label (with threads, e.g. `flood10k@4t`).
        workload: String,
        /// The drifting phase.
        phase: String,
        /// Baseline share of phase time, in [0, 1].
        baseline: f64,
        /// Fresh share of phase time, in [0, 1].
        fresh: f64,
    },
    /// A traced workload's multi-thread speedup over its own 1-thread
    /// run shrank beyond the scaling tolerance.
    Scaling {
        /// Solver spec of the regressing trace.
        solver: String,
        /// Workload label (chaos folded in as `workload (chaos:spec)`).
        workload: String,
        /// Worker thread count of the regressing trace.
        threads: usize,
        /// Baseline speedup `total_us(1T) / total_us(kT)`.
        baseline: f64,
        /// Fresh speedup on the same key.
        fresh: f64,
    },
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Regression::Quality {
                solver,
                workload,
                baseline,
                fresh,
            } => write!(
                f,
                "QUALITY  {solver} on {workload}: mean |DS| {baseline:.2} -> {fresh:.2} ({:+.1}%)",
                100.0 * (fresh / baseline - 1.0)
            ),
            Regression::MoreFailures {
                solver,
                workload,
                baseline,
                fresh,
            } => write!(
                f,
                "FAILURES {solver} on {workload}: non-dominating runs {baseline} -> {fresh}"
            ),
            Regression::Time {
                solver,
                workload,
                baseline_ms,
                fresh_ms,
            } => write!(
                f,
                "TIME     {solver} on {workload}: mean wall {baseline_ms:.3} ms -> {fresh_ms:.3} ms ({:.2}x)",
                fresh_ms / baseline_ms
            ),
            Regression::MissingCell { solver, workload } => {
                write!(f, "MISSING  {solver} on {workload}: cell absent from fresh run")
            }
            Regression::BenchTime {
                bench,
                id,
                baseline_ms,
                fresh_ms,
            } => write!(
                f,
                "TIME     bench {bench}/{id}: {baseline_ms:.3} ms -> {fresh_ms:.3} ms ({:.2}x)",
                fresh_ms / baseline_ms
            ),
            Regression::MissingBench { bench, id } => {
                write!(f, "MISSING  bench {bench}/{id}: absent from fresh measurements")
            }
            Regression::PhaseShare {
                solver,
                workload,
                phase,
                baseline,
                fresh,
            } => write!(
                f,
                "PHASE    {solver} on {workload}: {phase} share {:.0}% -> {:.0}% of phase time",
                100.0 * baseline,
                100.0 * fresh
            ),
            Regression::Scaling {
                solver,
                workload,
                threads,
                baseline,
                fresh,
            } => write!(
                f,
                "SCALING  {solver} on {workload}@{threads}t: speedup vs 1t {baseline:.2}x -> {fresh:.2}x"
            ),
        }
    }
}

/// Diffs `fresh` against `baseline` cell by cell, matching on
/// `(solver, workload, chaos, threads)` — a chaotic cell is only ever
/// compared against the same chaos plan, and a 2-thread cell only
/// against a 2-thread baseline. Cells only in `fresh` are ignored (new
/// coverage is not a regression); cells only in `baseline` are reported
/// as [`Regression::MissingCell`]. In findings, a thread count other
/// than 1 shows as `workload@Nt` and a non-reliable chaos spec as
/// `workload (chaos:spec)`.
pub fn compare(baseline: &Summary, fresh: &Summary, policy: &RegressPolicy) -> Vec<Regression> {
    let mut findings = Vec::new();
    for base in &baseline.cells {
        let workload = if base.chaos.is_empty() {
            base.workload_label()
        } else {
            format!("{} (chaos:{})", base.workload_label(), base.chaos)
        };
        let Some(new) = fresh.cell_under(&base.solver, &base.workload, &base.chaos, base.threads)
        else {
            findings.push(Regression::MissingCell {
                solver: base.solver.clone(),
                workload,
            });
            continue;
        };
        if new.failures > base.failures {
            findings.push(Regression::MoreFailures {
                solver: base.solver.clone(),
                workload: workload.clone(),
                baseline: base.failures,
                fresh: new.failures,
            });
        }
        if base.size.count > 0
            && new.size.count > 0
            && new.size.mean > base.size.mean * policy.max_quality_ratio + 1e-9
        {
            findings.push(Regression::Quality {
                solver: base.solver.clone(),
                workload: workload.clone(),
                baseline: base.size.mean,
                fresh: new.size.mean,
            });
        }
        if base.wall_ms.mean >= policy.min_wall_ms
            && new.wall_ms.mean > base.wall_ms.mean * policy.max_time_ratio
        {
            findings.push(Regression::Time {
                solver: base.solver.clone(),
                workload: workload.clone(),
                baseline_ms: base.wall_ms.mean,
                fresh_ms: new.wall_ms.mean,
            });
        }
    }
    findings
}

/// Diffs fresh benchmark measurements against stored baselines, matched
/// by `(bench, id)`. Duplicate fresh measurements keep the last (a
/// re-run bench appends; the newest number is the current state).
pub fn compare_benches(
    baseline: &[BenchRecord],
    fresh: &[BenchRecord],
    policy: &RegressPolicy,
) -> Vec<Regression> {
    let latest = |records: &[BenchRecord], bench: &str, id: &str| -> Option<f64> {
        records
            .iter()
            .rev()
            .find(|r| r.bench == bench && r.id == id)
            .map(|r| r.best_ms)
    };
    let mut findings = Vec::new();
    let mut seen: Vec<(&str, &str)> = Vec::new();
    for base in baseline {
        let key = (base.bench.as_str(), base.id.as_str());
        if seen.contains(&key) {
            continue; // each (bench, id) compares once, latest vs latest
        }
        seen.push(key);
        let base_ms = latest(baseline, &base.bench, &base.id).expect("key came from this slice");
        match latest(fresh, &base.bench, &base.id) {
            None => findings.push(Regression::MissingBench {
                bench: base.bench.clone(),
                id: base.id.clone(),
            }),
            Some(fresh_ms) => {
                if base_ms >= policy.min_wall_ms && fresh_ms > base_ms * policy.max_time_ratio {
                    findings.push(Regression::BenchTime {
                        bench: base.bench.clone(),
                        id: base.id.clone(),
                        baseline_ms: base_ms,
                        fresh_ms,
                    });
                }
            }
        }
    }
    findings
}

/// Diffs fresh trace rollups against stored baselines, matched by
/// `(solver, workload, chaos, threads)` — a 4-thread profile is only
/// ever compared against a 4-thread baseline, since phase shares shift
/// legitimately with the worker count. Duplicates keep the last on both
/// sides (re-profiles append). Missing traces are *not* findings: a
/// profile run covers whatever matrix it chose that day, and phase-share
/// drift is the only signal this gate exists for.
pub fn compare_traces(
    baseline: &[TraceRecord],
    fresh: &[TraceRecord],
    policy: &RegressPolicy,
) -> Vec<Regression> {
    let key = |t: &TraceRecord| {
        (
            t.solver.clone(),
            t.workload.clone(),
            t.chaos.clone(),
            t.summary.threads,
        )
    };
    let mut findings = Vec::new();
    let mut seen = Vec::new();
    for base in baseline.iter().rev() {
        let k = key(base);
        if seen.contains(&k) {
            continue; // latest baseline per key wins
        }
        seen.push(k);
        let Some(new) = fresh.iter().rev().find(|t| key(t) == key(base)) else {
            continue;
        };
        for phase in kw_trace::PHASES {
            let b = base.summary.phase_share(phase);
            let f = new.summary.phase_share(phase);
            if (f - b).abs() > policy.max_phase_share_drift {
                let workload = if base.chaos.is_empty() {
                    format!("{}@{}t", base.workload, base.summary.threads)
                } else {
                    format!(
                        "{}@{}t (chaos:{})",
                        base.workload, base.summary.threads, base.chaos
                    )
                };
                findings.push(Regression::PhaseShare {
                    solver: base.solver.clone(),
                    workload,
                    phase: phase.to_string(),
                    baseline: b,
                    fresh: f,
                });
            }
        }
    }
    findings
}

/// Gates multi-thread scaling: for every `(solver, workload, chaos, k)`
/// with `k > 1` that has a matching 1-thread trace on the *same side*,
/// the speedup is `total_us(1T) / total_us(kT)` — threads are only
/// credited against the same workload on the same machine. A fresh
/// speedup below `baseline_speedup × (1 − max_scaling_drop)` is a
/// [`Regression::Scaling`] finding. Keys missing a 1-thread anchor (on
/// either side) or absent from the fresh traces are skipped, like
/// [`compare_traces`]: profile runs cover whatever matrix they chose.
/// Duplicates keep the last per key (re-profiles append).
pub fn compare_scaling(
    baseline: &[TraceRecord],
    fresh: &[TraceRecord],
    policy: &RegressPolicy,
) -> Vec<Regression> {
    let latest = |records: &[TraceRecord], t: &TraceRecord, threads: usize| -> Option<u64> {
        records
            .iter()
            .rev()
            .find(|r| {
                r.solver == t.solver
                    && r.workload == t.workload
                    && r.chaos == t.chaos
                    && r.summary.threads == threads
            })
            .map(|r| r.summary.total_us)
    };
    let speedup = |records: &[TraceRecord], t: &TraceRecord| -> Option<f64> {
        let one = latest(records, t, 1)?;
        let multi = latest(records, t, t.summary.threads)?;
        (multi > 0).then(|| one as f64 / multi as f64)
    };
    let mut findings = Vec::new();
    let mut seen = Vec::new();
    for base in baseline.iter().rev() {
        if base.summary.threads <= 1 {
            continue;
        }
        let k = (
            base.solver.clone(),
            base.workload.clone(),
            base.chaos.clone(),
            base.summary.threads,
        );
        if seen.contains(&k) {
            continue; // latest baseline per key wins
        }
        seen.push(k);
        let (Some(b), Some(f)) = (speedup(baseline, base), speedup(fresh, base)) else {
            continue;
        };
        if f < b * (1.0 - policy.max_scaling_drop) {
            let workload = if base.chaos.is_empty() {
                base.workload.clone()
            } else {
                format!("{} (chaos:{})", base.workload, base.chaos)
            };
            findings.push(Regression::Scaling {
                solver: base.solver.clone(),
                workload,
                threads: base.summary.threads,
                baseline: b,
                fresh: f,
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn summary(scale_size: f64, scale_time: f64) -> Summary {
        Summary::from_records(&[
            record("kw:k=2", "grid", 0, 10.0 * scale_size, 2.0 * scale_time),
            record("kw:k=2", "grid", 1, 12.0 * scale_size, 2.2 * scale_time),
            record("greedy", "grid", 0, 8.0 * scale_size, 0.5 * scale_time),
        ])
    }

    #[test]
    fn identical_summaries_pass() {
        let base = summary(1.0, 1.0);
        assert!(compare(&base, &base, &RegressPolicy::default()).is_empty());
    }

    #[test]
    fn injected_2x_slowdown_fails_the_time_gate() {
        let base = summary(1.0, 1.0);
        let slow = summary(1.0, 2.0);
        let findings = compare(&base, &slow, &RegressPolicy::default());
        assert_eq!(findings.len(), 2, "both cells slowed down 2x: {findings:?}");
        assert!(findings
            .iter()
            .all(|r| matches!(r, Regression::Time { .. })));
        // Within the 20% budget: no finding.
        let ok = summary(1.0, 1.15);
        assert!(compare(&base, &ok, &RegressPolicy::default()).is_empty());
    }

    #[test]
    fn quality_growth_fails_the_quality_gate() {
        let base = summary(1.0, 1.0);
        let worse = summary(1.10, 1.0);
        let findings = compare(&base, &worse, &RegressPolicy::default());
        assert!(findings
            .iter()
            .any(|r| matches!(r, Regression::Quality { .. })));
        // 1% growth is within the default 2% tolerance.
        let ok = summary(1.01, 1.0);
        assert!(compare(&base, &ok, &RegressPolicy::default()).is_empty());
    }

    #[test]
    fn new_failures_and_missing_cells_are_flagged() {
        let base = summary(1.0, 1.0);
        let mut bad_records = vec![
            record("kw:k=2", "grid", 0, 10.0, 2.0),
            record("kw:k=2", "grid", 1, 12.0, 2.2),
        ];
        bad_records[1].outcome.dominates = false;
        let fresh = Summary::from_records(&bad_records); // greedy cell gone too
        let findings = compare(&base, &fresh, &RegressPolicy::default());
        assert!(findings
            .iter()
            .any(|r| matches!(r, Regression::MoreFailures { .. })));
        assert!(findings
            .iter()
            .any(|r| matches!(r, Regression::MissingCell { solver, .. } if solver == "greedy")));
    }

    #[test]
    fn chaos_cells_gate_independently_of_clean_cells() {
        let chaotic = |size: f64| {
            let mut r = record("kw:k=2", "grid", 0, size, 2.0);
            r.chaos = "drop=0.2,seed=7".into();
            r
        };
        let base = Summary::from_records(&[record("kw:k=2", "grid", 0, 10.0, 2.0), chaotic(14.0)]);
        // The chaotic cell degrades; the clean cell is unchanged. Only
        // the chaotic cell may be flagged — and under its chaos label.
        let fresh = Summary::from_records(&[record("kw:k=2", "grid", 0, 10.0, 2.0), chaotic(16.0)]);
        let findings = compare(&base, &fresh, &RegressPolicy::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(matches!(
            &findings[0],
            Regression::Quality { workload, .. } if workload == "grid (chaos:drop=0.2,seed=7)"
        ));
        // A fresh run that dropped the chaotic cell but kept the clean
        // one reports exactly the chaotic cell missing, not the clean.
        let clean_only = Summary::from_records(&[record("kw:k=2", "grid", 0, 10.0, 2.0)]);
        let findings = compare(&base, &clean_only, &RegressPolicy::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(matches!(
            &findings[0],
            Regression::MissingCell { workload, .. } if workload == "grid (chaos:drop=0.2,seed=7)"
        ));
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
        let base = Summary::from_records(&[at(1, 2.0)]);
        let fresh = Summary::from_records(&[at(1, 2.0), at(2, 9.0)]);
        assert!(compare(&base, &fresh, &RegressPolicy::default()).is_empty());
        // The 2-thread cell gates against its own baseline, under its
        // thread label.
        let base = Summary::from_records(&[at(1, 2.0), at(2, 2.0)]);
        let findings = compare(&base, &fresh, &RegressPolicy::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(matches!(
            &findings[0],
            Regression::Time { workload, .. } if workload == "grid@2t"
        ));
    }

    #[test]
    fn sub_noise_cells_are_exempt_from_the_time_gate() {
        let base = Summary::from_records(&[record("kw:k=2", "grid", 0, 10.0, 0.01)]);
        let slow = Summary::from_records(&[record("kw:k=2", "grid", 0, 10.0, 0.04)]);
        assert!(compare(&base, &slow, &RegressPolicy::default()).is_empty());
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
        let base = vec![trace(4, 1, 0)];
        // Same shape, uniformly 3x slower: shares unchanged, no finding.
        let slower = vec![trace(4, 3, 0)];
        assert!(compare_traces(&base, &slower, &RegressPolicy::default()).is_empty());
        // Barrier grows from 0% to ~41% of phase time: flagged, and the
        // compute share collapse is flagged alongside it.
        let barrier_heavy = vec![trace(4, 1, 700)];
        let findings = compare_traces(&base, &barrier_heavy, &RegressPolicy::default());
        assert!(
            findings.iter().any(|r| matches!(
                r,
                Regression::PhaseShare { phase, workload, .. }
                    if phase == "barrier" && workload == "flood10k@4t"
            )),
            "{findings:?}"
        );
        // A 1-thread fresh trace never gates against the 4-thread base.
        let other_threads = vec![trace(1, 1, 700)];
        assert!(compare_traces(&base, &other_threads, &RegressPolicy::default()).is_empty());
        // Missing fresh traces are not findings.
        assert!(compare_traces(&base, &[], &RegressPolicy::default()).is_empty());
        // Re-profiles append: the latest fresh trace is the one gated.
        let appended = vec![trace(4, 1, 700), trace(4, 1, 0)];
        assert!(compare_traces(&base, &appended, &RegressPolicy::default()).is_empty());
    }

    #[test]
    fn scaling_gate_fires_on_lost_speedup() {
        // trace(threads, scale, 0) has total_us = 1000 * scale, so the
        // baseline speedup at 4 threads is 10000 / 5000 = 2.0x.
        let base = vec![trace(1, 10, 0), trace(4, 5, 0)];
        // Fresh speedup 10000 / 7000 = 1.43x < 2.0 * 0.8: flagged.
        let degraded = vec![trace(1, 10, 0), trace(4, 7, 0)];
        let findings = compare_scaling(&base, &degraded, &RegressPolicy::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(matches!(
            &findings[0],
            Regression::Scaling { solver, workload, threads: 4, baseline, fresh }
                if solver == "kw:k=2" && workload == "flood10k"
                    && (*baseline - 2.0).abs() < 1e-9 && *fresh < 1.6
        ));
        // 1.67x is within the default 20% drop budget of 2.0x.
        let ok = vec![trace(1, 10, 0), trace(4, 6, 0)];
        assert!(compare_scaling(&base, &ok, &RegressPolicy::default()).is_empty());
        // Speedups are ratios: a uniformly 3x slower box still passes.
        let slower_box = vec![trace(1, 30, 0), trace(4, 15, 0)];
        assert!(compare_scaling(&base, &slower_box, &RegressPolicy::default()).is_empty());
        // No 1-thread anchor on the fresh side: skipped, not a finding.
        let no_anchor = vec![trace(4, 7, 0)];
        assert!(compare_scaling(&base, &no_anchor, &RegressPolicy::default()).is_empty());
        // Missing fresh traces entirely: skipped, like compare_traces.
        assert!(compare_scaling(&base, &[], &RegressPolicy::default()).is_empty());
        // Re-profiles append; the latest fresh measurement is gated.
        let recovered = vec![trace(1, 10, 0), trace(4, 7, 0), trace(4, 5, 0)];
        assert!(compare_scaling(&base, &recovered, &RegressPolicy::default()).is_empty());
    }

    #[test]
    fn bench_records_gate_on_time_and_presence() {
        let base = vec![
            BenchRecord {
                bench: "engine_flood".into(),
                id: "threads1/1000".into(),
                best_ms: 1.0,
            },
            BenchRecord {
                bench: "engine_ping".into(),
                id: "threads1/1000".into(),
                best_ms: 2.0,
            },
        ];
        let fresh = vec![BenchRecord {
            bench: "engine_flood".into(),
            id: "threads1/1000".into(),
            best_ms: 2.5,
        }];
        let findings = compare_benches(&base, &fresh, &RegressPolicy::default());
        assert_eq!(findings.len(), 2);
        assert!(findings
            .iter()
            .any(|r| matches!(r, Regression::BenchTime { .. })));
        assert!(findings
            .iter()
            .any(|r| matches!(r, Regression::MissingBench { .. })));
        // A re-run that appended a newer, faster measurement passes.
        let appended = vec![
            fresh[0].clone(),
            BenchRecord {
                bench: "engine_flood".into(),
                id: "threads1/1000".into(),
                best_ms: 0.9,
            },
            BenchRecord {
                bench: "engine_ping".into(),
                id: "threads1/1000".into(),
                best_ms: 2.1,
            },
        ];
        assert!(compare_benches(&base, &appended, &RegressPolicy::default()).is_empty());
    }
}
