//! Experiment harness reproducing every quantitative claim of the paper.
//!
//! Each experiment has a binary (`src/bin/exp_*.rs`) that prints a
//! paper-style table and asserts the bounds it reproduces:
//!
//! * T1–T8 — the paper's theorems: Algorithm 2 and 3 approximation and
//!   round counts, message complexity, rounding, end to end, weighted,
//!   the `log Δ` regime, and the bound sandwich;
//! * F1 — the covering cascade of the paper's Figure 1;
//! * A1–A3 — ablations: the rounding fallback, LP rounding vs greedy,
//!   and message loss;
//! * C1 — the chaos ladder and churn;
//! * I1 — the bundled real-world instances;
//! * O1 — per-phase engine profiles;
//! * S0 — worker-pool scaling.
//!
//! Criterion benches covering wall-clock scaling live in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod denominators;
pub mod instances;
pub mod mix;
pub mod traffic;
pub mod workloads;
