//! Output lock: exact outputs of every registered solver on two small
//! workloads, two seeds, reliable and lossy, at one engine thread.
//!
//! Each cell pins an FNV-1a fingerprint of the dominating-set membership
//! plus |DS|, rounds, messages, and payload bits — or, for a solver that
//! rejects the chaos plan, the error text. A refactor that is meant to
//! keep behaviour must leave every row of [`LOCK`] unchanged; a change
//! that alters outputs on purpose updates the table and says why.

use kw_domset::prelude::*;
use kw_graph::{generators, CsrGraph};
use kw_sim::ChaosPlan;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The lossy plan of the matrix, as a canonical chaos clause.
const LOSSY: &str = "drop=0.2,seed=7";

/// What one cell produced: `(fnv, |DS|, rounds, messages, bits)` or the
/// solver's error text.
type Row = Result<(u64, usize, usize, u64, u64), &'static str>;

/// `(solver spec, workload, seed, chaos clause, expected row)`; `""` is
/// the reliable network.
#[rustfmt::skip]
const LOCK: &[(&str, &str, u64, &str, Row)] = &[
    ("alg2", "gnp40", 0, "", Ok((0x1af92884ca714a7d, 30, 12, 2160, 8328))),
    ("alg2", "gnp40", 0, "drop=0.2,seed=7", Ok((0x1af92884ca714a7d, 30, 12, 2160, 8286))),
    ("alg2", "gnp40", 1, "", Ok((0x2cdb573597dc81ca, 31, 12, 2160, 8328))),
    ("alg2", "gnp40", 1, "drop=0.2,seed=7", Ok((0x2cdb573597dc81ca, 31, 12, 2160, 8286))),
    ("alg2", "udg40", 0, "", Ok((0x44a1d58a08d822a0, 29, 12, 1940, 7232))),
    ("alg2", "udg40", 0, "drop=0.2,seed=7", Ok((0x50d81fa5eee57034, 31, 12, 1940, 7216))),
    ("alg2", "udg40", 1, "", Ok((0x3efdd6cf495ea56b, 32, 12, 1940, 7232))),
    ("alg2", "udg40", 1, "drop=0.2,seed=7", Ok((0x3efdd6cf495ea56b, 32, 12, 1940, 7216))),
    ("composite", "gnp40", 0, "", Ok((0xc713412da87824ca, 33, 22, 3722, 25468))),
    ("composite", "gnp40", 0, "drop=0.2,seed=7", Ok((0xab9aceaf33711c53, 34, 22, 3714, 25008))),
    ("composite", "gnp40", 1, "", Ok((0xb80f2b1ef62567cc, 37, 22, 3722, 25468))),
    ("composite", "gnp40", 1, "drop=0.2,seed=7", Ok((0x79996c8c7dffdcd0, 37, 22, 3714, 25008))),
    ("composite", "udg40", 0, "", Ok((0x3631f6c32a0a8406, 31, 22, 3313, 22413))),
    ("composite", "udg40", 0, "drop=0.2,seed=7", Ok((0x3ed4a7c32eecbfc5, 32, 22, 3308, 21720))),
    ("composite", "udg40", 1, "", Ok((0x7b57e8ab4632e67e, 31, 22, 3313, 22413))),
    ("composite", "udg40", 1, "drop=0.2,seed=7", Ok((0xba470c70b2673b0d, 34, 22, 3308, 21720))),
    ("connected(kw:k=2)", "gnp40", 0, "", Ok((0x1af92884ca714a7d, 30, 22, 3722, 21962))),
    ("connected(kw:k=2)", "gnp40", 0, "drop=0.2,seed=7", Ok((0xa5f444305dab2842, 33, 22, 3714, 21510))),
    ("connected(kw:k=2)", "gnp40", 1, "", Ok((0x9c2bd0233e52fde0, 33, 22, 3722, 21962))),
    ("connected(kw:k=2)", "gnp40", 1, "drop=0.2,seed=7", Ok((0xb74114c43a8764f4, 35, 22, 3714, 21510))),
    ("connected(kw:k=2)", "udg40", 0, "", Ok((0x5e48d198d3fac6df, 32, 22, 3313, 19294))),
    ("connected(kw:k=2)", "udg40", 0, "drop=0.2,seed=7", Ok((0x1e20aaacb29efb07, 34, 22, 3308, 18606))),
    ("connected(kw:k=2)", "udg40", 1, "", Ok((0x43283bde3233585e, 33, 22, 3313, 19294))),
    ("connected(kw:k=2)", "udg40", 1, "drop=0.2,seed=7", Ok((0x146b8f906199746b, 36, 22, 3308, 18606))),
    ("greedy", "gnp40", 0, "", Ok((0xc5c15bc00820b70c, 9, 0, 0, 0))),
    ("greedy", "gnp40", 0, "drop=0.2,seed=7", Ok((0xc5c15bc00820b70c, 9, 0, 0, 0))),
    ("greedy", "gnp40", 1, "", Ok((0xc5c15bc00820b70c, 9, 0, 0, 0))),
    ("greedy", "gnp40", 1, "drop=0.2,seed=7", Ok((0xc5c15bc00820b70c, 9, 0, 0, 0))),
    ("greedy", "udg40", 0, "", Ok((0x610e8d68ebabe1d9, 10, 0, 0, 0))),
    ("greedy", "udg40", 0, "drop=0.2,seed=7", Ok((0x610e8d68ebabe1d9, 10, 0, 0, 0))),
    ("greedy", "udg40", 1, "", Ok((0x610e8d68ebabe1d9, 10, 0, 0, 0))),
    ("greedy", "udg40", 1, "drop=0.2,seed=7", Ok((0x610e8d68ebabe1d9, 10, 0, 0, 0))),
    ("jrs", "gnp40", 0, "", Ok((0x28c0158669cf7dd9, 8, 44, 3431, 19821))),
    ("jrs", "gnp40", 0, "drop=0.2,seed=7", Ok((0x28c0158669cf7dd9, 8, 44, 3431, 19821))),
    ("jrs", "gnp40", 1, "", Ok((0xe7022fc36c87e371, 14, 38, 3419, 20128))),
    ("jrs", "gnp40", 1, "drop=0.2,seed=7", Ok((0xe7022fc36c87e371, 14, 38, 3419, 20128))),
    ("jrs", "udg40", 0, "", Ok((0xbc8d0999e0b4b431, 18, 20, 1524, 8524))),
    ("jrs", "udg40", 0, "drop=0.2,seed=7", Ok((0xbc8d0999e0b4b431, 18, 20, 1524, 8524))),
    ("jrs", "udg40", 1, "", Ok((0xe45b8a333218971d, 16, 38, 2181, 12848))),
    ("jrs", "udg40", 1, "drop=0.2,seed=7", Ok((0xe45b8a333218971d, 16, 38, 2181, 12848))),
    ("kw", "gnp40", 0, "", Ok((0x1af92884ca714a7d, 30, 22, 3722, 21962))),
    ("kw", "gnp40", 0, "drop=0.2,seed=7", Ok((0xa5f444305dab2842, 33, 22, 3714, 21510))),
    ("kw", "gnp40", 1, "", Ok((0x9c2bd0233e52fde0, 33, 22, 3722, 21962))),
    ("kw", "gnp40", 1, "drop=0.2,seed=7", Ok((0xb74114c43a8764f4, 35, 22, 3714, 21510))),
    ("kw", "udg40", 0, "", Ok((0xbed3a4fe4a4a73ab, 30, 22, 3313, 19294))),
    ("kw", "udg40", 0, "drop=0.2,seed=7", Ok((0xc6bb89de6e6171c4, 33, 22, 3308, 18606))),
    ("kw", "udg40", 1, "", Ok((0x43283bde3233585e, 33, 22, 3313, 19294))),
    ("kw", "udg40", 1, "drop=0.2,seed=7", Ok((0x0b4cfb26e841fce6, 35, 22, 3308, 18606))),
    ("luby-mis", "gnp40", 0, "", Ok((0x6248801c96bbdb14, 19, 5, 316, 17896))),
    ("luby-mis", "gnp40", 0, "drop=0.2,seed=7", Ok((0x6248801c96bbdb14, 19, 5, 316, 17896))),
    ("luby-mis", "gnp40", 1, "", Ok((0x4c2050b855d331b1, 16, 6, 342, 20674))),
    ("luby-mis", "gnp40", 1, "drop=0.2,seed=7", Ok((0x4c2050b855d331b1, 16, 6, 342, 20674))),
    ("luby-mis", "udg40", 0, "", Ok((0xa1af60726d49af6d, 10, 5, 263, 16226))),
    ("luby-mis", "udg40", 0, "drop=0.2,seed=7", Ok((0xa1af60726d49af6d, 10, 5, 263, 16226))),
    ("luby-mis", "udg40", 1, "", Ok((0x61e884c9c0ef969a, 11, 5, 254, 15796))),
    ("luby-mis", "udg40", 1, "drop=0.2,seed=7", Ok((0x61e884c9c0ef969a, 11, 5, 254, 15796))),
    ("trivial", "gnp40", 0, "", Ok((0x53e8f0b60a2569ed, 40, 0, 0, 0))),
    ("trivial", "gnp40", 0, "drop=0.2,seed=7", Ok((0x53e8f0b60a2569ed, 40, 0, 0, 0))),
    ("trivial", "gnp40", 1, "", Ok((0x53e8f0b60a2569ed, 40, 0, 0, 0))),
    ("trivial", "gnp40", 1, "drop=0.2,seed=7", Ok((0x53e8f0b60a2569ed, 40, 0, 0, 0))),
    ("trivial", "udg40", 0, "", Ok((0x53e8f0b60a2569ed, 40, 0, 0, 0))),
    ("trivial", "udg40", 0, "drop=0.2,seed=7", Ok((0x53e8f0b60a2569ed, 40, 0, 0, 0))),
    ("trivial", "udg40", 1, "", Ok((0x53e8f0b60a2569ed, 40, 0, 0, 0))),
    ("trivial", "udg40", 1, "drop=0.2,seed=7", Ok((0x53e8f0b60a2569ed, 40, 0, 0, 0))),
];

fn workloads() -> Vec<(&'static str, CsrGraph)> {
    let mut rng = SmallRng::seed_from_u64(0x10c);
    vec![
        ("gnp40", generators::gnp(40, 0.12, &mut rng)),
        ("udg40", generators::unit_disk(40, 0.25, &mut rng)),
    ]
}

/// Every registered name as a buildable spec (`connected` needs an
/// inner solver).
fn specs() -> Vec<String> {
    kw_domset::default_registry()
        .names()
        .map(|name| match name {
            "connected" => "connected(kw:k=2)".to_string(),
            other => other.to_string(),
        })
        .collect()
}

/// FNV-1a 64 over the membership bitmap, one byte per node.
fn fnv1a(members: &[bool]) -> u64 {
    members.iter().fold(0xcbf2_9ce4_8422_2325, |h, &m| {
        (h ^ u64::from(m)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run_cell(
    spec: &str,
    g: &CsrGraph,
    seed: u64,
    chaos: &str,
) -> Result<(u64, usize, usize, u64, u64), String> {
    let registry = kw_domset::default_registry();
    let ctx = SolveContext {
        seed,
        threads: 1,
        faults: ChaosPlan::parse(chaos).unwrap(),
        ..SolveContext::default()
    };
    let report = registry
        .build(spec)
        .unwrap()
        .solve(g, &ctx)
        .map_err(|e| e.to_string())?;
    Ok((
        fnv1a(&report.dominating_set.to_bool_vec(g)),
        report.size(),
        report.rounds(),
        report.messages(),
        report.metrics.bits,
    ))
}

#[test]
fn registry_outputs_match_the_lock() {
    let mut actual = Vec::new();
    for spec in specs() {
        for (label, g) in workloads() {
            for seed in [0u64, 1] {
                for chaos in ["", LOSSY] {
                    actual.push((
                        spec.clone(),
                        label,
                        seed,
                        chaos,
                        run_cell(&spec, &g, seed, chaos),
                    ));
                }
            }
        }
    }
    let mut drift = Vec::new();
    for (spec, label, seed, chaos, row) in &actual {
        let expected = LOCK
            .iter()
            .find(|(s, l, sd, c, _)| s == spec && l == label && sd == seed && c == chaos)
            .map(|(.., row)| row.map_err(str::to_string));
        if expected.as_ref() != Some(row) {
            drift.push(format!(
                "{spec} on {label} seed {seed} chaos {chaos:?}: expected {expected:?}, got {row:?}"
            ));
        }
    }
    assert_eq!(actual.len(), LOCK.len(), "the lock covers every cell once");
    assert!(drift.is_empty(), "outputs drifted:\n{}", drift.join("\n"));
}
