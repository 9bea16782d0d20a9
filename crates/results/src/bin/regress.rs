//! Regression gate over run stores.
//!
//! ```text
//! regress <baseline.jsonl> <candidate.jsonl>
//! regress --validate <store.jsonl>
//! regress --check-json <file.json>
//! regress --render-bench <store.jsonl> <out.json>
//! ```
//!
//! Diffs the candidate store against the baseline with
//! [`kw_results::regress::gate`] — record cells, bench lines, trace
//! phase shares and multi-thread speedups, each under its fixed budget;
//! prints every finding and exits 1 if any, 0 when clean, 2 on usage or
//! load errors. `--validate` just schema-checks one store (CI uses it on
//! freshly written stores, whose absolute timings are machine-dependent
//! and therefore only self-compared). `--check-json` verifies a file
//! parses as JSON (CI uses it on exported Chrome traces).
//! `--render-bench` regenerates the human-readable `BENCH_engine.json`
//! view from a bench store — the JSONL store is the source of truth;
//! the JSON view is derived.

use kw_results::json::Json;
use kw_results::regress::{
    gate, latest_benches, MAX_PHASE_SHARE_DRIFT, MAX_QUALITY_RATIO, MAX_SCALING_DROP,
    MAX_TIME_RATIO,
};
use kw_results::store::{load_path, StoreContents};

fn usage() -> ! {
    eprintln!(
        "usage: regress <baseline.jsonl> <candidate.jsonl>\n\
         \x20      regress --validate <store.jsonl>\n\
         \x20      regress --check-json <file.json>\n\
         \x20      regress --render-bench <store.jsonl> <out.json>"
    );
    std::process::exit(2);
}

fn load(path: &str) -> StoreContents {
    // Strictly read-only: a gate must never conjure a missing baseline
    // into existence and call it a pass, repair tails, or contend for
    // the writer lock a live daemon or sweep is holding.
    if !std::path::Path::new(path).exists() {
        eprintln!("regress: store {path} does not exist");
        std::process::exit(2);
    }
    match load_path(path) {
        Ok(contents) => contents,
        Err(e) => {
            eprintln!("regress: cannot load {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// `--validate`: schema-check one store and print its line counts.
fn validate(path: &str) -> ! {
    let contents = load(path);
    println!(
        "{path}: valid ({} manifests, {} records, {} bench lines, {} trace lines{})",
        contents.manifests.len(),
        contents.records.len(),
        contents.benches.len(),
        contents.traces.len(),
        if contents.truncated_tail {
            ", torn tail skipped"
        } else {
            ""
        }
    );
    std::process::exit(0);
}

/// `--check-json`: the file must parse as a single JSON value. Used by
/// CI on exported Chrome traces, where a torn or truncated export would
/// otherwise only fail when a human loads it into Perfetto.
fn check_json(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("regress: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match Json::parse(&text) {
        Ok(v) => {
            let events = v
                .get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len);
            match events {
                Some(n) => println!("{path}: well-formed Chrome trace ({n} events)"),
                None => println!("{path}: well-formed JSON"),
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("regress: {path} is not valid JSON: {e}");
            std::process::exit(1);
        }
    }
}

/// `--render-bench`: regenerate the pretty JSON view of a bench store.
/// Groups the latest measurement per `(bench, id)` (re-runs append;
/// newest wins) by group name, and stamps the render with its
/// provenance so nobody mistakes the view for the data.
fn render_bench(store_path: &str, out_path: &str) -> ! {
    let contents = load(store_path);
    if contents.benches.is_empty() {
        eprintln!("regress: {store_path} holds no bench lines to render");
        std::process::exit(2);
    }
    let mut groups: Vec<(String, Vec<(String, f64)>)> = Vec::new();
    for (bench, id, ms) in latest_benches(&contents.benches) {
        match groups.iter_mut().find(|(name, _)| *name == bench) {
            Some((_, ids)) => ids.push((id, ms)),
            None => groups.push((bench, vec![(id, ms)])),
        }
    }
    let rendered = Json::obj([
        (
            "note",
            Json::Str(format!(
                "Rendered view of {store_path} — regenerate with \
                 `regress --render-bench {store_path} <out>`. The JSONL \
                 store is the source of truth and is what `regress` \
                 compares; do not edit this file by hand."
            )),
        ),
        ("history", Json::Str("docs/BENCH_HISTORY.md".to_string())),
        (
            "source",
            Json::Str(
                std::path::Path::new(store_path)
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| store_path.to_string()),
            ),
        ),
        (
            "groups",
            Json::Obj(
                groups
                    .into_iter()
                    .map(|(name, ids)| {
                        (
                            name,
                            Json::Obj(
                                ids.into_iter()
                                    .map(|(id, ms)| (id, Json::num(ms)))
                                    .collect(),
                            ),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Err(e) = std::fs::write(out_path, rendered.render() + "\n") {
        eprintln!("regress: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("{out_path}: rendered from {store_path}");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, candidate_path] = match args.as_slice() {
        [flag, path] if flag == "--validate" => validate(path),
        [flag, path] if flag == "--check-json" => check_json(path),
        [flag, store_path, out_path] if flag == "--render-bench" => {
            render_bench(store_path, out_path)
        }
        [a, b] if !a.starts_with("--") && !b.starts_with("--") => [a, b],
        _ => usage(),
    };
    let findings = gate(&load(baseline_path), &load(candidate_path));
    if findings.is_empty() {
        println!(
            "regress: OK — {candidate_path} holds the line against {baseline_path} \
             (time budget {:.0}%, quality budget {:.0}%, phase-share budget {:.0}pp, \
             scaling budget {:.0}%)",
            (MAX_TIME_RATIO - 1.0) * 100.0,
            (MAX_QUALITY_RATIO - 1.0) * 100.0,
            MAX_PHASE_SHARE_DRIFT * 100.0,
            MAX_SCALING_DROP * 100.0,
        );
        return;
    }
    eprintln!(
        "regress: {} regression(s) in {candidate_path} vs {baseline_path}:",
        findings.len()
    );
    for finding in &findings {
        eprintln!("  {finding}");
    }
    std::process::exit(1);
}
