//! End-to-end benchmark of the paper's pipeline (`kw:k=3`) and of the
//! `kw-serve` daemon.
//!
//! ```text
//! kw-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! Workloads (why each exists is recorded in `BENCHMARK.json`):
//!
//! * `solve-100k` — `kw:k=3` on a few `G(100 000, 16/n)` graphs, 1 thread;
//! * `solve-1k` — `kw:k=3` on 64 `G(1000, 0.016)` graphs, 1 thread, with
//!   2-thread reference outputs computed in set-up;
//! * `serve-mix` — an in-process `kw_serve::Server` over loopback TCP,
//!   driven closed loop by 2 keep-alive connections, 9 hot-cell requests
//!   to 1 fresh `kw:k=3` cell.
//!
//! The program only sees inputs generated from `--seed`. Every output is
//! checked. With `--trace 0` the run measures the end-to-end metrics;
//! with `--trace 1` it measures the per-layer metrics, recording spans
//! around each call into the program and writing them to `--work-dir`
//! at the end. Metric names and units come from `BENCHMARK.json` in the
//! working directory; every workload reports every metric of its mode. The last line of standard output is one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`; the exit code
//! is non-zero when any check failed.

mod serve;
mod solve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use kw_results::json::Json;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for run stores and span files.
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} must be in (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples the value was computed from (0 for a bypassed layer).
    pub samples: usize,
}

/// What a workload run produced: operation counts, failed checks, and
/// metrics.
pub struct Report {
    /// `(name, unit)` of every metric this run must report.
    table: Vec<(String, String)>,
    /// Timed operations: solves, or requests.
    pub attempted: u64,
    /// Operations that failed a check, got a non-2xx status (including
    /// a 503 shed), or hit a transport error.
    pub failed: u64,
    /// Failed checks, operation-level or run-level.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn new(table: Vec<(String, String)>) -> Self {
        Report {
            table,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Records metric `name`; its unit comes from `BENCHMARK.json`.
    pub fn metric(&mut self, name: &str, value: f64, samples: usize) {
        let value = if value.is_finite() {
            value
        } else {
            self.problem(format!("metric {name} is {value}"));
            0.0
        };
        let unit = self
            .table
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, u)| u.clone())
            .unwrap_or_else(|| panic!("metric {name} is not listed for this mode"));
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Reports 0 for every metric under `prefix`: the workload does not
    /// run that layer.
    pub fn bypass(&mut self, prefix: &str) {
        let names: Vec<String> = self
            .table
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(n, _)| n.clone())
            .collect();
        for name in names {
            self.metric(&name, 0.0, 0);
        }
    }

    /// Records a failed check.
    pub fn problem(&mut self, what: String) {
        const SHOWN: usize = 20;
        match self.problems.len() {
            n if n < SHOWN => eprintln!("check failed: {what}"),
            SHOWN => eprintln!("check failed: (further failures counted, not shown)"),
            _ => {}
        }
        self.problems.push(what);
    }
}

/// Writes the traced run's spans to the work directory.
pub fn write_spans(spans: &stats::Spans, args: &Args, report: &mut Report) {
    let path = args
        .work_dir
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match spans.write(&path) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => report.problem(format!("cannot write {}: {e}", path.display())),
    }
}

/// `(name, unit)` of the `end_to_end` (`trace` false) or `per_layer`
/// metrics in `BENCHMARK.json`.
fn metric_table(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    json.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("BENCHMARK.json: a {key} entry lacks a name or unit"))
        })
        .collect()
}

/// `nproc`, the CPU model, and `git describe`, printed with every result:
/// absolute times do not compare across hosts or commits.
fn print_host() {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let git = git_describe().unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    println!("host: nproc={nproc} cpu=\"{cpu}\" git={git}");
}

/// `git describe --always --dirty` when the working directory is the top
/// of a git checkout; `None` otherwise (never a parent directory's repo).
fn git_describe() -> Option<String> {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
    };
    let top = PathBuf::from(git(&["rev-parse", "--show-toplevel"])?);
    let cwd = std::env::current_dir().ok()?;
    if top.canonicalize().ok()? != cwd.canonicalize().ok()? {
        return None;
    }
    git(&["describe", "--always", "--dirty"])
}

fn json_line(correct: bool, report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kw-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!(
            "kw-perfbench: cannot create {}: {e}",
            args.work_dir.display()
        );
        return ExitCode::from(2);
    }
    print_host();
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let table = match metric_table(args.trace) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("kw-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(table);
    match args.workload.as_str() {
        "solve-100k" => solve::run(&solve::SOLVE_100K, &args, &mut report),
        "solve-1k" => solve::run(&solve::SOLVE_1K, &args, &mut report),
        "serve-mix" => serve::run(&args, &mut report),
        other => {
            eprintln!("kw-perfbench: unknown workload {other:?} (solve-100k, solve-1k, serve-mix)");
            return ExitCode::from(2);
        }
    }

    // A run cut short by a failed check reports what it measured.
    if report.problems.is_empty() {
        let mut names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        let mut expected: Vec<&str> = report.table.iter().map(|(n, _)| n.as_str()).collect();
        expected.sort_unstable();
        assert_eq!(
            names, expected,
            "the workload must report exactly its mode's metrics"
        );
    }
    for m in &report.metrics {
        if m.samples == 0 {
            println!(
                "metric {} = {} {} (layer bypassed)",
                m.name, m.value, m.unit
            );
        } else {
            println!(
                "metric {} = {} {} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
    let correct = report.failed == 0 && report.problems.is_empty() && report.attempted > 0;
    println!(
        "operations: attempted={} failed={} failed_checks={} checks={}",
        report.attempted,
        report.failed,
        report.problems.len(),
        if correct { "pass" } else { "FAIL" }
    );
    println!("{}", json_line(correct, &report));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
