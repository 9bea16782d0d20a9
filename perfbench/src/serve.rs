//! The `serve-mix` workload: an in-process `kw_serve::Server` over
//! loopback TCP, driven closed loop by keep-alive connections.
//!
//! Before timing starts the benchmark writes a run store of
//! [`STORE_RECORDS`] records: [`HOT`] hot cells solved for real, the rest
//! filler cells of the same solver and graph family. Set-up restarts the
//! daemon over that store ([`SETUP_REPEATS`] times), so `setup_s` is
//! daemon start plus store replay. Each connection then sends blocks of
//! [`BLOCK`] requests: one fresh `kw:k=3` cell (graph build, solve, store
//! append, cache insert) and nine hot cells (cache hits). The deadline is
//! checked only between blocks, so hits are exactly nine in ten.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use kw_bench::workloads::Workload;
use kw_core::math::alg3_rounds;
use kw_core::solver::{DsSolver, RunOutcome, RunRecord};
use kw_results::json::Json;
use kw_results::store::RunStore;
use kw_serve::{parse_request, ServeConfig, Server, SolveService};

use crate::solve::{
    build_solver, check_report, context, print_latency, probe, report_layers, EngineLayers, K,
    SETUP_REPEATS, SOLVER,
};
use crate::stats::{
    derive, graph_mb, median, percentile, rss_mb, window_count, window_rates, Fnv, Spans,
};
use crate::{write_spans, Args, Report};

/// Hot cells: every hit asks for one of them.
const HOT: u64 = 64;
/// Records in the pre-written store (hot cells included).
const STORE_RECORDS: u64 = 100_000;
/// Requests per block: one fresh cell and `BLOCK - 1` hot ones.
const BLOCK: u64 = 10;
/// Client connections, one load thread each (the host has 2 cores).
const CONNECTIONS: u64 = 2;
/// Daemon worker threads.
const WORKERS: usize = 2;
/// Fresh cells whose answers are re-solved in process and compared.
const MISS_CHECKS: usize = 24;
/// In-process probes of the hit path in the traced run.
const PROBE_HITS: u64 = 256;
/// In-process probes of the miss path (and of its solve) in the traced run.
const PROBE_MISSES: u64 = 16;
/// Fresh cells served when `peak_rss_mb` is read. The daemon keeps every
/// graph it builds, so its memory grows with the fresh cells served;
/// reading the peak at a fixed count keeps the metric a measure of memory
/// per unit of work, not of how many cells a faster daemon fits into the
/// run.
const FRESH_MARK: u64 = 500;

const TAG_HOT: u64 = 11;
const TAG_FILLER: u64 = 12;
const TAG_FRESH: u64 = 13;
const TAG_BLOCK: u64 = 14;
const TAG_PICK: u64 = 15;
const TAG_PROBE: u64 = 16;
const TAG_PROBE_SOLVE: u64 = 17;

/// The graph family of every cell: `G(2000, 0.008)`.
fn family() -> Workload {
    Workload::Gnp { n: 2000, p: 0.008 }
}

/// One request of the mix.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// A hot cell, by index.
    Hit(u64),
    /// A fresh cell, by seed.
    Miss(u64),
}

/// The `k`-th request of connection `c`: a pure function of the seed.
fn request_at(seed: u64, c: u64, k: u64) -> Kind {
    let block = k / BLOCK;
    if derive(seed, TAG_BLOCK ^ c, block) % BLOCK == k % BLOCK {
        Kind::Miss(derive(seed, TAG_FRESH, (c << 48) | block))
    } else {
        Kind::Hit(derive(seed, TAG_PICK ^ c, k) % HOT)
    }
}

fn hot_seed(seed: u64, j: u64) -> u64 {
    derive(seed, TAG_HOT, j)
}

fn raw_request(cell_seed: u64) -> Vec<u8> {
    let body = format!(
        "{{\"workload\":\"{}\",\"solver\":\"{SOLVER}\",\"seed\":{cell_seed}}}",
        family().spec()
    );
    format!(
        "POST /solve HTTP/1.1\r\nHost: kw-serve\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Writes the store the daemon replays: the hot cells, solved for real,
/// then filler records. Returns the hot records, by index.
fn write_store(path: &Path, seed: u64, solver: &dyn DsSolver) -> Result<Vec<RunRecord>, String> {
    let _ = std::fs::remove_file(path);
    let store = RunStore::open(path).map_err(|e| e.to_string())?;
    let label = family().label();
    let hot = (0..HOT)
        .map(|j| solve_cell(solver, hot_seed(seed, j)))
        .collect::<Result<Vec<_>, _>>()?;
    for r in &hot {
        store.append_record(r).map_err(|e| e.to_string())?;
    }
    for i in 0..STORE_RECORDS - HOT {
        let x = derive(seed, TAG_FILLER, i);
        let size = 200 + x % 100;
        store
            .append_record(&RunRecord {
                solver: SOLVER.to_string(),
                workload: label.clone(),
                n: 2000,
                max_degree: 30 + (x % 8) as usize,
                seed: x,
                chaos: String::new(),
                threads: 1,
                outcome: RunOutcome {
                    dominates: true,
                    size: size as f64,
                    rounds: 44.0,
                    messages: 700_000.0 + (x % 5000) as f64,
                    bits: 9_000_000.0 + (x % 70_000) as f64,
                    ratio_vs_lemma1: size as f64 / 160.0,
                    wall_ms: 5.0 + (x % 1000) as f64 / 100.0,
                },
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(hot)
}

/// One timed request.
struct Sample {
    kind: Kind,
    start: Instant,
    end: Instant,
    /// Status and body, or the transport error.
    result: Result<(u16, Vec<u8>), String>,
}

/// Reads one `Content-Length`-framed response.
fn read_response(stream: &mut TcpStream) -> std::io::Result<(u16, Vec<u8>)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
            let status = head
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse::<u16>().ok())
                .ok_or_else(|| bad("bad status line"))?;
            let length = head
                .split("\r\n")
                .filter_map(|l| l.split_once(':'))
                .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
                .and_then(|(_, v)| v.trim().parse::<usize>().ok())
                .ok_or_else(|| bad("no Content-Length"))?;
            let body_start = head_end + 4;
            if buf.len() >= body_start + length {
                return Ok((status, buf[body_start..body_start + length].to_vec()));
            }
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed mid-response"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    Ok(stream)
}

/// State the load threads share.
struct Load {
    /// Releases the connections together once all are connected.
    start: Barrier,
    /// Fresh cells answered so far.
    fresh_done: AtomicU64,
    /// Peak resident MiB when the `FRESH_MARK`-th fresh cell was answered.
    mark_mb: OnceLock<f64>,
}

/// One closed-loop connection: sends its request sequence until the
/// first block boundary after `seconds`, reconnecting after a transport
/// error.
fn client(addr: SocketAddr, seed: u64, c: u64, seconds: f64, load: &Load) -> Vec<Sample> {
    let mut conn = connect(addr).ok();
    load.start.wait();
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut k = 0u64;
    while !k.is_multiple_of(BLOCK) || start.elapsed().as_secs_f64() < seconds {
        let kind = request_at(seed, c, k);
        let raw = raw_request(match kind {
            Kind::Hit(j) => hot_seed(seed, j),
            Kind::Miss(s) => s,
        });
        let t = Instant::now();
        let result = match conn.take().map_or_else(|| connect(addr), Ok) {
            Ok(mut stream) => match stream
                .write_all(&raw)
                .and_then(|()| read_response(&mut stream))
            {
                Ok(resp) => {
                    conn = Some(stream);
                    Ok(resp)
                }
                Err(e) => Err(e.to_string()),
            },
            Err(e) => Err(e.to_string()),
        };
        let end = Instant::now();
        if matches!(kind, Kind::Miss(_))
            && load.fresh_done.fetch_add(1, Ordering::Relaxed) + 1 == FRESH_MARK
        {
            let _ = load.mark_mb.set(rss_mb().1);
        }
        samples.push(Sample {
            kind,
            start: t,
            end,
            result,
        });
        k += 1;
    }
    samples
}

/// Compares a response payload with the expected cell answer.
fn check_payload(body: &[u8], want: &RunRecord, cached: bool) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 body".to_string())?;
    let j = Json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let num = |k: &str| j.get(k).and_then(Json::as_f64);
    let o = &want.outcome;
    let checks: [(&str, bool); 13] = [
        (
            "solver",
            j.get("solver").and_then(Json::as_str) == Some(want.solver.as_str()),
        ),
        (
            "workload",
            j.get("workload").and_then(Json::as_str) == Some(want.workload.as_str()),
        ),
        (
            "seed",
            j.get("seed").and_then(Json::as_u64) == Some(want.seed),
        ),
        ("threads", num("threads") == Some(want.threads as f64)),
        ("n", num("n") == Some(want.n as f64)),
        (
            "max_degree",
            num("max_degree") == Some(want.max_degree as f64),
        ),
        (
            "cached",
            j.get("cached").and_then(Json::as_bool) == Some(cached),
        ),
        (
            "dominates",
            j.get("dominates").and_then(Json::as_bool) == Some(o.dominates),
        ),
        ("size", num("size") == Some(o.size)),
        ("rounds", num("rounds") == Some(o.rounds)),
        ("messages", num("messages") == Some(o.messages)),
        ("bits", num("bits") == Some(o.bits)),
        (
            "ratio_vs_lemma1",
            num("ratio_vs_lemma1") == Some(o.ratio_vs_lemma1),
        ),
    ];
    // A replayed answer reports the original solve's wall time; a fresh
    // one reports its own, which nothing can predict.
    if cached && num("wall_ms") != Some(o.wall_ms) {
        return Err(format!(
            "wall_ms {:?} != stored {}",
            num("wall_ms"),
            o.wall_ms
        ));
    }
    match checks.iter().find(|(_, ok)| !ok) {
        Some((name, _)) => Err(format!(
            "field {name} differs from the expected answer: {text}"
        )),
        None => Ok(()),
    }
}

/// The answer to a cell, solved and checked in process: what the daemon
/// must serve for it. `wall_ms` is this solve's time.
fn solve_cell(solver: &dyn DsSolver, cell_seed: u64) -> Result<RunRecord, String> {
    let fam = family();
    let g = fam.build(cell_seed);
    let start = Instant::now();
    let r = solver
        .solve(&g, &context(cell_seed, 1))
        .map_err(|e| e.to_string())?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    check_report(&r)?;
    let cert = r.certificate.as_ref().ok_or("no certificate")?;
    Ok(RunRecord {
        solver: SOLVER.to_string(),
        workload: fam.label(),
        n: g.len(),
        max_degree: g.max_degree(),
        seed: cell_seed,
        chaos: String::new(),
        threads: 1,
        outcome: RunOutcome {
            dominates: cert.dominates,
            size: r.size() as f64,
            rounds: r.rounds() as f64,
            messages: r.messages() as f64,
            bits: r.metrics.bits as f64,
            ratio_vs_lemma1: cert.ratio_vs_lemma1,
            wall_ms,
        },
    })
}

/// Checks what every fresh answer must be: computed now, dominating, and
/// 44 rounds long.
fn check_fresh(body: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(body);
    let j = Json::parse(&text).map_err(|e| format!("body is not JSON: {e}"))?;
    if j.get("cached").and_then(Json::as_bool) == Some(false)
        && j.get("dominates").and_then(Json::as_bool) == Some(true)
        && j.get("rounds").and_then(Json::as_f64) == Some((alg3_rounds(K) + 2) as f64)
    {
        Ok(())
    } else {
        Err(format!("not a fresh dominating 44-round answer: {text}"))
    }
}

/// The run store the daemon replays, private to this process.
fn store_path(args: &Args) -> PathBuf {
    args.work_dir
        .join(format!("serve-store-{}.jsonl", std::process::id()))
}

fn start_server(store: &Path) -> Result<Server, String> {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        queue_depth: 64,
        store: Some(store.to_path_buf()),
        deadline: Duration::from_secs(30),
    })
    .map_err(|e| e.to_string())
}

/// Times parse, handle and render of one request against the live
/// service, each in its own span under `root`; returns the response
/// status and body.
fn probe_request(
    spans: &mut Spans,
    service: &SolveService,
    raw: &[u8],
    handle_span: &'static str,
) -> Result<(u16, Vec<u8>), String> {
    let root = spans.begin("serve.request", 0);
    let id = spans.begin("serve.parse", root);
    let parsed = parse_request(raw);
    spans.end(id);
    let req = match parsed {
        Ok(Some((req, _))) => req,
        other => return Err(format!("request did not parse: {other:?}")),
    };
    let id = spans.begin(handle_span, root);
    let resp = service.handle(&req);
    spans.end(id);
    let id = spans.begin("serve.render", root);
    let bytes = resp.render();
    spans.end(id);
    spans.end(root);
    if bytes.is_empty() {
        return Err("empty rendering".into());
    }
    Ok((resp.status, resp.body))
}

pub fn run(args: &Args, report: &mut Report) {
    let fam = family();
    println!(
        "input: kw-serve ({WORKERS} workers) over loopback, {CONNECTIONS} closed-loop keep-alive \
         connections, blocks of {BLOCK} requests: 1 fresh {SOLVER} cell on {} and {} hits on \
         {HOT} hot cells; store of {STORE_RECORDS} records",
        fam.label(),
        BLOCK - 1
    );
    let store_path = store_path(args);
    let solver = build_solver();
    let mut spans = Spans::new(args.trace);

    let t = Instant::now();
    let hot = match write_store(&store_path, args.seed, &*solver) {
        Ok(hot) => hot,
        Err(e) => {
            report.problem(format!("cannot write the store: {e}"));
            return;
        }
    };
    println!(
        "store: {STORE_RECORDS} records written in {:.3} s (before set-up)",
        t.elapsed().as_secs_f64()
    );
    let mut fp = Fnv::new();
    for r in &hot {
        fp.u64(r.seed);
    }
    for i in 0..STORE_RECORDS - HOT {
        fp.u64(derive(args.seed, TAG_FILLER, i));
    }
    for c in 0..CONNECTIONS {
        for k in 0..10_000 {
            match request_at(args.seed, c, k) {
                Kind::Hit(j) => fp.u64(j),
                Kind::Miss(s) => fp.u64(s),
            }
        }
    }
    println!("input fingerprint: {:016x}", fp.finish());

    // Set-up: daemon start plus store replay, repeated; the last daemon
    // serves the load.
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(s) = server.take() {
            Server::shutdown(s);
        }
        let t = Instant::now();
        match start_server(&store_path) {
            Ok(s) => server = Some(s),
            Err(e) => {
                report.problem(format!("daemon did not start: {e}"));
                return;
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("set-up ran at least once");
    println!("setup: daemon start + replay {SETUP_REPEATS} times: {setups:?} s");
    let warmed = server.service().warmed() as u64;
    if warmed != STORE_RECORDS {
        report.problem(format!(
            "daemon warmed {warmed} answers, want {STORE_RECORDS}"
        ));
    }

    // The timed closed loop.
    let rss_before = rss_mb().0;
    let addr = server.addr();
    let load = Load {
        start: Barrier::new(CONNECTIONS as usize + 1),
        fresh_done: AtomicU64::new(0),
        mark_mb: OnceLock::new(),
    };
    let (start, per_client) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let load = &load;
                scope.spawn(move || client(addr, args.seed, c, args.seconds, load))
            })
            .collect();
        load.start.wait();
        let start = Instant::now();
        let samples: Vec<Vec<Sample>> = handles
            .into_iter()
            .map(|h| h.join().expect("a load thread panicked"))
            .collect();
        (start, samples)
    });
    let elapsed = start.elapsed().as_secs_f64();
    let hwm = match load.mark_mb.get() {
        Some(&mb) => mb,
        None => {
            println!(
                "note: only {} fresh cells answered; peak_rss_mb is read at the end, not at {FRESH_MARK}",
                load.fresh_done.load(Ordering::Relaxed)
            );
            rss_mb().1
        }
    };
    let cache = server.service().cache();
    let (hits, misses) = (cache.hits(), cache.misses());
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    if hits * BLOCK != (hits + misses) * (BLOCK - 1) {
        report.problem(format!(
            "cache hits {hits} of {} lookups, want 9 in 10",
            hits + misses
        ));
    }

    // Check every answer.
    let mut hit_ms = Vec::new();
    let mut miss_ms = Vec::new();
    let mut all_ms = Vec::new();
    let mut completions = Vec::new();
    let mut fresh = Vec::new();
    for s in per_client.iter().flatten() {
        report.attempted += 1;
        let ms = s.end.duration_since(s.start).as_secs_f64() * 1e3;
        let name = match s.kind {
            Kind::Hit(_) => "request.hit",
            Kind::Miss(_) => "request.miss",
        };
        spans.record(name, s.start, s.end);
        let verdict = match &s.result {
            Err(e) => Err(format!("transport error: {e}")),
            Ok((status, body)) if *status != 200 => Err(format!(
                "status {status}: {}",
                String::from_utf8_lossy(body)
            )),
            Ok((_, body)) => match s.kind {
                Kind::Hit(j) => check_payload(body, &hot[j as usize], true),
                Kind::Miss(seed) => {
                    fresh.push((seed, body));
                    check_fresh(body)
                }
            },
        };
        match verdict {
            Ok(()) => {
                all_ms.push(ms);
                completions.push(s.end.saturating_duration_since(start).as_secs_f64());
                match s.kind {
                    Kind::Hit(_) => hit_ms.push(ms),
                    Kind::Miss(_) => miss_ms.push(ms),
                }
            }
            Err(e) => {
                report.failed += 1;
                report.problem(format!("{name}: {e}"));
            }
        }
    }
    println!(
        "measured: {} requests ({} hits, {} fresh) in {elapsed:.3} s; cache hit ratio {hit_ratio}",
        all_ms.len(),
        hit_ms.len(),
        miss_ms.len()
    );

    // Fresh answers must equal an in-process solve of the same cell.
    let stride = (fresh.len() / MISS_CHECKS).max(1);
    let mut checked = 0;
    for (seed, body) in fresh.iter().step_by(stride).take(MISS_CHECKS) {
        checked += 1;
        let verdict =
            solve_cell(&*solver, *seed).and_then(|want| check_payload(body, &want, false));
        if let Err(e) = verdict {
            report.failed += 1;
            report.problem(format!("fresh cell {seed}: {e}"));
        }
    }
    println!("miss check: {checked} fresh answers re-solved in process");

    print_latency("hit", &hit_ms);
    print_latency("miss", &miss_ms);
    print_latency("request", &all_ms);
    let rates = window_rates(&completions, window_count(completions.len()));
    println!(
        "serve: hit_ms_p50={} miss_ms_p50={} req_per_s={} (n={}, {}, {} windows)",
        median(&hit_ms),
        median(&miss_ms),
        median(&rates),
        hit_ms.len(),
        miss_ms.len(),
        rates.len()
    );

    if args.trace {
        trace_layers(args, report, &mut spans, server, &hit_ms, &*solver, &hot);
        report.metric("serve.hit_ratio", hit_ratio, (hits + misses) as usize);
        report.metric("mem.solve_peak_mb", hwm - rss_before, 1);
        let (m, a) = (miss_ms.len(), all_ms.len());
        report.metric("tail.solve_ms_p95", percentile(&miss_ms, 95.0), m);
        report.metric("tail.solve_ms_p99", percentile(&miss_ms, 99.0), m);
        report.metric("tail.call_ms_p95", percentile(&all_ms, 95.0), a);
        report.metric("tail.call_ms_p99", percentile(&all_ms, 99.0), a);
        write_spans(&spans, args, report);
    } else {
        server.shutdown();
        report.metric("setup_s", median(&setups), setups.len());
        // A fresh cell is the daemon's solve path: graph build, solve,
        // store append, cache insert, HTTP.
        report.metric("solve_ms_p50", median(&miss_ms), miss_ms.len());
        report.metric("call_ms_p50", median(&all_ms), all_ms.len());
        report.metric("calls_per_s", median(&rates), rates.len());
        report.metric("peak_rss_mb", hwm, 1);
    }
    let _ = std::fs::remove_file(&store_path);
}

/// The traced run's in-process probes: the serve path's parse, handle
/// and render; the solve of a fresh cell; store append and replay.
fn trace_layers(
    args: &Args,
    report: &mut Report,
    spans: &mut Spans,
    server: Server,
    hit_ms: &[f64],
    solver: &dyn DsSolver,
    hot: &[RunRecord],
) {
    let service = server.service();
    for q in 0..PROBE_HITS {
        let raw = raw_request(hot[(q % HOT) as usize].seed);
        match probe_request(spans, service, &raw, "serve.handle_hit") {
            Ok((200, _)) => {}
            other => report.problem(format!("hit probe {q}: {other:?}")),
        }
    }
    for q in 0..PROBE_MISSES {
        let raw = raw_request(derive(args.seed, TAG_PROBE, q));
        match probe_request(spans, service, &raw, "serve.handle_miss") {
            Ok((200, _)) => {}
            other => report.problem(format!("miss probe {q}: {other:?}")),
        }
    }
    let us = |name: &str| spans.median_ms(name) * 1e3;
    let (parse, handle_hit, render) = (
        us("serve.parse"),
        us("serve.handle_hit"),
        us("serve.render"),
    );
    let probes = spans.durations_ms("serve.parse").len();
    report.metric("serve.parse_us", parse, probes);
    report.metric("serve.handle_hit_us", handle_hit, PROBE_HITS as usize);
    report.metric(
        "serve.handle_miss_ms",
        spans.median_ms("serve.handle_miss"),
        PROBE_MISSES as usize,
    );
    report.metric("serve.render_us", render, probes);
    report.metric(
        "serve.transport_us",
        median(hit_ms) * 1e3 - parse - handle_hit - render,
        hit_ms.len(),
    );
    server.shutdown();

    // The solve a fresh cell costs, layer by layer.
    let fam = family();
    let graphs: Vec<(u64, kw_graph::CsrGraph)> = (0..PROBE_MISSES)
        .map(|q| {
            let seed = derive(args.seed, TAG_PROBE_SOLVE, q);
            let id = spans.begin("graph.build", 0);
            let g = fam.build(seed);
            spans.end(id);
            (seed, g)
        })
        .collect();
    // The daemon keeps the graph of every fresh cell it answers; this is
    // what those graphs hold when `peak_rss_mb` is read.
    let mean_mb = graphs.iter().map(|(_, g)| graph_mb(g)).sum::<f64>() / graphs.len() as f64;
    report.metric("mem.graph_mb", FRESH_MARK as f64 * mean_mb, graphs.len());
    report.metric(
        "graph.build_ms",
        spans.median_ms("graph.build"),
        graphs.len(),
    );
    let mut layers = EngineLayers::default();
    for (q, (seed, g)) in (0..).zip(&graphs) {
        probe(spans, &mut layers, solver, g, *seed, 1, q, report);
    }
    report_layers(spans, &layers, report);

    // Store append, into a store of its own.
    let append_path = args
        .work_dir
        .join(format!("serve-append-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&append_path);
    match RunStore::open(&append_path) {
        Ok(store) => {
            for q in 0..PROBE_HITS {
                let record = RunRecord {
                    seed: derive(args.seed, TAG_PROBE, q),
                    ..hot[0].clone()
                };
                let id = spans.begin("results.append", 0);
                let appended = store.append_record(&record);
                spans.end(id);
                if let Err(e) = appended {
                    report.problem(format!("append {q}: {e}"));
                }
            }
        }
        Err(e) => report.problem(format!("cannot open {}: {e}", append_path.display())),
    }
    let _ = std::fs::remove_file(&append_path);
    report.metric(
        "results.append_us",
        spans.median_ms("results.append") * 1e3,
        PROBE_HITS as usize,
    );

    // Store replay: the daemon's start without its sockets.
    for _ in 0..SETUP_REPEATS {
        let id = spans.begin("results.replay", 0);
        let service = SolveService::new(Some(&store_path(args)));
        spans.end(id);
        match service {
            Ok(s) if s.warmed() as u64 >= STORE_RECORDS => {}
            Ok(s) => report.problem(format!("replay warmed {} answers", s.warmed())),
            Err(e) => report.problem(format!("replay failed: {e}")),
        }
    }
    report.metric(
        "results.replay_ms",
        spans.median_ms("results.replay"),
        SETUP_REPEATS,
    );
}
