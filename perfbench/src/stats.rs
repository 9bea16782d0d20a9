//! Order statistics, throughput windows, process memory, input
//! fingerprints, and the in-memory span recorder of the traced run.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`; 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Operations completed per second in consecutive windows: the sorted
/// completion times (seconds since the measured interval began) are cut
/// into `windows` groups of equal count, and each group's rate is its
/// count over the time since the previous group's last completion.
/// Counting by completions rather than by clock slices keeps slow
/// operations (a 100k-node solve) from quantizing the rates.
pub fn window_rates(completions: &[f64], windows: usize) -> Vec<f64> {
    let mut done = completions.to_vec();
    done.sort_by(f64::total_cmp);
    let per = done.len() / windows.max(1);
    if per == 0 {
        return Vec::new();
    }
    let mut rates = Vec::with_capacity(windows);
    let mut prev = 0.0;
    for w in 0..windows {
        let last = done[(w + 1) * per - 1];
        if last > prev {
            rates.push(per as f64 / (last - prev));
        }
        prev = last;
    }
    rates
}

/// How many throughput windows a run of `n` operations is cut into: 20
/// once each still holds at least 5 operations, else 10, and never more
/// than `n` (a run too slow for 10 windows still reports a rate).
pub fn window_count(n: usize) -> usize {
    if n >= 100 {
        20
    } else {
        n.min(10)
    }
}

/// `(VmRSS, VmHWM)` of this process in MiB, from `/proc/self/status`
/// (`(0, 0)` where that file does not exist).
pub fn rss_mb() -> (f64, f64) {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// MiB held by a graph's CSR arrays, computed from their lengths.
pub fn graph_mb(g: &kw_graph::CsrGraph) -> f64 {
    (std::mem::size_of_val(g.offsets()) + std::mem::size_of_val(g.targets())) as f64
        / (1024.0 * 1024.0)
}

/// 64-bit FNV-1a, for input fingerprints.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn graph(&mut self, g: &kw_graph::CsrGraph) {
        self.u64(g.len() as u64);
        for &o in g.offsets() {
            self.u64(u64::from(o));
        }
        for &t in g.targets() {
            self.u64(u64::from(t));
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A seed derived from the workload seed, a purpose tag, and an index.
pub fn derive(seed: u64, tag: u64, i: u64) -> u64 {
    kw_sim::rng::split_mix64(kw_sim::rng::split_mix64(seed ^ tag).wrapping_add(i))
}

/// One closed span of the traced run.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    /// Id of the enclosing span; 0 for a root.
    pub parent: usize,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Spans the benchmark records around its calls into the program. They
/// stay in memory until [`Spans::write`] at the end of the run. A
/// disabled recorder (the untraced run) records nothing.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under `parent` (0 for a root) and returns its id
    /// (0 when disabled).
    pub fn begin(&mut self, name: &'static str, parent: usize) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() + 1;
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_us,
            end_us: start_us,
        });
        id
    }

    /// Closes span `id`; returns its duration in microseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        if id == 0 {
            return 0.0;
        }
        let now = self.now_us();
        let span = &mut self.spans[id - 1];
        span.end_us = now;
        span.duration_us()
    }

    /// Records an already-measured interval (e.g. a request timed on a
    /// client thread) as a root span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let (start_us, end_us) = (at(start), at(end));
        let id = self.spans.len() + 1;
        self.spans.push(Span {
            id,
            parent: 0,
            name,
            start_us,
            end_us,
        });
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_us() / 1e3)
            .collect()
    }

    /// Median duration of the spans called `name`, in milliseconds.
    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.durations_ms(name))
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                s.id, s.parent, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
    }

    #[test]
    fn window_rates_count_completions() {
        // One completion every 0.5 s: every window runs at 2/s.
        let done: Vec<f64> = (1..=40).map(|i| f64::from(i) * 0.5).collect();
        let rates = window_rates(&done, 10);
        assert_eq!(rates.len(), 10);
        assert!(rates.iter().all(|r| (r - 2.0).abs() < 1e-9));
    }
}
