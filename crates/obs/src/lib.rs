//! # skute-obs
//!
//! A zero-dependency metrics layer for Skute: atomic [`Counter`]s,
//! [`Gauge`]s and fixed-bucket latency [`Histogram`]s collected in a
//! [`Registry`] that renders the Prometheus text exposition format (and a
//! JSON snapshot for end-of-run artifacts).
//!
//! Design constraints, in order:
//!
//! 1. **Observability never perturbs trajectories.** Metric handles are
//!    plain atomics behind `Arc`s — recording is wait-free, allocates
//!    nothing, takes no locks, and (critically) is never *read* by any
//!    decision path. A Skute cloud produces bitwise-identical same-seed
//!    output with metrics attached or absent; CI's determinism matrix
//!    byte-compares exactly that.
//! 2. **No dependencies.** The build environment is offline; everything
//!    here is `std`. Exposition is hand-rendered text.
//! 3. **Cheap to hold, cheap to hammer.** Handles are `Clone` (`Arc`
//!    bumps) and safe to update from any thread, including
//!    `skute-server`'s connection threads — a property the crate's
//!    concurrency test pins down by hammering one counter from many
//!    threads.
//!
//! ## Exposition
//!
//! [`Registry::render`] groups metrics into families (one `# HELP`/
//! `# TYPE` header per family, series distinguished by labels), sorted by
//! family name so output is stable run to run:
//!
//! ```text
//! # HELP skute_server_requests_total Requests parsed, by operation.
//! # TYPE skute_server_requests_total counter
//! skute_server_requests_total{op="get"} 1290
//! skute_server_requests_total{op="put"} 645
//! ```
//!
//! Histograms follow the Prometheus convention: cumulative `_bucket`
//! series with `le` upper bounds (the bound is **inclusive**), a `_sum`
//! and a `_count`.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter (wraps at `u64::MAX`, which at one
/// increment per nanosecond takes five centuries to reach).
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A standalone counter (not registered anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (queue depths, refreshed
/// storage-engine totals).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A standalone gauge (not registered anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Nanoseconds per second — the fixed-point scale of a histogram's sum.
const NANOS_PER_UNIT: f64 = 1e9;

#[derive(Debug)]
struct HistogramInner {
    /// Finite bucket upper bounds, strictly increasing. An implicit
    /// `+Inf` bucket always follows.
    bounds: Vec<f64>,
    /// Non-cumulative per-bucket observation counts;
    /// `counts.len() == bounds.len() + 1` (the last slot is `+Inf`).
    counts: Vec<AtomicU64>,
    /// Σ observed values in fixed-point nanounits (1e-9). Atomic u64
    /// fixed-point instead of a float CAS loop: addition is exact for the
    /// integral-valued histograms (batch widths) and nanosecond-precise
    /// for latencies, and `fetch_add` is wait-free.
    sum_nanos: AtomicU64,
}

/// A fixed-bucket histogram. Observations are non-negative `f64`s
/// (seconds for latency series, plain counts for width series); negative
/// or non-finite observations are clamped to zero.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// A standalone histogram over `bounds` (finite upper bounds,
    /// strictly increasing; the `+Inf` bucket is implicit).
    ///
    /// # Panics
    /// Panics if `bounds` is unsorted, has duplicates, or holds a
    /// non-finite value.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite (+Inf is implicit)"
        );
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                counts,
                sum_nanos: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation. The matching bucket is the first whose
    /// upper bound is **≥** the value (Prometheus `le` semantics: a value
    /// exactly on a boundary lands in that boundary's bucket).
    pub fn observe(&self, v: f64) {
        let v = if v.is_finite() && v > 0.0 { v } else { 0.0 };
        let idx = self
            .inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.inner.bounds.len());
        self.inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        // Saturate rather than wrap: a histogram that has accumulated
        // 584 years of latency keeps its ceiling instead of resetting.
        let nanos = (v * NANOS_PER_UNIT).round().min(u64::MAX as f64) as u64;
        let prev = self.inner.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        if prev.checked_add(nanos).is_none() {
            self.inner.sum_nanos.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Records a duration in seconds.
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.inner
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Σ observed values.
    pub fn sum(&self) -> f64 {
        self.inner.sum_nanos.load(Ordering::Relaxed) as f64 / NANOS_PER_UNIT
    }

    /// `(upper_bound, cumulative_count)` per bucket, ending with the
    /// `+Inf` bucket (`f64::INFINITY`, total count).
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut cum = 0u64;
        let mut out = Vec::with_capacity(self.inner.bounds.len() + 1);
        for (i, c) in self.inner.counts.iter().enumerate() {
            cum += c.load(Ordering::Relaxed);
            let bound = self.inner.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, cum));
        }
        out
    }

    /// Estimated quantile (`q` in `[0, 1]`) by linear interpolation
    /// within the winning bucket — the standard Prometheus
    /// `histogram_quantile` estimator. Returns `None` when the histogram
    /// is empty. The `+Inf` bucket clamps to the highest finite bound.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0u64;
        for (i, c) in self.inner.counts.iter().enumerate() {
            let in_bucket = c.load(Ordering::Relaxed);
            let prev_cum = cum;
            cum += in_bucket;
            if (cum as f64) >= rank {
                let Some(&hi) = self.inner.bounds.get(i) else {
                    // +Inf bucket: clamp to the largest finite bound.
                    return Some(self.inner.bounds.last().copied().unwrap_or(0.0));
                };
                let lo = if i == 0 {
                    0.0
                } else {
                    self.inner.bounds[i - 1]
                };
                if in_bucket == 0 {
                    return Some(hi);
                }
                let frac = (rank - prev_cum as f64) / in_bucket as f64;
                return Some(lo + (hi - lo) * frac.clamp(0.0, 1.0));
            }
        }
        Some(self.inner.bounds.last().copied().unwrap_or(0.0))
    }
}

/// `count` exponentially growing bucket bounds starting at `start`
/// (each `factor` times the last) — the usual latency-histogram shape.
///
/// # Panics
/// Panics unless `start > 0`, `factor > 1` and `count ≥ 1`.
pub fn exponential_buckets(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0 && factor > 1.0 && count >= 1);
    let mut out = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        out.push(b);
        b *= factor;
    }
    out
}

/// `count` linearly spaced bucket bounds starting at `start`.
///
/// # Panics
/// Panics unless `width > 0` and `count ≥ 1`.
pub fn linear_buckets(start: f64, width: f64, count: usize) -> Vec<f64> {
    assert!(width > 0.0 && count >= 1);
    (0..count).map(|i| start + width * i as f64).collect()
}

/// What a family's series measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing.
    Counter,
    /// Goes up and down.
    Gauge,
    /// Bucketed distribution.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Series {
    labels: Vec<(String, String)>,
    handle: Handle,
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    series: Vec<Series>,
}

/// A collection of metric families rendered together. Registration takes
/// a short mutex (startup-path only); the handles it returns update
/// lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

/// Validates a metric or label name: `[a-zA-Z_][a-zA-Z0-9_]*`.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        assert!(valid_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_name(k), "invalid label name {k:?}");
        }
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut families = self.families.lock().expect("obs registry poisoned");
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == kind,
                    "metric family {name:?} re-registered as {:?} (was {:?})",
                    kind,
                    f.kind
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(existing) = family.series.iter().find(|s| s.labels == labels) {
            // Idempotent: the same (family, label set) hands back the same
            // underlying metric, so two registrants share one series.
            return existing.handle.clone();
        }
        let handle = make();
        family.series.push(Series {
            labels,
            handle: handle.clone(),
        });
        handle
    }

    /// Registers (or retrieves) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or retrieves) a labeled counter series.
    ///
    /// # Panics
    /// Panics on an invalid name or if `name` is already registered as a
    /// different metric kind.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, MetricKind::Counter, labels, || {
            Handle::Counter(Counter::new())
        }) {
            Handle::Counter(c) => c,
            _ => unreachable!("registered as counter"),
        }
    }

    /// Registers (or retrieves) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or retrieves) a labeled gauge series.
    ///
    /// # Panics
    /// Panics on an invalid name or if `name` is already registered as a
    /// different metric kind.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, MetricKind::Gauge, labels, || {
            Handle::Gauge(Gauge::new())
        }) {
            Handle::Gauge(g) => g,
            _ => unreachable!("registered as gauge"),
        }
    }

    /// Registers (or retrieves) an unlabeled histogram over `bounds`.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, help, &[], bounds)
    }

    /// Registers (or retrieves) a labeled histogram series over `bounds`.
    ///
    /// # Panics
    /// Panics on an invalid name, invalid bounds, or if `name` is already
    /// registered as a different metric kind.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        match self.register(name, help, MetricKind::Histogram, labels, || {
            Handle::Histogram(Histogram::new(bounds))
        }) {
            Handle::Histogram(h) => h,
            _ => unreachable!("registered as histogram"),
        }
    }

    /// Renders every family in the Prometheus text exposition format,
    /// families sorted by name (stable output for golden tests and byte
    /// comparisons), series in registration order.
    pub fn render(&self) -> String {
        let families = self.families.lock().expect("obs registry poisoned");
        let mut order: Vec<usize> = (0..families.len()).collect();
        order.sort_by(|&a, &b| families[a].name.cmp(&families[b].name));
        let mut out = String::new();
        for idx in order {
            let f = &families[idx];
            out.push_str("# HELP ");
            out.push_str(&f.name);
            out.push(' ');
            out.push_str(&escape_help(&f.help));
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&f.name);
            out.push(' ');
            out.push_str(f.kind.as_str());
            out.push('\n');
            for s in &f.series {
                match &s.handle {
                    Handle::Counter(c) => {
                        sample_line(&mut out, &f.name, "", &s.labels, None, c.get() as f64);
                    }
                    Handle::Gauge(g) => {
                        sample_line(&mut out, &f.name, "", &s.labels, None, g.get() as f64);
                    }
                    Handle::Histogram(h) => {
                        for (bound, cum) in h.cumulative_buckets() {
                            sample_line(
                                &mut out,
                                &f.name,
                                "_bucket",
                                &s.labels,
                                Some(bound),
                                cum as f64,
                            );
                        }
                        sample_line(&mut out, &f.name, "_sum", &s.labels, None, h.sum());
                        sample_line(
                            &mut out,
                            &f.name,
                            "_count",
                            &s.labels,
                            None,
                            h.count() as f64,
                        );
                    }
                }
            }
        }
        out
    }

    /// Renders every family as a JSON document (stable ordering, same as
    /// [`Registry::render`]) — the end-of-run snapshot format of
    /// `skute-sim --metrics-json`.
    pub fn render_json(&self) -> String {
        let families = self.families.lock().expect("obs registry poisoned");
        let mut order: Vec<usize> = (0..families.len()).collect();
        order.sort_by(|&a, &b| families[a].name.cmp(&families[b].name));
        let mut out = String::from("[");
        for (fi, idx) in order.iter().enumerate() {
            let f = &families[*idx];
            if fi > 0 {
                out.push(',');
            }
            out.push_str("\n  {\"name\":");
            json_string(&mut out, &f.name);
            out.push_str(",\"kind\":");
            json_string(&mut out, f.kind.as_str());
            out.push_str(",\"series\":[");
            for (si, s) in f.series.iter().enumerate() {
                if si > 0 {
                    out.push(',');
                }
                out.push_str("{\"labels\":{");
                for (li, (k, v)) in s.labels.iter().enumerate() {
                    if li > 0 {
                        out.push(',');
                    }
                    json_string(&mut out, k);
                    out.push(':');
                    json_string(&mut out, v);
                }
                out.push('}');
                match &s.handle {
                    Handle::Counter(c) => {
                        out.push_str(",\"value\":");
                        out.push_str(&fmt_value(c.get() as f64));
                    }
                    Handle::Gauge(g) => {
                        out.push_str(",\"value\":");
                        out.push_str(&fmt_value(g.get() as f64));
                    }
                    Handle::Histogram(h) => {
                        out.push_str(",\"buckets\":[");
                        for (bi, (bound, cum)) in h.cumulative_buckets().iter().enumerate() {
                            if bi > 0 {
                                out.push(',');
                            }
                            out.push('[');
                            if bound.is_finite() {
                                out.push_str(&fmt_value(*bound));
                            } else {
                                out.push_str("\"+Inf\"");
                            }
                            out.push(',');
                            out.push_str(&fmt_value(*cum as f64));
                            out.push(']');
                        }
                        out.push_str("],\"sum\":");
                        out.push_str(&fmt_value(h.sum()));
                        out.push_str(",\"count\":");
                        out.push_str(&fmt_value(h.count() as f64));
                    }
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("\n]");
        out
    }
}

/// Appends one exposition sample line.
fn sample_line(
    out: &mut String,
    family: &str,
    suffix: &str,
    labels: &[(String, String)],
    le: Option<f64>,
    value: f64,
) {
    out.push_str(family);
    out.push_str(suffix);
    if !labels.is_empty() || le.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(v));
            out.push('"');
        }
        if let Some(b) = le {
            if !first {
                out.push(',');
            }
            out.push_str("le=\"");
            if b.is_finite() {
                out.push_str(&fmt_value(b));
            } else {
                out.push_str("+Inf");
            }
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(&fmt_value(value));
    out.push('\n');
}

/// Formats a sample value: integral values print without a fraction
/// (counters stay greppable as integers), everything else as shortest
/// round-trip float.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(7);
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        // `le` semantics: a value exactly on an upper bound lands in that
        // bound's bucket, not the next one.
        let h = Histogram::new(&[1.0, 2.0, 5.0]);
        h.observe(1.0); // first bucket, boundary inclusive
        h.observe(1.0000001); // second bucket
        h.observe(2.0); // second bucket, boundary inclusive
        h.observe(5.0); // third bucket
        h.observe(5.0000001); // +Inf bucket
        h.observe(0.0); // first bucket (le=1.0 covers 0)
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0], (1.0, 2)); // 1.0 and 0.0
        assert_eq!(buckets[1], (2.0, 4)); // + 1.0000001, 2.0
        assert_eq!(buckets[2], (5.0, 5)); // + 5.0
        assert_eq!(buckets[3].1, 6); // + overflow
        assert!(buckets[3].0.is_infinite());
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn histogram_clamps_junk_observations() {
        let h = Histogram::new(&[1.0]);
        h.observe(-3.0);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        // All clamp to 0.0: first bucket, zero sum contribution.
        assert_eq!(h.cumulative_buckets()[0].1, 3);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn histogram_sum_is_fixed_point_exact() {
        let h = Histogram::new(&[10.0]);
        for _ in 0..1000 {
            h.observe(0.001);
        }
        assert!((h.sum() - 1.0).abs() < 1e-9, "sum {}", h.sum());
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for _ in 0..50 {
            h.observe(0.5);
        }
        for _ in 0..50 {
            h.observe(3.0);
        }
        // p50 sits at the edge of the first bucket.
        let p50 = h.quantile(0.5).unwrap();
        assert!((0.9..=1.1).contains(&p50), "p50 {p50}");
        // p99 interpolates inside (2, 4].
        let p99 = h.quantile(0.99).unwrap();
        assert!((2.0..=4.0).contains(&p99), "p99 {p99}");
        assert!(Histogram::new(&[1.0]).quantile(0.5).is_none());
    }

    #[test]
    fn bucket_helpers() {
        assert_eq!(linear_buckets(1.0, 2.0, 3), vec![1.0, 3.0, 5.0]);
        let exp = exponential_buckets(0.001, 10.0, 3);
        assert!((exp[0] - 0.001).abs() < 1e-12);
        assert!((exp[2] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn registry_is_idempotent_per_series() {
        let r = Registry::new();
        let a = r.counter_with("skute_x_total", "x", &[("op", "get")]);
        let b = r.counter_with("skute_x_total", "x", &[("op", "get")]);
        a.inc();
        b.inc();
        // Same series: both handles hit one atomic.
        assert_eq!(a.get(), 2);
        let c = r.counter_with("skute_x_total", "x", &[("op", "put")]);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn registry_rejects_kind_mismatch() {
        let r = Registry::new();
        let _ = r.counter("skute_x_total", "x");
        let _ = r.gauge("skute_x_total", "x");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn registry_rejects_bad_names() {
        let _ = Registry::new().counter("1bad", "x");
    }

    #[test]
    fn golden_exposition_format() {
        let r = Registry::new();
        let reqs = r.counter_with("skute_requests_total", "Requests served.", &[("op", "get")]);
        reqs.add(3);
        r.counter_with("skute_requests_total", "Requests served.", &[("op", "put")])
            .add(1);
        let depth = r.gauge("skute_queue_depth", "In-flight requests.");
        depth.set(2);
        let lat = r.histogram(
            "skute_request_seconds",
            "Request latency.",
            &[0.001, 0.01, 0.1],
        );
        lat.observe(0.0005);
        lat.observe(0.002);
        lat.observe(0.5);
        let expected = "\
# HELP skute_queue_depth In-flight requests.
# TYPE skute_queue_depth gauge
skute_queue_depth 2
# HELP skute_request_seconds Request latency.
# TYPE skute_request_seconds histogram
skute_request_seconds_bucket{le=\"0.001\"} 1
skute_request_seconds_bucket{le=\"0.01\"} 2
skute_request_seconds_bucket{le=\"0.1\"} 2
skute_request_seconds_bucket{le=\"+Inf\"} 3
skute_request_seconds_sum 0.5025
skute_request_seconds_count 3
# HELP skute_requests_total Requests served.
# TYPE skute_requests_total counter
skute_requests_total{op=\"get\"} 3
skute_requests_total{op=\"put\"} 1
";
        assert_eq!(r.render(), expected);
    }

    #[test]
    fn json_snapshot_round_trips_values() {
        let r = Registry::new();
        r.counter("skute_epochs_total", "Epochs.").add(60);
        let h = r.histogram("skute_w", "w \"quoted\"", &[1.0]);
        h.observe(0.5);
        let json = r.render_json();
        assert!(json.contains("\"name\":\"skute_epochs_total\""));
        assert!(json.contains("\"value\":60"));
        assert!(json.contains("\"buckets\":[[1,1],[\"+Inf\",1]]"));
        assert!(json.contains("\"sum\":0.5"));
        // Label/help escaping stays valid JSON.
        assert!(!json.contains("w \"quoted\""));
    }

    #[test]
    fn escaping() {
        let r = Registry::new();
        r.counter_with("skute_esc_total", "line\nbreak", &[("tag", "a\"b\\c\nd")])
            .inc();
        let text = r.render();
        assert!(text.contains("# HELP skute_esc_total line\\nbreak"));
        assert!(text.contains("tag=\"a\\\"b\\\\c\\nd\""));
    }
}
