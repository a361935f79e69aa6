//! The sharded metrics registry: counters, gauges, and log-bucketed
//! histograms.
//!
//! Every metric is a leaked `&'static` registered once by name; call
//! sites cache the handle in a `OnceLock` (the [`counter!`](crate::counter),
//! [`gauge!`](crate::gauge), and [`histogram!`](crate::histogram) macros do
//! this), so the steady-state cost of a hook is one acquire load for the
//! handle plus one relaxed load for the enable gate — and, when enabled,
//! a handful of relaxed atomic adds on a thread-owned shard.
//!
//! Sharding: each recording thread is assigned a shard index once (a
//! process-wide ordinal modulo [`SHARDS`]), so workers touch disjoint
//! cache lines on the hot path. Snapshots merge shards **in ascending
//! shard index order**; since everything stored is a `u64` count or sum,
//! the merge is exactly associative and commutative — the snapshot is
//! independent of which worker recorded which event (the property tests
//! pin this against a single-threaded reference).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Number of counter/histogram shards (a power of two; threads map onto
/// shards by ordinal, so up to this many workers record contention-free).
pub const SHARDS: usize = 16;

/// Number of histogram buckets: bucket `i` holds values whose bit length
/// is `i`, i.e. bucket 0 holds the value 0 and bucket `i ≥ 1` holds
/// `[2^(i−1), 2^i)`.
pub const BUCKETS: usize = 65;

fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

/// One cache line per shard so hot counters on different workers never
/// false-share.
#[repr(align(64))]
struct Shard(AtomicU64);

impl Shard {
    fn new() -> Self {
        Shard(AtomicU64::new(0))
    }
}

/// A monotonically increasing event count.
pub struct Counter {
    name: &'static str,
    unit: &'static str,
    shards: Vec<Shard>,
}

impl Counter {
    fn new(name: &'static str, unit: &'static str) -> Self {
        Self {
            name,
            unit,
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
        }
    }

    /// The registered metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The unit the value counts (e.g. `"pivots"`, `"ns"`).
    pub fn unit(&self) -> &'static str {
        self.unit
    }

    /// Adds `n` to the counter (no-op while metrics are disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::metrics_enabled() {
            return;
        }
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 (no-op while metrics are disabled).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current total (shards merged in ascending index order).
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A last-write-wins instantaneous value (worker counts, config knobs).
pub struct Gauge {
    name: &'static str,
    unit: &'static str,
    value: AtomicU64,
}

impl Gauge {
    fn new(name: &'static str, unit: &'static str) -> Self {
        Self {
            name,
            unit,
            value: AtomicU64::new(0),
        }
    }

    /// The registered metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The unit of the stored value.
    pub fn unit(&self) -> &'static str {
        self.unit
    }

    /// Stores `v` (no-op while metrics are disabled).
    #[inline]
    pub fn set(&self, v: u64) {
        if !crate::metrics_enabled() {
            return;
        }
        self.value.store(v, Ordering::Relaxed);
    }

    /// The last stored value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// One histogram shard: bucket counts plus count/sum/min/max.
struct HistShard {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    /// Stored as the raw value; `u64::MAX` means "empty".
    min: AtomicU64,
    max: AtomicU64,
}

impl HistShard {
    fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// The log₂ bucket a value lands in (its bit length).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The largest value bucket `i` can hold (inclusive).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A log-bucketed (power-of-two) histogram of `u64` samples.
pub struct Histogram {
    name: &'static str,
    unit: &'static str,
    shards: Vec<HistShard>,
}

impl Histogram {
    fn new(name: &'static str, unit: &'static str) -> Self {
        Self {
            name,
            unit,
            shards: (0..SHARDS).map(|_| HistShard::new()).collect(),
        }
    }

    /// The registered metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The unit of recorded samples.
    pub fn unit(&self) -> &'static str {
        self.unit
    }

    /// Records one sample (no-op while metrics are disabled).
    #[inline]
    pub fn record(&self, value: u64) {
        if !crate::metrics_enabled() {
            return;
        }
        let shard = &self.shards[shard_index()];
        shard.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
        shard.min.fetch_min(value, Ordering::Relaxed);
        shard.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Merges every shard (ascending index order) into a snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty();
        for shard in &self.shards {
            let other = HistogramSnapshot {
                count: shard.count.load(Ordering::Relaxed),
                sum: shard.sum.load(Ordering::Relaxed),
                min: shard.min.load(Ordering::Relaxed),
                max: shard.max.load(Ordering::Relaxed),
                buckets: shard
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
            };
            snap.merge(&other);
        }
        snap
    }

    fn reset(&self) {
        for s in &self.shards {
            s.reset();
        }
    }
}

/// The merged, plain-data view of a [`Histogram`] (also the unit the
/// order-independence property tests exercise directly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts ([`bucket_index`] layout, [`BUCKETS`] long).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty snapshot (the merge identity).
    pub fn empty() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Folds one sample in (the single-threaded reference the sharded
    /// histogram must agree with).
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another snapshot in. Integer sums and min/max only, so the
    /// merge is associative and commutative — shard order cannot change
    /// the result.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(self.buckets.len(), other.buckets.len(), "bucket layouts");
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A started wall-clock measurement, `None` while metrics are disabled —
/// so the disabled cost is the enable-gate load, never an `Instant::now()`.
/// `Copy`, so one start can be stopped into several histograms.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Starts timing if metrics are enabled.
    #[inline]
    pub fn start() -> Self {
        if crate::metrics_enabled() {
            Stopwatch(Some(Instant::now()))
        } else {
            Stopwatch(None)
        }
    }

    /// Records the elapsed nanoseconds into `hist` (no-op when the watch
    /// never started).
    #[inline]
    pub fn stop_into(self, hist: &Histogram) {
        if let Some(start) = self.0 {
            hist.record(start.elapsed().as_nanos() as u64);
        }
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Metric {
    fn name(&self) -> &'static str {
        match self {
            Metric::Counter(c) => c.name,
            Metric::Gauge(g) => g.name,
            Metric::Histogram(h) => h.name,
        }
    }
}

/// The process-wide metric registry. Metrics are registered once by name
/// and leaked (`&'static`), so handles stay valid for the process
/// lifetime and hooks never allocate.
pub struct Registry {
    metrics: Mutex<Vec<Metric>>,
}

/// The global [`Registry`].
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        metrics: Mutex::new(Vec::new()),
    })
}

impl Registry {
    /// Registers (or fetches) the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &'static str, unit: &'static str) -> &'static Counter {
        let mut metrics = self.metrics.lock().expect("metric registry lock");
        if let Some(existing) = metrics.iter().find(|m| m.name() == name) {
            match existing {
                Metric::Counter(c) => return c,
                _ => panic!("metric {name:?} already registered with a different kind"),
            }
        }
        let leaked: &'static Counter = Box::leak(Box::new(Counter::new(name, unit)));
        metrics.push(Metric::Counter(leaked));
        leaked
    }

    /// Registers (or fetches) the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &'static str, unit: &'static str) -> &'static Gauge {
        let mut metrics = self.metrics.lock().expect("metric registry lock");
        if let Some(existing) = metrics.iter().find(|m| m.name() == name) {
            match existing {
                Metric::Gauge(g) => return g,
                _ => panic!("metric {name:?} already registered with a different kind"),
            }
        }
        let leaked: &'static Gauge = Box::leak(Box::new(Gauge::new(name, unit)));
        metrics.push(Metric::Gauge(leaked));
        leaked
    }

    /// Registers (or fetches) the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &'static str, unit: &'static str) -> &'static Histogram {
        let mut metrics = self.metrics.lock().expect("metric registry lock");
        if let Some(existing) = metrics.iter().find(|m| m.name() == name) {
            match existing {
                Metric::Histogram(h) => return h,
                _ => panic!("metric {name:?} already registered with a different kind"),
            }
        }
        let leaked: &'static Histogram = Box::leak(Box::new(Histogram::new(name, unit)));
        metrics.push(Metric::Histogram(leaked));
        leaked
    }
}

/// Caches a [`Counter`] handle at the call site; repeat calls are one
/// acquire load.
#[macro_export]
macro_rules! counter {
    ($name:expr, $unit:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().counter($name, $unit))
    }};
}

/// Caches a [`Gauge`] handle at the call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $unit:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().gauge($name, $unit))
    }};
}

/// Caches a [`Histogram`] handle at the call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $unit:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().histogram($name, $unit))
    }};
}

/// One metric's merged value in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter total.
    Counter(u64),
    /// A gauge's last value.
    Gauge(u64),
    /// A merged histogram.
    Histogram(HistogramSnapshot),
}

/// A point-in-time, name-sorted view of every registered metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, unit, value)` sorted by name.
    pub entries: Vec<(String, String, MetricValue)>,
}

/// Snapshots every registered metric, sorted by name (deterministic for
/// a given set of recorded values, regardless of registration or worker
/// order).
pub fn metrics_snapshot() -> MetricsSnapshot {
    let metrics = registry().metrics.lock().expect("metric registry lock");
    let mut entries: Vec<(String, String, MetricValue)> = metrics
        .iter()
        .map(|m| match m {
            Metric::Counter(c) => (
                c.name.to_string(),
                c.unit.to_string(),
                MetricValue::Counter(c.value()),
            ),
            Metric::Gauge(g) => (
                g.name.to_string(),
                g.unit.to_string(),
                MetricValue::Gauge(g.value()),
            ),
            Metric::Histogram(h) => (
                h.name.to_string(),
                h.unit.to_string(),
                MetricValue::Histogram(h.snapshot()),
            ),
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    MetricsSnapshot { entries }
}

/// Zeroes every registered metric (handles stay valid).
pub fn reset_metrics() {
    let metrics = registry().metrics.lock().expect("metric registry lock");
    for m in metrics.iter() {
        match m {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

impl MetricsSnapshot {
    /// The value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(n, _, v)| match v {
            MetricValue::Counter(c) if n == name => Some(*c),
            _ => None,
        })
    }

    /// The value of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(n, _, v)| match v {
            MetricValue::Gauge(g) if n == name => Some(*g),
            _ => None,
        })
    }

    /// The merged histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.entries.iter().find_map(|(n, _, v)| match v {
            MetricValue::Histogram(h) if n == name => Some(h),
            _ => None,
        })
    }

    /// Renders the snapshot as deterministic JSON (2-space indent).
    ///
    /// Every value is an integer count/sum, so no float formatting is
    /// involved; histograms serialize count/sum/min/max/mean plus the
    /// non-empty buckets as `{"le": upper_bound, "count": n}` rows.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 1,\n  \"metrics\": {");
        for (i, (name, unit, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_json_string(&mut out, name);
            out.push_str(": {\"unit\": ");
            push_json_string(&mut out, unit);
            match value {
                MetricValue::Counter(c) => {
                    out.push_str(&format!(", \"type\": \"counter\", \"value\": {c}}}"));
                }
                MetricValue::Gauge(g) => {
                    out.push_str(&format!(", \"type\": \"gauge\", \"value\": {g}}}"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        ", \"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"min\": {}, \
                         \"max\": {}, \"buckets\": [",
                        h.count,
                        h.sum,
                        if h.count == 0 { 0 } else { h.min },
                        h.max
                    ));
                    let mut first = true;
                    for (b, &n) in h.buckets.iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        if !first {
                            out.push_str(", ");
                        }
                        first = false;
                        out.push_str(&format!(
                            "{{\"le\": {}, \"count\": {n}}}",
                            bucket_upper_bound(b)
                        ));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Renders a human-readable table (name, type, value, unit) for
    /// stderr summaries.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .entries
            .iter()
            .map(|(n, ..)| n.len())
            .max()
            .unwrap_or(0);
        for (name, unit, value) in &self.entries {
            match value {
                MetricValue::Counter(c) => {
                    out.push_str(&format!("  {name:width$}  counter    {c} {unit}\n"));
                }
                MetricValue::Gauge(g) => {
                    out.push_str(&format!("  {name:width$}  gauge      {g} {unit}\n"));
                }
                MetricValue::Histogram(h) => {
                    if h.count == 0 {
                        out.push_str(&format!("  {name:width$}  histogram  (empty) {unit}\n"));
                    } else {
                        out.push_str(&format!(
                            "  {name:width$}  histogram  n={} mean={:.0} min={} max={} {unit}\n",
                            h.count,
                            h.mean(),
                            h.min,
                            h.max
                        ));
                    }
                }
            }
        }
        out
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes tests that flip the process-wide enable switches (also used
/// by dependent crates' test suites).
pub fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value is in its bucket's range.
        for v in [0u64, 1, 2, 5, 1023, 1024, 1 << 40] {
            let b = bucket_index(v);
            assert!(v <= bucket_upper_bound(b));
            if b > 0 {
                assert!(v > bucket_upper_bound(b - 1));
            }
        }
    }

    #[test]
    fn counters_sum_across_threads() {
        let _guard = test_lock();
        reset_metrics();
        crate::set_metrics_enabled(true);
        let c = registry().counter("metrics.threads", "events");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        crate::set_metrics_enabled(false);
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn histogram_snapshot_matches_reference() {
        let _guard = test_lock();
        reset_metrics();
        crate::set_metrics_enabled(true);
        let h = registry().histogram("metrics.hist_ref", "ns");
        let values = [0u64, 1, 7, 8, 1000, 1 << 33, 42, 42];
        let mut reference = HistogramSnapshot::empty();
        for &v in &values {
            h.record(v);
            reference.record(v);
        }
        crate::set_metrics_enabled(false);
        assert_eq!(h.snapshot(), reference);
    }

    #[test]
    fn registry_dedups_by_name() {
        // Registering a new name grows the snapshot, so it must not land
        // between another test's two snapshots.
        let _guard = test_lock();
        let a = registry().counter("metrics.dedup", "events");
        let b = registry().counter("metrics.dedup", "events");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn snapshot_json_is_deterministic_and_sorted() {
        let _guard = test_lock();
        reset_metrics();
        crate::set_metrics_enabled(true);
        registry().counter("metrics.zzz", "events").add(1);
        registry().counter("metrics.aaa", "events").add(2);
        registry().gauge("metrics.mid", "workers").set(4);
        crate::set_metrics_enabled(false);
        let snap = metrics_snapshot();
        let names: Vec<&String> = snap.entries.iter().map(|(n, ..)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(snap.to_json(), metrics_snapshot().to_json());
        assert!(snap.to_json().contains("\"metrics.aaa\""));
        assert!(snap.render_table().contains("metrics.mid"));
    }

    #[test]
    fn stopwatch_records_only_when_enabled() {
        let _guard = test_lock();
        reset_metrics();
        crate::set_metrics_enabled(false);
        let h = registry().histogram("metrics.watch", "ns");
        Stopwatch::start().stop_into(h);
        assert_eq!(h.snapshot().count, 0);
        crate::set_metrics_enabled(true);
        Stopwatch::start().stop_into(h);
        crate::set_metrics_enabled(false);
        assert_eq!(h.snapshot().count, 1);
    }
}
