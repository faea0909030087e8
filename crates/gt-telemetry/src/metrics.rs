//! Metrics registry: monotonic counters, gauges, and fixed-bucket
//! histograms, all updatable from the hot path with single atomic ops.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones;
//! the registry's mutex is only taken at registration and snapshot time,
//! never per update. [`MetricsSnapshot`] is a point-in-time copy that the
//! exporters ([`crate::prometheus`], [`crate::summary`]) render.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::{obj, Json, ToJson};

/// Monotonically increasing counter (events, retries, bytes).
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point gauge (queue depth, cache hit rate).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` to the gauge (compare-and-swap loop).
    pub fn add(&self, delta: f64) {
        let _ = self
            .bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                Some((f64::from_bits(b) + delta).to_bits())
            });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram for latency-style distributions. Buckets are
/// cumulative-at-snapshot, not at update: each `observe` increments exactly
/// one bucket counter plus sum/count/min/max, all relaxed atomics.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of the finite buckets, ascending; an implicit +Inf
    /// bucket catches the rest.
    bounds: Vec<f64>,
    /// One count per finite bound, plus the overflow bucket at the end.
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    /// A histogram with the given ascending finite bucket bounds.
    pub fn with_bounds(bounds: Vec<f64>) -> Histogram {
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds,
                counts,
                sum_bits: AtomicU64::new(0f64.to_bits()),
                count: AtomicU64::new(0),
                min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
                max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            }),
        }
    }

    /// Default buckets for microsecond latencies: 10µs .. 10s, roughly
    /// logarithmic (1-2-5 per decade). The 10s (1e7 µs) cap is the last
    /// finite bound; everything slower lands in the overflow bucket.
    pub fn latency_us() -> Histogram {
        let mut bounds = Vec::new();
        let mut decade = 10.0;
        while decade < 1e7 {
            for mult in [1.0, 2.0, 5.0] {
                bounds.push(decade * mult);
            }
            decade *= 10.0;
        }
        bounds.push(1e7);
        Histogram::with_bounds(bounds)
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let inner = &self.inner;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(inner.bounds.len());
        inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        let _ = inner
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                Some((f64::from_bits(b) + v).to_bits())
            });
        let _ = inner
            .min_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                (v < f64::from_bits(b)).then(|| v.to_bits())
            });
        let _ = inner
            .max_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                (v > f64::from_bits(b)).then(|| v.to_bits())
            });
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.inner;
        HistogramSnapshot {
            bounds: inner.bounds.clone(),
            counts: inner
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: f64::from_bits(inner.sum_bits.load(Ordering::Relaxed)),
            count: inner.count.load(Ordering::Relaxed),
            min: f64::from_bits(inner.min_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(inner.max_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Frozen histogram state, with quantile estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; one longer than `bounds` (overflow bucket last).
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
    /// Smallest observation (`+inf` when empty).
    pub min: f64,
    /// Largest observation (`-inf` when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Estimate quantile `q` in `[0, 1]` by linear interpolation within the
    /// bucket holding the target rank. Returns `None` when empty. The
    /// overflow bucket interpolates toward the observed max.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cumulative + c;
            if (next as f64) >= rank && c > 0 {
                let lower = if i == 0 {
                    self.min.min(self.bound_or_max(0))
                } else {
                    self.bounds[i - 1]
                };
                let upper = self.bound_or_max(i);
                let within = (rank - cumulative as f64) / c as f64;
                return Some(lower + (upper - lower) * within.clamp(0.0, 1.0));
            }
            cumulative = next;
        }
        Some(self.max)
    }

    /// Mean observation, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    fn bound_or_max(&self, i: usize) -> f64 {
        if i < self.bounds.len() {
            self.bounds[i].min(self.max)
        } else {
            self.max
        }
    }
}

/// One metric's frozen value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram distribution.
    Histogram(HistogramSnapshot),
}

/// A sorted `key=value` label set identifying one series within a metric
/// family. Always key-sorted, so equal sets compare equal regardless of the
/// order call sites supplied them in.
pub type LabelSet = Vec<(String, String)>;

/// Normalize a label slice into a key-sorted [`LabelSet`]. Duplicate keys
/// are rejected — a series with `tenant="a",tenant="b"` is meaningless.
pub fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    set.sort();
    for w in set.windows(2) {
        assert!(w[0].0 != w[1].0, "duplicate label key {:?}", w[0].0);
    }
    set
}

/// One named metric series in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric name (e.g. `gt_serve_retries_total`).
    pub name: String,
    /// Sorted `key=value` labels; empty for plain unlabeled metrics.
    pub labels: LabelSet,
    /// Help text supplied at registration.
    pub help: String,
    /// The frozen value.
    pub value: MetricValue,
}

/// Point-in-time copy of every registered metric, name-sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// The metrics, sorted by name.
    pub metrics: Vec<MetricSnapshot>,
}

impl MetricsSnapshot {
    /// Look up a metric's *unlabeled* series by name. Labeled series are
    /// reached through [`Self::get_with`] or [`Self::series`].
    pub fn get(&self, name: &str) -> Option<&MetricSnapshot> {
        self.metrics
            .iter()
            .find(|m| m.name == name && m.labels.is_empty())
    }

    /// Look up one labeled series exactly (label order does not matter).
    pub fn get_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSnapshot> {
        let want = label_set(labels);
        self.metrics
            .iter()
            .find(|m| m.name == name && m.labels == want)
    }

    /// All series of a metric family, label-sorted.
    pub fn series<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a MetricSnapshot> {
        self.metrics.iter().filter(move |m| m.name == name)
    }

    /// Counter value summed across every series of `name` (0 when absent —
    /// counters start at zero). For an unlabeled counter this is simply its
    /// value; for a labeled family it is the family total.
    pub fn counter(&self, name: &str) -> u64 {
        self.series(name)
            .map(|m| match &m.value {
                MetricValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// One labeled counter series' value (0 when absent).
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get_with(name, labels).map(|m| &m.value) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Unlabeled gauge value by name, `None` when absent.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name).map(|m| &m.value) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// One labeled gauge series' value, `None` when absent.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.get_with(name, labels).map(|m| &m.value) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Unlabeled histogram snapshot by name, `None` when absent.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name).map(|m| &m.value) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
enum Entry {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Entry {
    fn kind(&self) -> &'static str {
        match self {
            Entry::Counter(_) => "counter",
            Entry::Gauge(_) => "gauge",
            Entry::Histogram(_) => "histogram",
        }
    }
}

/// All series sharing one metric name: a single help text and kind, one
/// [`Entry`] per label set (the empty set is the plain unlabeled series).
#[derive(Debug)]
struct Family {
    help: String,
    series: BTreeMap<LabelSet, Entry>,
}

/// Named metric registry. Get-or-register returns a shared handle, so two
/// call sites asking for the same name and labels update the same series.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or register a series, enforcing one kind per family. Panics if
    /// `name` already holds a different metric kind (Prometheus families
    /// have exactly one TYPE).
    fn register(&self, name: &str, help: &str, labels: &[(&str, &str)], make: Entry) -> Entry {
        let set = label_set(labels);
        let mut map = self.metrics.lock().unwrap();
        let family = map.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        if let Some(existing) = family.series.values().next() {
            assert!(
                existing.kind() == make.kind(),
                "metric {name:?} already registered with a different kind"
            );
        }
        family.series.entry(set).or_insert(make).clone()
    }

    /// Get or register a counter. Panics if `name` is already registered as
    /// a different metric kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Get or register one labeled counter series of the family `name`.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, labels, Entry::Counter(Counter::default())) {
            Entry::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Get or register a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Get or register one labeled gauge series of the family `name`.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, labels, Entry::Gauge(Gauge::default())) {
            Entry::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Get or register a histogram with default latency buckets.
    pub fn histogram_us(&self, name: &str, help: &str) -> Histogram {
        self.histogram(name, help, Histogram::latency_us)
    }

    /// Get or register a histogram, building it with `make` on first use.
    pub fn histogram(&self, name: &str, help: &str, make: impl FnOnce() -> Histogram) -> Histogram {
        // `make` must only run when the series is absent, so this cannot go
        // through `register` (which demands an eagerly built entry).
        let mut map = self.metrics.lock().unwrap();
        let family = map.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        if let Some(existing) = family.series.values().next() {
            assert!(
                matches!(existing, Entry::Histogram(_)),
                "metric {name:?} already registered with a different kind"
            );
        }
        let entry = family
            .series
            .entry(LabelSet::new())
            .or_insert_with(|| Entry::Histogram(make()));
        match entry {
            Entry::Histogram(h) => h.clone(),
            _ => unreachable!(),
        }
    }

    /// Freeze every registered series, name-sorted then label-sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.metrics.lock().unwrap();
        MetricsSnapshot {
            metrics: map
                .iter()
                .flat_map(|(name, family)| {
                    family.series.iter().map(|(labels, entry)| MetricSnapshot {
                        name: name.clone(),
                        labels: labels.clone(),
                        help: family.help.clone(),
                        value: match entry {
                            Entry::Counter(c) => MetricValue::Counter(c.get()),
                            Entry::Gauge(g) => MetricValue::Gauge(g.get()),
                            Entry::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                        },
                    })
                })
                .collect(),
        }
    }
}

impl ToJson for HistogramSnapshot {
    fn to_json(&self) -> Json {
        obj([
            (
                "bounds",
                Json::Arr(self.bounds.iter().map(|&b| Json::from(b)).collect()),
            ),
            (
                "counts",
                Json::Arr(self.counts.iter().map(|&c| Json::from(c)).collect()),
            ),
            ("sum", self.sum.into()),
            ("count", self.count.into()),
            ("min", self.min.into()),
            ("max", self.max.into()),
        ])
    }
}

impl ToJson for MetricSnapshot {
    fn to_json(&self) -> Json {
        let (kind, value) = match &self.value {
            MetricValue::Counter(v) => ("counter", Json::from(*v)),
            MetricValue::Gauge(v) => ("gauge", Json::from(*v)),
            MetricValue::Histogram(h) => ("histogram", h.to_json()),
        };
        let mut fields = vec![("name", Json::from(self.name.as_str()))];
        if !self.labels.is_empty() {
            // Emitted only for labeled series, so unlabeled snapshots stay
            // byte-identical to the pre-label JSON schema.
            fields.push((
                "labels",
                obj(self
                    .labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), Json::from(v.as_str())))),
            ));
        }
        fields.extend([
            ("help", self.help.as_str().into()),
            ("kind", kind.into()),
            ("value", value),
        ]);
        obj(fields)
    }
}

impl ToJson for MetricsSnapshot {
    fn to_json(&self) -> Json {
        obj([(
            "metrics",
            Json::Arr(self.metrics.iter().map(|m| m.to_json()).collect()),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("gt_test_total", "test counter");
        c.inc();
        c.add(4);
        // Same name returns the same underlying counter.
        assert_eq!(reg.counter("gt_test_total", "ignored").get(), 5);

        let g = reg.gauge("gt_test_gauge", "test gauge");
        g.set(1.5);
        g.add(0.25);
        assert_eq!(g.get(), 1.75);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("gt_test_total"), 5);
        assert_eq!(snap.gauge("gt_test_gauge"), Some(1.75));
        assert_eq!(snap.counter("gt_missing_total"), 0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::with_bounds(vec![10.0, 100.0, 1000.0]);
        for v in [5.0, 50.0, 500.0, 5000.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![1, 1, 1, 1]);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 5555.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5000.0);
        let p50 = s.quantile(0.5).unwrap();
        assert!((10.0..=100.0).contains(&p50), "p50 = {p50}");
        // p99 lands in the overflow bucket, which interpolates toward max.
        let p99 = s.quantile(0.99).unwrap();
        assert!(p99 <= 5000.0 && p99 > 1000.0, "p99 = {p99}");
        assert_eq!(s.quantile(1.0).unwrap(), 5000.0);
        assert_eq!(s.mean(), Some(5555.0 / 4.0));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let s = Histogram::latency_us().snapshot();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
    }

    /// The default latency buckets must match their documented contract:
    /// 10µs .. 10s, strictly ascending, 1-2-5 per decade, and not one
    /// bound past the 1e7 µs cap.
    #[test]
    fn latency_bounds_conform_to_documented_range() {
        let s = Histogram::latency_us().snapshot();
        let bounds = &s.bounds;
        assert_eq!(bounds.first().copied(), Some(10.0));
        assert_eq!(bounds.last().copied(), Some(1e7));
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "not ascending");
        for &b in bounds {
            assert!(b <= 1e7, "bound {b} exceeds the documented 10s cap");
            // 1-2-5 series: the mantissa of every bound is 1, 2, or 5.
            let mantissa = b / 10f64.powf(b.log10().floor());
            assert!(
                [1.0, 2.0, 5.0].iter().any(|m| (mantissa - m).abs() < 1e-9),
                "bound {b} is not on the 1-2-5 grid"
            );
        }
        // Six full decades (10..5e6) plus the cap itself.
        assert_eq!(bounds.len(), 6 * 3 + 1);
    }

    #[test]
    fn single_value_histogram_quantiles_are_tight() {
        let h = Histogram::with_bounds(vec![10.0, 100.0]);
        h.observe(42.0);
        let s = h.snapshot();
        // Interpolation is clamped by the observed min/max.
        let p50 = s.quantile(0.5).unwrap();
        assert!((10.0..=42.0).contains(&p50), "p50 = {p50}");
    }

    /// A single-sample snapshot: every quantile must stay inside the
    /// bucket that holds the one observation, bounded by the observed
    /// value itself — never the raw bucket bound.
    #[test]
    fn single_sample_quantiles_never_leave_the_sample() {
        let h = Histogram::with_bounds(vec![10.0, 100.0, 1000.0]);
        h.observe(42.0);
        let s = h.snapshot();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let v = s.quantile(q).unwrap();
            assert!((10.0..=42.0).contains(&v), "q={q} escaped the sample: {v}");
        }
        // q=1.0 is exactly the sample (upper clamp is min(bound, max)).
        assert_eq!(s.quantile(1.0), Some(42.0));
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
    }

    /// A single sample below the first bound: the lower edge of bucket 0
    /// is min(min, bound), so interpolation cannot undershoot the
    /// observation's bucket.
    #[test]
    fn single_sample_in_first_bucket() {
        let h = Histogram::with_bounds(vec![10.0, 100.0]);
        h.observe(3.0);
        let s = h.snapshot();
        let p50 = s.quantile(0.5).unwrap();
        assert!((3.0..=10.0).contains(&p50), "p50 = {p50}");
        assert_eq!(s.quantile(1.0), Some(3.0));
    }

    /// All mass in the overflow bucket: interpolation runs from the last
    /// finite bound toward the observed max, never past it — and never to
    /// +inf, which a naive "+Inf upper bound" implementation would yield.
    #[test]
    fn overflow_bucket_interpolates_toward_max() {
        let h = Histogram::with_bounds(vec![10.0, 100.0]);
        for v in [200.0, 400.0, 800.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![0, 0, 3]);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let v = s.quantile(q).unwrap();
            assert!(v.is_finite(), "q={q} is not finite: {v}");
            assert!(
                (100.0..=800.0).contains(&v),
                "q={q} outside [last bound, max]: {v}"
            );
        }
        assert_eq!(s.quantile(1.0), Some(800.0));
        // Quantiles are monotone in q across the overflow bucket.
        let (a, b, c) = (
            s.quantile(0.2).unwrap(),
            s.quantile(0.6).unwrap(),
            s.quantile(0.95).unwrap(),
        );
        assert!(a <= b && b <= c, "non-monotone: {a} {b} {c}");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("gt_x", "");
        let _ = reg.gauge("gt_x", "");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_across_label_sets_panics() {
        let reg = Registry::new();
        let _ = reg.counter_with("gt_x", "", &[("tenant", "a")]);
        let _ = reg.gauge_with("gt_x", "", &[("tenant", "b")]);
    }

    #[test]
    #[should_panic(expected = "duplicate label key")]
    fn duplicate_label_keys_panic() {
        let reg = Registry::new();
        let _ = reg.counter_with("gt_x", "", &[("tenant", "a"), ("tenant", "b")]);
    }

    #[test]
    fn labeled_series_are_distinct_and_order_insensitive() {
        let reg = Registry::new();
        reg.counter_with("gt_req_total", "requests", &[("tenant", "a"), ("op", "r")])
            .add(3);
        // Same labels in a different supplied order: the same series.
        reg.counter_with("gt_req_total", "requests", &[("op", "r"), ("tenant", "a")])
            .add(4);
        reg.counter_with("gt_req_total", "requests", &[("tenant", "b"), ("op", "r")])
            .inc();

        let snap = reg.snapshot();
        assert_eq!(
            snap.counter_with("gt_req_total", &[("op", "r"), ("tenant", "a")]),
            7
        );
        assert_eq!(
            snap.counter_with("gt_req_total", &[("tenant", "b"), ("op", "r")]),
            1
        );
        // The family total sums every series.
        assert_eq!(snap.counter("gt_req_total"), 8);
        // `get` only sees the unlabeled series, which does not exist here.
        assert!(snap.get("gt_req_total").is_none());
        assert_eq!(snap.series("gt_req_total").count(), 2);
    }

    #[test]
    fn labeled_and_unlabeled_series_coexist() {
        let reg = Registry::new();
        reg.counter("gt_mix_total", "").add(5);
        reg.counter_with("gt_mix_total", "", &[("worker", "0")])
            .inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter_with("gt_mix_total", &[]), 5);
        assert_eq!(snap.counter("gt_mix_total"), 6);
        // The unlabeled series sorts first (empty label set is least).
        assert!(snap.get("gt_mix_total").unwrap().labels.is_empty());
    }

    #[test]
    fn labeled_gauges_round_trip() {
        let reg = Registry::new();
        reg.gauge_with("gt_link_util", "", &[("link", "w0")])
            .set(0.5);
        let snap = reg.snapshot();
        assert_eq!(
            snap.gauge_with("gt_link_util", &[("link", "w0")]),
            Some(0.5)
        );
        assert_eq!(snap.gauge("gt_link_util"), None);
    }

    #[test]
    fn labeled_json_carries_labels_and_unlabeled_stays_stable() {
        let reg = Registry::new();
        reg.counter("gt_plain_total", "p").inc();
        reg.counter_with("gt_lab_total", "l", &[("tenant", "7")])
            .inc();
        let snap = reg.snapshot();
        let text = snap.to_json().to_json_string();
        assert!(text.contains("\"labels\":{\"tenant\":\"7\"}"));
        // Unlabeled metrics carry no labels key at all (schema stability).
        let plain = snap
            .get("gt_plain_total")
            .unwrap()
            .to_json()
            .to_json_string();
        assert!(!plain.contains("labels"));
    }

    #[test]
    fn snapshot_is_name_sorted_and_json_renders() {
        let reg = Registry::new();
        reg.counter("gt_b_total", "b").inc();
        reg.gauge("gt_a_gauge", "a").set(2.0);
        let snap = reg.snapshot();
        let names: Vec<_> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["gt_a_gauge", "gt_b_total"]);
        let text = snap.to_json().to_json_string();
        assert!(text.contains("\"gt_b_total\""));
        assert!(text.contains("\"counter\""));
    }
}
