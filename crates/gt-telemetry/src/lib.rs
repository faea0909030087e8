//! gt-telemetry: zero-external-dependency spans, metrics, and trace export
//! for the GraphTensor-RS serving stack.
//!
//! The paper's whole argument is latency decomposition (per-phase
//! breakdowns in Figs 12/16/20, subtask overlap in Fig 13); this crate
//! makes those decompositions observable in the real system:
//!
//! - **Spans** ([`Span`], [`MemoryCollector`]): RAII wall-clock regions on
//!   named tracks, nestable, labeled with phase/batch/layer.
//!   Their [`SpanRecord`] is also the span of a request's causal tree
//!   ([`RequestTrace`]), where ids are deterministic and the clock is
//!   virtual.
//! - **Metrics** ([`Registry`]): counters, gauges, and fixed-bucket
//!   histograms with p50/p95/p99 estimation.
//! - **Exporters**: Chrome trace-event JSON ([`trace`]) loadable in
//!   Perfetto, Prometheus text exposition ([`prometheus`]), and a
//!   human-readable summary table ([`summary`]).
//!
//! The [`Telemetry`] handle bundles one registry with an in-memory
//! collector or none, and is what instrumented code carries: a handle
//! records into memory ([`Telemetry::recording`]) or is off
//! ([`Telemetry::null`], the default everywhere). Off, spans skip the clock
//! entirely and metrics still work (they are cheap atomics), so
//! instrumented code paths stay bit-identical to uninstrumented ones —
//! gt-core has a property test pinning that.
//!
//! Everything here is hand-rolled (including the JSON layer in [`json`])
//! because the workspace builds offline with no vendored external crates.

pub mod context;
pub mod json;
pub mod metrics;
pub mod prometheus;
pub mod ring;
pub mod slo;
pub mod span;
pub mod summary;
pub mod trace;

use std::sync::{Arc, OnceLock};

pub use context::{fnv1a, splitmix64, RequestTrace, TraceContext};
pub use json::{Json, JsonError, ToJson};
pub use metrics::{
    label_set, Counter, Gauge, Histogram, HistogramSnapshot, LabelSet, MetricSnapshot, MetricValue,
    MetricsSnapshot, Registry,
};
pub use ring::{dump_outcomes, FlightRecorder, FLIGHT_SCHEMA_VERSION};
pub use slo::{BurnRule, SloAlert, SloEngine, SloSpec};
pub use span::{EventRecord, MemoryCollector, Span, SpanRecord};
pub use trace::{from_chrome_json, write_chrome_json, Flow, FlowStep, Trace, TraceEvent};

/// A metrics registry plus, when recording, an in-memory span collector;
/// the handle instrumented code holds. Cloning is cheap (at most two
/// `Arc`s) and clones share all state.
#[derive(Clone)]
pub struct Telemetry {
    collector: Option<Arc<MemoryCollector>>,
    registry: Arc<Registry>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .finish_non_exhaustive()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::null()
    }
}

impl Telemetry {
    /// The no-op handle: spans are free, metrics still count (atomics are
    /// cheap and some callers want counters without tracing). All `null()`
    /// handles share one instance so counters registered through it agree.
    pub fn null() -> Telemetry {
        static NULL: OnceLock<Telemetry> = OnceLock::new();
        NULL.get_or_init(|| Telemetry {
            collector: None,
            registry: Arc::new(Registry::new()),
        })
        .clone()
    }

    /// A recording handle with a fresh in-memory collector and registry.
    pub fn recording() -> Telemetry {
        Telemetry {
            collector: Some(Arc::new(MemoryCollector::new())),
            registry: Arc::new(Registry::new()),
        }
    }

    /// Whether spans record anything.
    pub fn enabled(&self) -> bool {
        self.collector.is_some()
    }

    /// Start a span on `track` named `name`. Returns a disabled guard (no
    /// clock read, no allocation) when the handle is off.
    pub fn span(
        &self,
        track: impl Into<std::borrow::Cow<'static, str>>,
        name: impl Into<std::borrow::Cow<'static, str>>,
    ) -> Span {
        Span::start(self.collector.as_ref(), track, name)
    }

    /// Record an instant event with key/value args. No-op when disabled.
    pub fn event(&self, track: &str, name: &str, args: &[(&str, &dyn std::fmt::Display)]) {
        let Some(collector) = &self.collector else {
            return;
        };
        collector.record_event(EventRecord {
            name: name.to_string(),
            track: track.to_string(),
            ts_us: collector.now_us(),
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    }

    /// Get or register a counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.registry.counter(name, help)
    }

    /// Get or register one labeled counter series.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        self.registry.counter_with(name, help, labels)
    }

    /// Get or register a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.registry.gauge(name, help)
    }

    /// Get or register a histogram with default µs latency buckets.
    pub fn histogram_us(&self, name: &str, help: &str) -> Histogram {
        self.registry.histogram_us(name, help)
    }

    /// The underlying registry (for custom-bucket histograms).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Finished spans so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.collector.as_ref().map_or_else(Vec::new, |c| c.spans())
    }

    /// Recorded instant events so far.
    pub fn events(&self) -> Vec<EventRecord> {
        self.collector
            .as_ref()
            .map_or_else(Vec::new, |c| c.events())
    }

    /// Freeze all metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Wall-clock spans and events as one Chrome-trace process row.
    pub fn trace(&self, process: &str) -> Trace {
        Trace::from_spans(process, &self.spans(), &self.events())
    }
}

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// The process-wide default handle, used by call sites with no good way to
/// thread a `Telemetry` through (baseline frameworks, free functions).
/// Defaults to [`Telemetry::null`] until [`set_global`] installs one.
pub fn global() -> Telemetry {
    GLOBAL.get().cloned().unwrap_or_else(Telemetry::null)
}

/// Install the process-wide handle. First caller wins; returns `false` (and
/// changes nothing) if a global was already set.
pub fn set_global(telemetry: Telemetry) -> bool {
    GLOBAL.set(telemetry).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_handle_is_disabled_but_counts() {
        let t = Telemetry::null();
        assert!(!t.enabled());
        let s = t.span("serve", "batch");
        assert!(!s.is_recording());
        drop(s);
        t.event("serve", "retry", &[("attempt", &1)]);
        assert!(t.spans().is_empty());
        assert!(t.events().is_empty());
        // Metrics still function on the null handle.
        let before = t.counter("gt_lib_test_total", "test").get();
        t.counter("gt_lib_test_total", "test").inc();
        assert_eq!(t.counter("gt_lib_test_total", "test").get(), before + 1);
    }

    #[test]
    fn recording_handle_captures_spans_and_events() {
        let t = Telemetry::recording();
        assert!(t.enabled());
        {
            let _s = t.span("train", "train_batch").arg("batch", 0);
        }
        t.event("train", "oom_halving", &[("from", &1024), ("to", &512)]);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.events().len(), 1);
        let trace = t.trace("wall clock");
        assert_eq!(trace.process, "wall clock");
        assert_eq!(trace.events.len(), 2);
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::recording();
        let t2 = t.clone();
        {
            let _s = t2.span("a", "b");
        }
        t.counter("gt_shared_total", "").inc();
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t2.snapshot().counter("gt_shared_total"), 1);
    }

    #[test]
    fn global_defaults_to_null() {
        // Note: other tests may have installed a global; only assert that
        // repeated calls agree.
        let a = global();
        let b = global();
        assert_eq!(a.enabled(), b.enabled());
    }
}
