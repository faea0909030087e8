//! RAII spans and the in-memory [`MemoryCollector`] behind them.
//!
//! A [`Span`] measures one region of wall-clock time on a named *track*
//! (e.g. `"serve"`, `"train"`) with key/value labels (phase, batch index,
//! layer). Spans nest: a per-thread stack links each span to the innermost
//! open span of the same collector, so exported traces reconstruct the call
//! tree.
//!
//! A span records into a [`MemoryCollector`] or is off. Off costs one
//! `Option` check: span construction takes no clock reading, allocates
//! nothing, and the guard's `Drop` is a no-op, so the instrumented path is
//! observationally identical to the uninstrumented one (verified by a
//! bit-identity test in gt-core).

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// A finished span. The clock is whatever holds the record: a
/// [`MemoryCollector`]'s spans are wall µs since its epoch, a
/// [`RequestTrace`](crate::RequestTrace)'s are DES virtual µs.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span id: collector-unique and 1-based (0 is reserved for "no span")
    /// from a collector, deterministic
    /// ([`TraceContext::span_id`](crate::TraceContext::span_id)) in a
    /// request trace.
    pub id: u64,
    /// Parent span: for a collector, the innermost span of the same
    /// collector open on the same thread, if any.
    pub parent: Option<u64>,
    /// Span name (e.g. `"train_batch"`).
    pub name: String,
    /// Track (exported as one Chrome-trace thread per track).
    pub track: String,
    /// Start, µs on the holder's clock.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
    /// Key/value labels (`batch`, `layer`, `phase`, ...).
    pub args: Vec<(String, String)>,
}

/// A point-in-time structured event (e.g. a serving outcome transition).
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event name (e.g. `"quarantine"`).
    pub name: String,
    /// Track the event belongs to.
    pub track: String,
    /// Timestamp, µs since the collector's epoch.
    pub ts_us: f64,
    /// Key/value payload.
    pub args: Vec<(String, String)>,
}

/// Records spans and events into memory for later export. Span ids come
/// from an atomic counter; the record vectors sit behind short-critical-
/// section mutexes (one push per finished span).
#[derive(Debug)]
pub struct MemoryCollector {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<Vec<EventRecord>>,
}

impl Default for MemoryCollector {
    fn default() -> Self {
        MemoryCollector {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        }
    }
}

impl MemoryCollector {
    /// A fresh collector whose epoch is "now".
    pub fn new() -> Self {
        Self::default()
    }

    /// Microseconds since this collector's epoch.
    pub(crate) fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Store an instant event.
    pub(crate) fn record_event(&self, event: EventRecord) {
        self.events.lock().unwrap().push(event);
    }

    /// Snapshot of finished spans.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap().clone()
    }

    /// Snapshot of recorded events.
    pub fn events(&self) -> Vec<EventRecord> {
        self.events.lock().unwrap().clone()
    }
}

thread_local! {
    /// Open spans on this thread, innermost last, each keyed by its
    /// collector's address: every collector numbers its spans from 1, so a
    /// parent is looked up among the spans of its own collector only.
    static SPAN_STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for one span. Created through
/// [`Telemetry::span`](crate::Telemetry::span); records itself on drop.
#[must_use = "a span measures the scope it is alive in; bind it to a variable"]
pub struct Span {
    inner: Option<SpanInner>,
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("recording", &self.inner.is_some())
            .finish_non_exhaustive()
    }
}

struct SpanInner {
    collector: Arc<MemoryCollector>,
    id: u64,
    parent: Option<u64>,
    name: Cow<'static, str>,
    track: Cow<'static, str>,
    start_us: f64,
    args: Vec<(String, String)>,
}

impl Span {
    /// Open a span on `collector`; `None` gives a span that records nothing.
    pub(crate) fn start(
        collector: Option<&Arc<MemoryCollector>>,
        track: impl Into<Cow<'static, str>>,
        name: impl Into<Cow<'static, str>>,
    ) -> Span {
        let Some(collector) = collector else {
            return Span { inner: None };
        };
        let id = collector.next_id.fetch_add(1, Ordering::Relaxed);
        let owner = Arc::as_ptr(collector) as usize;
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.iter().rev().find(|&&(c, _)| c == owner).map(|&(_, p)| p);
            s.push((owner, id));
            parent
        });
        Span {
            inner: Some(SpanInner {
                collector: Arc::clone(collector),
                id,
                parent,
                name: name.into(),
                track: track.into(),
                start_us: collector.now_us(),
                args: Vec::new(),
            }),
        }
    }

    /// True when this span records anything on drop.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Attach a label. No-op (and no formatting cost beyond the call) on
    /// disabled spans — callers pay `Display` formatting only when tracing.
    pub fn arg(mut self, key: &str, value: impl std::fmt::Display) -> Span {
        if let Some(inner) = &mut self.inner {
            inner.args.push((key.to_string(), value.to_string()));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let end_us = inner.collector.now_us();
        let key = (Arc::as_ptr(&inner.collector) as usize, inner.id);
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // LIFO in the common case; tolerate out-of-order drops.
            if s.last() == Some(&key) {
                s.pop();
            } else {
                s.retain(|&x| x != key);
            }
        });
        // A drop must not panic: a push leaves the vector valid even if
        // another thread panicked while holding the lock.
        let mut spans = inner
            .collector
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        spans.push(SpanRecord {
            id: inner.id,
            parent: inner.parent,
            name: inner.name.into_owned(),
            track: inner.track.into_owned(),
            start_us: inner.start_us,
            dur_us: (end_us - inner.start_us).max(0.0),
            args: inner.args,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recording() -> Arc<MemoryCollector> {
        Arc::new(MemoryCollector::new())
    }

    #[test]
    fn null_collector_spans_are_free() {
        let s = Span::start(None, "t", "a");
        assert!(!s.is_recording());
        drop(s.arg("k", 1));
    }

    #[test]
    fn spans_record_on_drop_with_args() {
        let c = recording();
        {
            let _s = Span::start(Some(&c), "serve", "batch").arg("index", 7);
        }
        let spans = c.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "batch");
        assert_eq!(spans[0].track, "serve");
        assert_eq!(spans[0].args, vec![("index".to_string(), "7".to_string())]);
        assert!(spans[0].dur_us >= 0.0);
    }

    #[test]
    fn nesting_links_parents() {
        let c = recording();
        {
            let _outer = Span::start(Some(&c), "t", "outer");
            {
                let _inner = Span::start(Some(&c), "t", "inner");
            }
        }
        let spans = c.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        // Inner finished first, so it was recorded first.
        assert_eq!(spans[0].name, "inner");
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let c = recording();
        {
            let _p = Span::start(Some(&c), "t", "p");
            let a = Span::start(Some(&c), "t", "a");
            drop(a);
            let b = Span::start(Some(&c), "t", "b");
            drop(b);
        }
        let spans = c.spans();
        let p = spans.iter().find(|s| s.name == "p").unwrap();
        for name in ["a", "b"] {
            let s = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.parent, Some(p.id));
        }
    }

    #[test]
    fn out_of_order_drop_does_not_corrupt_the_stack() {
        let c = recording();
        let p = Span::start(Some(&c), "t", "p");
        let q = Span::start(Some(&c), "t", "q");
        drop(p); // dropped before its child
        {
            let _r = Span::start(Some(&c), "t", "r");
        }
        drop(q);
        let spans = c.spans();
        let q_id = spans.iter().find(|s| s.name == "q").unwrap().id;
        let r = spans.iter().find(|s| s.name == "r").unwrap();
        assert_eq!(r.parent, Some(q_id));
    }

    #[test]
    fn a_parent_is_an_open_span_of_the_same_collector() {
        let (a, b) = (recording(), recording());
        {
            let _a1 = Span::start(Some(&a), "t", "a1");
            let _b1 = Span::start(Some(&b), "t", "b1");
            {
                let _a2 = Span::start(Some(&a), "t", "a2");
                let _b2 = Span::start(Some(&b), "t", "b2");
            }
        }
        let parent = |c: &MemoryCollector, child: &str, of: Option<&str>| {
            let spans = c.spans();
            let id = |name: &str| spans.iter().find(|s| s.name == name).unwrap().id;
            let got = spans.iter().find(|s| s.name == child).unwrap().parent;
            assert_eq!(got, of.map(id), "parent of {child}");
        };
        parent(&a, "a1", None);
        parent(&a, "a2", Some("a1"));
        parent(&b, "b1", None);
        parent(&b, "b2", Some("b1"));
    }

    #[test]
    fn events_record_timestamps() {
        let c = recording();
        c.record_event(EventRecord {
            name: "retry".to_string(),
            track: "serve".to_string(),
            ts_us: c.now_us(),
            args: vec![("attempt".to_string(), "1".to_string())],
        });
        assert_eq!(c.events().len(), 1);
    }
}
