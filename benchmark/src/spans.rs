//! In-memory span log for the traced pass.
//!
//! The benchmark records spans from its own side of the layer boundary: a
//! root span around each real op, then child spans around *replays* of
//! the layer calls that op made, on the same inputs. Children are linked
//! to their parent by id, not by time containment (a replay runs after
//! the op it explains), and all spans of one op share its op number.
//! Spans stay in memory and are written once, at exit.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its log.
pub type SpanId = usize;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-call name, e.g. `"dense.matmul"`; `<name>_ms` is its metric.
    pub name: &'static str,
    /// The span this one explains; `None` for a root or an aside.
    pub parent: Option<SpanId>,
    /// Number of the op this span belongs to.
    pub op: usize,
    /// Start, µs since the log was created.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
}

/// Append-only log of finished spans.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span and return the span's id with `f`'s result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: usize,
        f: impl FnOnce() -> R,
    ) -> (SpanId, R) {
        let start = Instant::now();
        let r = f();
        let dur_us = start.elapsed().as_secs_f64() * 1e6;
        let start_us = start.duration_since(self.epoch).as_secs_f64() * 1e6;
        (self.push(name, parent, op, start_us, dur_us), r)
    }

    /// Append an already-measured span.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: usize,
        start_us: f64,
        dur_us: f64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            op,
            start_us,
            dur_us,
        });
        self.spans.len() - 1
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    /// Negative when the replayed children cost more than the real parent
    /// did (the replay caveat in README.md).
    pub fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_us;
            }
        }
        own
    }

    /// For each op that has a span called `name`: the sum of `value` over
    /// those spans, in op order. `value` is indexed like [`Self::spans`]
    /// (pass durations or [`Self::self_us`]).
    pub fn per_op(&self, name: &str, value: &[f64]) -> Vec<f64> {
        let mut by_op: BTreeMap<usize, f64> = BTreeMap::new();
        for (s, v) in self.spans.iter().zip(value) {
            if s.name == name {
                *by_op.entry(s.op).or_insert(0.0) += v;
            }
        }
        by_op.into_values().collect()
    }

    /// Durations of every span, indexed like [`Self::spans`].
    pub fn dur_us(&self) -> Vec<f64> {
        self.spans.iter().map(|s| s.dur_us).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root(100) ─ a(30) ─ a1(10), a2(5)
    ///           └ b(50)
    /// aside(7) has no parent but shares the op.
    fn log() -> SpanLog {
        let mut l = SpanLog::new();
        let root = l.push("root", None, 0, 0.0, 100.0);
        let a = l.push("a", Some(root), 0, 100.0, 30.0);
        l.push("leaf", Some(a), 0, 130.0, 10.0);
        l.push("leaf", Some(a), 0, 140.0, 5.0);
        l.push("b", Some(root), 0, 145.0, 50.0);
        l.push("aside", None, 0, 195.0, 7.0);
        let root1 = l.push("root", None, 1, 300.0, 40.0);
        l.push("b", Some(root1), 1, 340.0, 60.0);
        l
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let l = log();
        let own = l.self_us();
        assert_eq!(own[0], 20.0, "root: 100 - a(30) - b(50)");
        assert_eq!(own[1], 15.0, "a: 30 - 10 - 5");
        assert_eq!(own[2], 10.0, "a leaf keeps its duration");
        assert_eq!(own[5], 7.0, "an aside is charged to nobody");
        assert_eq!(own[6], -20.0, "a replay dearer than its op goes negative");
    }

    #[test]
    fn per_op_sums_spans_of_one_name_within_each_op() {
        let l = log();
        assert_eq!(l.per_op("leaf", &l.dur_us()), vec![15.0]);
        assert_eq!(l.per_op("b", &l.dur_us()), vec![50.0, 60.0]);
        assert_eq!(l.per_op("root", &l.self_us()), vec![20.0, -20.0]);
        assert!(l.per_op("absent", &l.dur_us()).is_empty());
    }

    #[test]
    fn time_records_a_span_around_the_closure() {
        let mut l = SpanLog::new();
        let (id, v) = l.time("work", None, 3, || 41 + 1);
        assert_eq!(v, 42);
        let s = &l.spans()[id];
        assert_eq!((s.name, s.op, s.parent), ("work", 3, None));
        assert!(s.dur_us >= 0.0 && s.start_us >= 0.0);
    }
}
