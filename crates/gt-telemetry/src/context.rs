//! Request-scoped causal tracing: deterministic trace contexts and span
//! trees.
//!
//! Aggregates (histograms, schedule profiles) say *that* p99 moved; a
//! [`RequestTrace`] says *why request #4711 was slow*: one span tree per
//! admitted request decomposing its life into queue-wait / S / R / K / T /
//! kernel / stall / backoff segments. The spans are the same
//! [`SpanRecord`]s a [`MemoryCollector`](crate::MemoryCollector) holds; the
//! clock belongs to the holder, so a collector's records are wall µs and a
//! request trace's are DES virtual µs. Identities are derived
//! purely from `(seed, request_index)` through splitmix64 — never from
//! wall-clock or randomness — so two runs of the same workload produce
//! bit-identical trace ids at any `GT_THREADS` width, and a trace exported
//! from a recovered process matches the one the crashed process would have
//! written.

use crate::json::{obj, Json, ToJson};
use crate::span::SpanRecord;
use crate::trace::Trace;

/// The splitmix64 finalizer: the workspace's one stateless 64-bit mixer
/// (trace ids here, fault-plan rolls and chaos sampling in `gt-sim`).
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a over a byte stream: the workspace's one order-sensitive
/// digest (subgraph-cache keys in `gt-core`, property-suite keys in
/// `gt-sim::prop`, the test digests that pin bit-identity).
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The identity a request carries through Gateway → Supervisor → prepro /
/// DES: a trace id plus the id of the span acting as current parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace identity, shared by every span of the request.
    pub trace_id: u64,
    /// Span the next child attaches to.
    pub parent_span_id: u64,
}

impl TraceContext {
    /// Root context for a request: `trace_id` hashes `(seed, request)`,
    /// the root span id hashes the trace id. Pure — no clock, no RNG.
    pub fn for_request(seed: u64, request_index: usize) -> TraceContext {
        let trace_id = splitmix64(splitmix64(seed) ^ (request_index as u64));
        TraceContext {
            trace_id,
            parent_span_id: splitmix64(trace_id),
        }
    }

    /// The deterministic id of the `n`-th span minted under this trace.
    pub fn span_id(&self, n: usize) -> u64 {
        splitmix64(self.trace_id ^ splitmix64(n as u64 + 1))
    }
}

/// A request's full causal record: its span tree plus how it resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// Trace id (hashes `(seed, request_index)`).
    pub trace_id: u64,
    /// Submission index of the request.
    pub request_index: usize,
    /// Tenant the request was submitted for (`None` when the gateway runs
    /// without multi-tenant admission).
    pub tenant: Option<usize>,
    /// Supervisor batch index actually served (`None` for shed requests —
    /// they never reached the supervisor or the journal).
    pub batch_index: Option<usize>,
    /// Stable outcome label (`succeeded`, `shed`, ...).
    pub outcome: String,
    /// Exact outcome JSON (the same bytes the journal records), for
    /// reconciliation against the write-ahead outcome stream.
    pub outcome_json: String,
    /// Arrival at the gateway, virtual µs.
    pub arrival_us: f64,
    /// Resolution time, virtual µs.
    pub done_us: f64,
    /// The span tree, root first, in virtual µs. Each record's `id` is its
    /// deterministic span id ([`TraceContext::span_id`]), its `track` the
    /// segment's Chrome-trace row, and its one arg `("segment", label)`
    /// names what it measures (`request`, `queue-wait`, `S`, `R`, `K`,
    /// `T`, `kernel`, `stall`, `backoff`).
    pub spans: Vec<SpanRecord>,
}

/// A request span's segment label: its one arg.
fn segment(span: &SpanRecord) -> &str {
    span.args.first().map_or("", |(_, label)| label)
}

impl RequestTrace {
    /// Root span id, when the tree is non-empty.
    pub fn root_span(&self) -> Option<u64> {
        self.spans.first().map(|s| s.id)
    }

    /// Drop every non-root span (tail sampling demotion): the request stays
    /// visible — and reconcilable against the journal — but its tree costs
    /// one span.
    pub fn demote_to_root(&mut self) {
        self.spans.truncate(1);
    }

    /// Render the span tree onto `trace`, one slice per span on its
    /// segment's track, with Perfetto flow arrows linking each parent span
    /// to each of its children (the child's span id names the flow).
    pub fn render(&self, trace: &mut Trace) {
        for s in &self.spans {
            let mut args: Vec<(String, Json)> = vec![
                ("trace_id".to_string(), self.trace_id.into()),
                ("span_id".to_string(), s.id.into()),
                ("request".to_string(), Json::from(self.request_index as u64)),
                ("segment".to_string(), segment(s).into()),
            ];
            if let Some(p) = s.parent {
                args.push(("parent_span_id".to_string(), p.into()));
            }
            if s.parent.is_none() {
                args.push(("outcome".to_string(), self.outcome.as_str().into()));
            }
            trace.duration(
                s.track.clone(),
                s.name.clone(),
                "request",
                s.start_us,
                s.dur_us,
                args,
            );
        }
        // Flow arrows: one start at the parent's slice, one finish at the
        // child's, both named by the child span id, so Perfetto draws the
        // causal edge across tracks.
        for s in &self.spans {
            let Some(parent_id) = s.parent else { continue };
            let Some(parent) = self.spans.iter().find(|p| p.id == parent_id) else {
                continue;
            };
            trace.flow_start(parent.track.clone(), s.name.clone(), parent.start_us, s.id);
            trace.flow_finish(s.track.clone(), s.name.clone(), s.start_us, s.id);
        }
    }
}

/// A request span's dump form: the keys and order the flight recorder has
/// always written, the segment label under `kind`.
fn span_json(s: &SpanRecord) -> Json {
    let mut pairs = vec![
        ("span_id", s.id.into()),
        ("kind", segment(s).into()),
        ("name", s.name.as_str().into()),
        ("start_us", s.start_us.into()),
        ("dur_us", s.dur_us.into()),
    ];
    if let Some(p) = s.parent {
        pairs.push(("parent", p.into()));
    }
    obj(pairs)
}

impl ToJson for RequestTrace {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("trace_id", self.trace_id.into()),
            ("request", Json::from(self.request_index as u64)),
            (
                "batch_index",
                match self.batch_index {
                    Some(b) => Json::from(b as u64),
                    None => Json::Null,
                },
            ),
        ];
        // Emitted only under multi-tenant admission, so single-tenant dumps
        // are byte-identical to what they were before tenancy existed.
        if let Some(t) = self.tenant {
            pairs.push(("tenant", Json::from(t as u64)));
        }
        pairs.extend([
            ("outcome", self.outcome.as_str().into()),
            ("outcome_json", self.outcome_json.as_str().into()),
            ("arrival_us", self.arrival_us.into()),
            ("done_us", self.done_us.into()),
            (
                "spans",
                Json::Arr(self.spans.iter().map(span_json).collect()),
            ),
        ]);
        obj(pairs)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn contexts_are_deterministic_and_distinct() {
        let a = TraceContext::for_request(42, 0);
        assert_eq!(a, TraceContext::for_request(42, 0));
        let b = TraceContext::for_request(42, 1);
        assert_ne!(a.trace_id, b.trace_id);
        assert_ne!(TraceContext::for_request(43, 0).trace_id, a.trace_id);
        // Span ids are stable per mint index and distinct across indices.
        assert_eq!(a.span_id(3), a.span_id(3));
        assert_ne!(a.span_id(3), a.span_id(4));
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a".bytes()), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar".bytes()), 0x8594_4171_f739_67e8);
    }

    /// A request span as the tracer mints it: the segment label is its one
    /// arg.
    pub(crate) fn span(
        id: u64,
        parent: Option<u64>,
        name: &str,
        (segment, track): (&str, &str),
        start_us: f64,
        dur_us: f64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            track: track.to_string(),
            start_us,
            dur_us,
            args: vec![("segment".to_string(), segment.to_string())],
        }
    }

    fn two_span_trace() -> RequestTrace {
        let ctx = TraceContext::for_request(7, 12);
        let root = ctx.parent_span_id;
        RequestTrace {
            trace_id: ctx.trace_id,
            request_index: 12,
            tenant: None,
            batch_index: Some(9),
            outcome: "succeeded".to_string(),
            outcome_json: "{\"outcome\":\"succeeded\"}".to_string(),
            arrival_us: 100.0,
            done_us: 250.0,
            spans: vec![
                span(
                    root,
                    None,
                    "request #12",
                    ("request", "request"),
                    100.0,
                    150.0,
                ),
                span(ctx.span_id(0), Some(root), "S", ("S", "core"), 110.0, 40.0),
            ],
        }
    }

    #[test]
    fn render_links_parent_to_child_with_flows() {
        let rt = two_span_trace();
        let mut trace = Trace::new("requests");
        rt.render(&mut trace);
        // Two slices + one flow start + one flow finish.
        assert_eq!(trace.events.len(), 4);
        let flows: Vec<_> = trace.events.iter().filter(|e| e.flow.is_some()).collect();
        assert_eq!(flows.len(), 2);
        let child_id = rt.spans[1].id;
        assert!(flows
            .iter()
            .all(|e| e.flow.as_ref().unwrap().id == child_id));
        assert_eq!(flows[0].track, "request"); // start at the parent
        assert_eq!(flows[1].track, "core"); // finish at the child
    }

    #[test]
    fn demotion_keeps_the_root_and_the_outcome() {
        let mut rt = two_span_trace();
        rt.demote_to_root();
        assert_eq!(rt.spans.len(), 1);
        assert_eq!(segment(&rt.spans[0]), "request");
        let j = rt.to_json();
        assert_eq!(j.get("outcome").unwrap().as_str(), Some("succeeded"));
        assert_eq!(j.get("batch_index").unwrap().as_f64(), Some(9.0));
        let spans = j.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans[0].get("kind").unwrap().as_str(), Some("request"));
    }
}
