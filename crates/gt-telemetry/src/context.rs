//! Request-scoped causal tracing: deterministic trace contexts and span
//! trees.
//!
//! Aggregates (histograms, schedule profiles) say *that* p99 moved; a
//! [`RequestTrace`] says *why request #4711 was slow*: one span tree per
//! admitted request decomposing its life into queue-wait / S / R / K / T /
//! transfer / kernel / stall / backoff segments. Identities are derived
//! purely from `(seed, request_index)` through splitmix64 — never from
//! wall-clock or randomness — so two runs of the same workload produce
//! bit-identical trace ids at any `GT_THREADS` width, and a trace exported
//! from a recovered process matches the one the crashed process would have
//! written.

use crate::json::{obj, Json, ToJson};
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

    /// A child context parented at `span_id`.
    pub fn child(&self, span_id: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            parent_span_id: span_id,
        }
    }
}

/// What a traced segment measures — the causal vocabulary of the S/R/K/T
/// pipeline plus the serving layer around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Whole-request envelope (arrival → resolution).
    Request,
    /// Time waiting in the admission queue before service started.
    QueueWait,
    /// Neighborhood sampling (S).
    Sampling,
    /// Vertex reindexing (R).
    Reindex,
    /// Feature lookup (K).
    Lookup,
    /// Host→device transfer (T).
    Transfer,
    /// GPU kernel execution (forward/backward/optimizer).
    Kernel,
    /// Injected serving stall (virtual time, `FaultKind::ServeDelay`).
    Stall,
    /// Retry backoff the supervisor paid.
    Backoff,
}

impl SegmentKind {
    /// Stable kebab-case label used in span names and dump JSON.
    pub fn label(&self) -> &'static str {
        match self {
            SegmentKind::Request => "request",
            SegmentKind::QueueWait => "queue-wait",
            SegmentKind::Sampling => "S",
            SegmentKind::Reindex => "R",
            SegmentKind::Lookup => "K",
            SegmentKind::Transfer => "T",
            SegmentKind::Kernel => "kernel",
            SegmentKind::Stall => "stall",
            SegmentKind::Backoff => "backoff",
        }
    }

    /// The Chrome-trace track this segment renders on.
    pub fn track(&self) -> &'static str {
        match self {
            SegmentKind::Request | SegmentKind::QueueWait => "request",
            SegmentKind::Sampling | SegmentKind::Reindex | SegmentKind::Lookup => "core",
            SegmentKind::Transfer => "PCIe",
            SegmentKind::Kernel => "GPU",
            SegmentKind::Stall | SegmentKind::Backoff => "serve",
        }
    }
}

/// One span of a request's tree, in DES virtual microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Deterministic span id (see [`TraceContext::span_id`]).
    pub span_id: u64,
    /// Parent span id (`None` for the request root).
    pub parent: Option<u64>,
    /// What the segment measures.
    pub kind: SegmentKind,
    /// Display name (e.g. `"S"`, `"request #12"`).
    pub name: String,
    /// Start, virtual µs.
    pub start_us: f64,
    /// Duration, virtual µs.
    pub dur_us: f64,
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
    /// The span tree, root first.
    pub spans: Vec<TraceSpan>,
}

impl RequestTrace {
    /// Root span id, when the tree is non-empty.
    pub fn root_span(&self) -> Option<u64> {
        self.spans.first().map(|s| s.span_id)
    }

    /// End-to-end latency (arrival → resolution), virtual µs.
    pub fn latency_us(&self) -> f64 {
        self.done_us - self.arrival_us
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
                ("span_id".to_string(), s.span_id.into()),
                ("request".to_string(), Json::from(self.request_index as u64)),
                ("segment".to_string(), s.kind.label().into()),
            ];
            if let Some(p) = s.parent {
                args.push(("parent_span_id".to_string(), p.into()));
            }
            if s.parent.is_none() {
                args.push(("outcome".to_string(), self.outcome.as_str().into()));
            }
            trace.duration(
                s.kind.track(),
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
            let Some(parent) = self.spans.iter().find(|p| p.span_id == parent_id) else {
                continue;
            };
            trace.flow_start(
                parent.kind.track(),
                s.name.clone(),
                parent.start_us,
                s.span_id,
            );
            trace.flow_finish(s.kind.track(), s.name.clone(), s.start_us, s.span_id);
        }
    }
}

impl ToJson for TraceSpan {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("span_id", self.span_id.into()),
            ("kind", self.kind.label().into()),
            ("name", self.name.as_str().into()),
            ("start_us", self.start_us.into()),
            ("dur_us", self.dur_us.into()),
        ];
        if let Some(p) = self.parent {
            pairs.push(("parent", p.into()));
        }
        obj(pairs)
    }
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
                Json::Arr(self.spans.iter().map(|s| s.to_json()).collect()),
            ),
        ]);
        obj(pairs)
    }
}

#[cfg(test)]
mod tests {
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
        let child = a.child(a.span_id(1));
        assert_eq!(child.trace_id, a.trace_id);
        assert_eq!(child.parent_span_id, a.span_id(1));
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a".bytes()), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar".bytes()), 0x8594_4171_f739_67e8);
    }

    fn two_span_trace() -> RequestTrace {
        let ctx = TraceContext::for_request(7, 12);
        let root = ctx.parent_span_id;
        let child = ctx.span_id(0);
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
                TraceSpan {
                    span_id: root,
                    parent: None,
                    kind: SegmentKind::Request,
                    name: "request #12".to_string(),
                    start_us: 100.0,
                    dur_us: 150.0,
                },
                TraceSpan {
                    span_id: child,
                    parent: Some(root),
                    kind: SegmentKind::Sampling,
                    name: "S".to_string(),
                    start_us: 110.0,
                    dur_us: 40.0,
                },
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
        let child_id = rt.spans[1].span_id;
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
        assert_eq!(rt.spans[0].kind, SegmentKind::Request);
        assert!((rt.latency_us() - 150.0).abs() < 1e-12);
        let j = rt.to_json();
        assert_eq!(j.get("outcome").unwrap().as_str(), Some("succeeded"));
        assert_eq!(j.get("batch_index").unwrap().as_f64(), Some(9.0));
    }
}
