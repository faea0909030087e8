//! Flight recorder: a fixed-size ring of recent [`RequestTrace`]s.
//!
//! Aircraft keep their last minutes of telemetry in a crash-survivable
//! loop; this is the serving stack's equivalent. The ring holds the most
//! recent request span trees, cheap to append and bounded in memory, and
//! [`FlightRecorder::dump`] freezes them into one JSON artifact when
//! something goes wrong — an SLO breach, an injected fault, a chaos-oracle
//! violation, or a crash site.
//!
//! The dump is a valid Chrome trace-event document (it opens directly in
//! Perfetto) carrying extra top-level `gt_*` keys: the dump reason, the
//! schema version, and a per-request outcome table whose `outcome_json`
//! strings are byte-identical to the write-ahead journal's records — that
//! is what lets a dump be reconciled exactly against the journal's
//! `BatchOutcome` stream.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::context::RequestTrace;
use crate::json::{parse, Json, JsonError, ToJson};
use crate::trace::{chrome_doc, Trace};

/// Version of the dump's `gt_flight_schema` field.
pub const FLIGHT_SCHEMA_VERSION: u64 = 1;

/// Fixed-capacity ring buffer of recent request traces.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<RequestTrace>>,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` requests.
    pub fn new(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        FlightRecorder {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Requests currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a trace, evicting the oldest when full.
    pub fn record(&self, trace: RequestTrace) {
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Copy of the retained traces, oldest first.
    pub fn traces(&self) -> Vec<RequestTrace> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }

    /// Freeze the ring into a dump artifact: a Chrome trace-event JSON
    /// document (Perfetto-loadable) with `gt_flight_*` metadata on top.
    pub fn dump(&self, reason: &str) -> String {
        let traces = self.traces();
        let mut trace = Trace::new("flight recorder");
        for rt in &traces {
            rt.render(&mut trace);
        }
        let mut doc = chrome_doc(&[&trace]);
        doc.extend([
            (
                "gt_flight_schema".to_string(),
                Json::from(FLIGHT_SCHEMA_VERSION),
            ),
            ("gt_flight_reason".to_string(), Json::from(reason)),
            (
                "gt_flight_requests".to_string(),
                Json::Arr(traces.iter().map(|t| t.to_json()).collect()),
            ),
        ]);
        Json::Obj(doc).to_json_string()
    }
}

/// The reconciliation view of a dump: `(batch_index, outcome_json)` for
/// every retained request that reached the supervisor, in batch order —
/// directly comparable against the journal's batch records.
pub fn dump_outcomes(dump: &str) -> Result<Vec<(usize, String)>, JsonError> {
    let doc = parse(dump)?;
    let requests = doc
        .get("gt_flight_requests")
        .and_then(|r| r.as_arr())
        .ok_or(JsonError {
            message: "missing gt_flight_requests".to_string(),
            offset: 0,
        })?;
    let mut out: Vec<(usize, String)> = requests
        .iter()
        .filter_map(|r| {
            let batch = r.get("batch_index")?.as_f64()? as usize;
            let outcome = r.get("outcome_json")?.as_str()?.to_string();
            Some((batch, outcome))
        })
        .collect();
    out.sort_by_key(|(b, _)| *b);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::tests::span;
    use crate::context::TraceContext;
    use crate::trace::from_chrome_json;

    fn trace(request_index: usize) -> RequestTrace {
        let ctx = TraceContext::for_request(1, request_index);
        RequestTrace {
            trace_id: ctx.trace_id,
            request_index,
            tenant: None,
            batch_index: Some(request_index),
            outcome: "succeeded".to_string(),
            outcome_json: "{\"outcome\":\"succeeded\"}".to_string(),
            arrival_us: request_index as f64 * 10.0,
            done_us: request_index as f64 * 10.0 + 5.0,
            spans: vec![span(
                ctx.parent_span_id,
                None,
                &format!("request #{request_index}"),
                ("request", "request"),
                request_index as f64 * 10.0,
                5.0,
            )],
        }
    }

    /// Ring wraparound: capacity is never exceeded, eviction is exactly
    /// FIFO, and the retained window is the most recent one — through
    /// several complete wraps.
    #[test]
    fn wraparound_keeps_the_newest_window() {
        let rec = FlightRecorder::new(4);
        assert!(rec.is_empty());
        for i in 0..11 {
            rec.record(trace(i));
            assert!(rec.len() <= 4, "capacity exceeded at insert {i}");
            let got: Vec<usize> = rec.traces().iter().map(|t| t.request_index).collect();
            let want: Vec<usize> = (i.saturating_sub(3)..=i).collect();
            assert_eq!(got, want, "after insert {i}");
        }
        assert_eq!(rec.len(), 4);
    }

    #[test]
    fn exactly_at_capacity_no_eviction() {
        let rec = FlightRecorder::new(3);
        for i in 0..3 {
            rec.record(trace(i));
        }
        assert_eq!(rec.len(), 3);
        let got: Vec<usize> = rec.traces().iter().map(|t| t.request_index).collect();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn dump_is_perfetto_loadable_and_carries_metadata() {
        let rec = FlightRecorder::new(8);
        for i in 0..3 {
            rec.record(trace(i));
        }
        let dump = rec.dump("slo-breach:latency");
        // Perfetto round-trip: the dump parses as a Chrome trace document.
        let traces = from_chrome_json(&dump).unwrap();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].process, "flight recorder");
        assert_eq!(traces[0].events.len(), 3);
        // Metadata survives alongside.
        let doc = parse(&dump).unwrap();
        assert_eq!(
            doc.get("gt_flight_reason").unwrap().as_str(),
            Some("slo-breach:latency")
        );
        assert_eq!(
            doc.get("gt_flight_schema").unwrap().as_f64(),
            Some(FLIGHT_SCHEMA_VERSION as f64)
        );
        let outcomes = dump_outcomes(&dump).unwrap();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].0, 0);
        assert!(outcomes.iter().all(|(_, o)| o.contains("succeeded")));
    }

    #[test]
    fn dump_outcomes_skips_shed_requests() {
        let rec = FlightRecorder::new(4);
        let mut shed = trace(5);
        shed.batch_index = None;
        shed.outcome = "shed".to_string();
        rec.record(trace(0));
        rec.record(shed);
        let outcomes = dump_outcomes(&rec.dump("test")).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].0, 0);
    }

    /// The dump's exact bytes for a fixed ring: a root-only shed, then a
    /// tenant's full tree (every segment and track) with its flow arrows.
    #[test]
    fn dump_byte_layout_is_pinned() {
        let rec = FlightRecorder::new(4);
        let ctx = TraceContext::for_request(3, 4);
        rec.record(RequestTrace {
            trace_id: ctx.trace_id,
            request_index: 4,
            tenant: None,
            batch_index: None,
            outcome: "shed".to_string(),
            outcome_json: "{\"outcome\":\"shed\",\"reason\":\"queue-full\"}".to_string(),
            arrival_us: 400.0,
            done_us: 400.0,
            spans: vec![span(
                ctx.parent_span_id,
                None,
                "request #4",
                ("request", "request"),
                400.0,
                0.0,
            )],
        });
        let ctx = TraceContext::for_request(3, 5);
        let root = ctx.parent_span_id;
        let mut spans = vec![span(
            root,
            None,
            "request #5 (tenant 2)",
            ("request", "request"),
            500.0,
            162.5,
        )];
        for (n, (segment, start, dur)) in [
            (("queue-wait", "request"), 500.0, 20.0),
            (("S", "core"), 520.0, 30.25),
            (("R", "core"), 550.25, 4.5),
            (("K", "core"), 520.0, 12.0),
            (("T", "PCIe"), 554.75, 7.125),
            (("kernel", "GPU"), 520.0, 90.0),
            (("stall", "serve"), 610.0, 40.0),
            (("backoff", "serve"), 650.0, 12.5),
        ]
        .into_iter()
        .enumerate()
        {
            spans.push(span(
                ctx.span_id(n),
                Some(root),
                segment.0,
                segment,
                start,
                dur,
            ));
        }
        rec.record(RequestTrace {
            trace_id: ctx.trace_id,
            request_index: 5,
            tenant: Some(2),
            batch_index: Some(3),
            outcome: "recovered".to_string(),
            outcome_json: "{\"outcome\":\"recovered\",\"attempts\":2}".to_string(),
            arrival_us: 500.0,
            done_us: 662.5,
            spans,
        });
        let want = concat!(
            r#"{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"flight recorder"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"request"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"core"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"PCIe"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":4,"args":{"name":"GPU"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":5,"args":{"name":"serve"}},"#,
            r#"{"name":"request #4","cat":"request","pid":1,"tid":1,"ts":400,"ph":"X","dur":0,"args":{"trace_id":10968187914866821000,"span_id":6957558452390164000,"request":4,"segment":"request","outcome":"shed"}},"#,
            r#"{"name":"request #5 (tenant 2)","cat":"request","pid":1,"tid":1,"ts":500,"ph":"X","dur":162.5,"args":{"trace_id":14871207630202692000,"span_id":6317840770260608000,"request":5,"segment":"request","outcome":"recovered"}},"#,
            r#"{"name":"queue-wait","cat":"request","pid":1,"tid":1,"ts":500,"ph":"X","dur":20,"args":{"trace_id":14871207630202692000,"span_id":5176890198050575000,"request":5,"segment":"queue-wait","parent_span_id":6317840770260608000}},"#,
            r#"{"name":"S","cat":"request","pid":1,"tid":2,"ts":520,"ph":"X","dur":30.25,"args":{"trace_id":14871207630202692000,"span_id":14587191656564466000,"request":5,"segment":"S","parent_span_id":6317840770260608000}},"#,
            r#"{"name":"R","cat":"request","pid":1,"tid":2,"ts":550.25,"ph":"X","dur":4.5,"args":{"trace_id":14871207630202692000,"span_id":7583132990230907000,"request":5,"segment":"R","parent_span_id":6317840770260608000}},"#,
            r#"{"name":"K","cat":"request","pid":1,"tid":2,"ts":520,"ph":"X","dur":12,"args":{"trace_id":14871207630202692000,"span_id":6517475443819050000,"request":5,"segment":"K","parent_span_id":6317840770260608000}},"#,
            r#"{"name":"T","cat":"request","pid":1,"tid":3,"ts":554.75,"ph":"X","dur":7.125,"args":{"trace_id":14871207630202692000,"span_id":1765590448971059000,"request":5,"segment":"T","parent_span_id":6317840770260608000}},"#,
            r#"{"name":"kernel","cat":"request","pid":1,"tid":4,"ts":520,"ph":"X","dur":90,"args":{"trace_id":14871207630202692000,"span_id":11279562684574355000,"request":5,"segment":"kernel","parent_span_id":6317840770260608000}},"#,
            r#"{"name":"stall","cat":"request","pid":1,"tid":5,"ts":610,"ph":"X","dur":40,"args":{"trace_id":14871207630202692000,"span_id":17321126809939930000,"request":5,"segment":"stall","parent_span_id":6317840770260608000}},"#,
            r#"{"name":"backoff","cat":"request","pid":1,"tid":5,"ts":650,"ph":"X","dur":12.5,"args":{"trace_id":14871207630202692000,"span_id":3641730176048064500,"request":5,"segment":"backoff","parent_span_id":6317840770260608000}},"#,
            r#"{"name":"queue-wait","cat":"flow","pid":1,"tid":1,"ts":500,"ph":"s","id":5176890198050575000,"args":{}},"#,
            r#"{"name":"queue-wait","cat":"flow","pid":1,"tid":1,"ts":500,"ph":"f","bp":"e","id":5176890198050575000,"args":{}},"#,
            r#"{"name":"S","cat":"flow","pid":1,"tid":1,"ts":500,"ph":"s","id":14587191656564466000,"args":{}},"#,
            r#"{"name":"S","cat":"flow","pid":1,"tid":2,"ts":520,"ph":"f","bp":"e","id":14587191656564466000,"args":{}},"#,
            r#"{"name":"R","cat":"flow","pid":1,"tid":1,"ts":500,"ph":"s","id":7583132990230907000,"args":{}},"#,
            r#"{"name":"R","cat":"flow","pid":1,"tid":2,"ts":550.25,"ph":"f","bp":"e","id":7583132990230907000,"args":{}},"#,
            r#"{"name":"K","cat":"flow","pid":1,"tid":1,"ts":500,"ph":"s","id":6517475443819050000,"args":{}},"#,
            r#"{"name":"K","cat":"flow","pid":1,"tid":2,"ts":520,"ph":"f","bp":"e","id":6517475443819050000,"args":{}},"#,
            r#"{"name":"T","cat":"flow","pid":1,"tid":1,"ts":500,"ph":"s","id":1765590448971059000,"args":{}},"#,
            r#"{"name":"T","cat":"flow","pid":1,"tid":3,"ts":554.75,"ph":"f","bp":"e","id":1765590448971059000,"args":{}},"#,
            r#"{"name":"kernel","cat":"flow","pid":1,"tid":1,"ts":500,"ph":"s","id":11279562684574355000,"args":{}},"#,
            r#"{"name":"kernel","cat":"flow","pid":1,"tid":4,"ts":520,"ph":"f","bp":"e","id":11279562684574355000,"args":{}},"#,
            r#"{"name":"stall","cat":"flow","pid":1,"tid":1,"ts":500,"ph":"s","id":17321126809939930000,"args":{}},"#,
            r#"{"name":"stall","cat":"flow","pid":1,"tid":5,"ts":610,"ph":"f","bp":"e","id":17321126809939930000,"args":{}},"#,
            r#"{"name":"backoff","cat":"flow","pid":1,"tid":1,"ts":500,"ph":"s","id":3641730176048064500,"args":{}},"#,
            r#"{"name":"backoff","cat":"flow","pid":1,"tid":5,"ts":650,"ph":"f","bp":"e","id":3641730176048064500,"args":{}}],"#,
            r#""displayTimeUnit":"ms","gt_flight_schema":1,"gt_flight_reason":"test","gt_flight_requests":[{"trace_id":10968187914866821000,"request":4,"batch_index":null,"outcome":"shed","outcome_json":"{\"outcome\":\"shed\",\"reason\":\"queue-full\"}","arrival_us":400,"done_us":400,"spans":[{"span_id":6957558452390164000,"kind":"request","name":"request #4","start_us":400,"dur_us":0}]},"#,
            r#"{"trace_id":14871207630202692000,"request":5,"batch_index":3,"tenant":2,"outcome":"recovered","outcome_json":"{\"outcome\":\"recovered\",\"attempts\":2}","arrival_us":500,"done_us":662.5,"spans":[{"span_id":6317840770260608000,"kind":"request","name":"request #5 (tenant 2)","start_us":500,"dur_us":162.5},"#,
            r#"{"span_id":5176890198050575000,"kind":"queue-wait","name":"queue-wait","start_us":500,"dur_us":20,"parent":6317840770260608000},"#,
            r#"{"span_id":14587191656564466000,"kind":"S","name":"S","start_us":520,"dur_us":30.25,"parent":6317840770260608000},"#,
            r#"{"span_id":7583132990230907000,"kind":"R","name":"R","start_us":550.25,"dur_us":4.5,"parent":6317840770260608000},"#,
            r#"{"span_id":6517475443819050000,"kind":"K","name":"K","start_us":520,"dur_us":12,"parent":6317840770260608000},"#,
            r#"{"span_id":1765590448971059000,"kind":"T","name":"T","start_us":554.75,"dur_us":7.125,"parent":6317840770260608000},"#,
            r#"{"span_id":11279562684574355000,"kind":"kernel","name":"kernel","start_us":520,"dur_us":90,"parent":6317840770260608000},"#,
            r#"{"span_id":17321126809939930000,"kind":"stall","name":"stall","start_us":610,"dur_us":40,"parent":6317840770260608000},"#,
            r#"{"span_id":3641730176048064500,"kind":"backoff","name":"backoff","start_us":650,"dur_us":12.5,"parent":6317840770260608000}]}]}"#,
        );
        assert_eq!(rec.dump("test"), want);
    }
}
