//! Chrome trace-event JSON export (Perfetto / `chrome://tracing` loadable).
//!
//! A [`Trace`] is one *process* row in the viewer: a named set of *tracks*
//! (threads) carrying duration and instant events. Multiple traces render
//! as separate process groups in one file — the repo uses that to show
//! real wall-clock spans and the DES virtual-time schedule side by side.
//!
//! Format notes (see the Trace Event Format spec): we emit `"M"` metadata
//! events naming each process/thread, `"X"` complete events for durations,
//! `"i"` instant events, and `"s"`/`"f"` flow events — the arrows Perfetto
//! draws between causally linked slices on different tracks (a parent span
//! on the request track flowing into its S/R/K/T children on the core /
//! PCIe / GPU tracks). Timestamps are microseconds.

use crate::json::{obj, parse, Json, JsonError};
use crate::span::{EventRecord, SpanRecord};

/// Which end of a flow arrow an event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStep {
    /// The arrow's origin (`ph:"s"`).
    Start,
    /// The arrow's destination (`ph:"f"`, binding point `"e"`).
    Finish,
}

/// Flow linkage of a [`TraceEvent`]: events sharing an `id` are joined by
/// an arrow from the `Start` event to the `Finish` event.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Which end of the arrow this event is.
    pub step: FlowStep,
    /// Flow identity; start and finish must agree.
    pub id: u64,
}

/// One duration, instant, or flow event on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (shown on the slice).
    pub name: String,
    /// Category string (comma-separable in viewers).
    pub cat: String,
    /// Track (thread row) the event belongs to.
    pub track: String,
    /// Start timestamp, µs.
    pub ts_us: f64,
    /// Duration, µs. `None` renders as an instant event.
    pub dur_us: Option<f64>,
    /// Flow linkage; when set, the event renders as `ph:"s"`/`ph:"f"`
    /// (duration is ignored by the format for flow events).
    pub flow: Option<Flow>,
    /// Extra payload shown in the viewer's args pane.
    pub args: Vec<(String, Json)>,
}

/// One process row: a named group of tracks and their events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Process name shown in the viewer.
    pub process: String,
    /// Events, in insertion order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace for the given process row.
    pub fn new(process: impl Into<String>) -> Trace {
        Trace {
            process: process.into(),
            events: Vec::new(),
        }
    }

    /// Append a duration event.
    pub fn duration(
        &mut self,
        track: impl Into<String>,
        name: impl Into<String>,
        cat: impl Into<String>,
        ts_us: f64,
        dur_us: f64,
        args: Vec<(String, Json)>,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            cat: cat.into(),
            track: track.into(),
            ts_us,
            dur_us: Some(dur_us),
            flow: None,
            args,
        });
    }

    /// Append an instant event.
    pub fn instant(
        &mut self,
        track: impl Into<String>,
        name: impl Into<String>,
        cat: impl Into<String>,
        ts_us: f64,
        args: Vec<(String, Json)>,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            cat: cat.into(),
            track: track.into(),
            ts_us,
            dur_us: None,
            flow: None,
            args,
        });
    }

    /// Append the origin of a flow arrow named `name` with identity `id`.
    pub fn flow_start(
        &mut self,
        track: impl Into<String>,
        name: impl Into<String>,
        ts_us: f64,
        id: u64,
    ) {
        self.flow_event(track, name, ts_us, FlowStep::Start, id);
    }

    /// Append the destination of flow arrow `id`.
    pub fn flow_finish(
        &mut self,
        track: impl Into<String>,
        name: impl Into<String>,
        ts_us: f64,
        id: u64,
    ) {
        self.flow_event(track, name, ts_us, FlowStep::Finish, id);
    }

    fn flow_event(
        &mut self,
        track: impl Into<String>,
        name: impl Into<String>,
        ts_us: f64,
        step: FlowStep,
        id: u64,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            cat: "flow".to_string(),
            track: track.into(),
            ts_us,
            dur_us: None,
            flow: Some(Flow { step, id }),
            args: Vec::new(),
        });
    }

    /// Build a trace from collected wall-clock spans and events. Each span
    /// track becomes one thread row; span args and ids land in the args
    /// pane so parent/child linkage survives export.
    pub fn from_spans(process: &str, spans: &[SpanRecord], events: &[EventRecord]) -> Trace {
        let mut trace = Trace::new(process);
        for s in spans {
            let mut args: Vec<(String, Json)> = vec![("span_id".to_string(), s.id.into())];
            if let Some(p) = s.parent {
                args.push(("parent_span_id".to_string(), p.into()));
            }
            args.extend(
                s.args
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(v.as_str()))),
            );
            trace.duration(
                s.track.clone(),
                s.name.clone(),
                "span",
                s.start_us,
                s.dur_us,
                args,
            );
        }
        for e in events {
            let args = e
                .args
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                .collect();
            trace.instant(e.track.clone(), e.name.clone(), "event", e.ts_us, args);
        }
        trace
    }

    /// Track names in first-appearance order.
    pub fn tracks(&self) -> Vec<&str> {
        let mut seen: Vec<&str> = Vec::new();
        for e in &self.events {
            if !seen.contains(&e.track.as_str()) {
                seen.push(&e.track);
            }
        }
        seen
    }
}

/// Render traces as one Chrome trace-event JSON document. Each trace gets
/// its own pid; each distinct track within it gets a tid, both announced
/// via `"M"` metadata records so viewers show human-readable names.
pub fn write_chrome_json(traces: &[&Trace]) -> String {
    Json::Obj(chrome_doc(traces)).to_json_string()
}

/// The top-level members of [`write_chrome_json`]'s document, for callers
/// that add keys of their own before writing it.
pub(crate) fn chrome_doc(traces: &[&Trace]) -> Vec<(String, Json)> {
    let mut events: Vec<Json> = Vec::new();
    for (pid, trace) in traces.iter().enumerate() {
        let pid = pid as u64 + 1;
        events.push(obj([
            ("name", "process_name".into()),
            ("ph", "M".into()),
            ("pid", pid.into()),
            ("tid", Json::from(0u64)),
            ("args", obj([("name", trace.process.as_str().into())])),
        ]));
        let tracks = trace.tracks();
        for (tid, track) in tracks.iter().enumerate() {
            events.push(obj([
                ("name", "thread_name".into()),
                ("ph", "M".into()),
                ("pid", pid.into()),
                ("tid", Json::from(tid as u64 + 1)),
                ("args", obj([("name", Json::from(*track))])),
            ]));
        }
        for e in &trace.events {
            let tid = tracks.iter().position(|t| *t == e.track).unwrap() as u64 + 1;
            let mut fields: Vec<(&str, Json)> = vec![
                ("name", e.name.as_str().into()),
                ("cat", e.cat.as_str().into()),
                ("pid", pid.into()),
                ("tid", tid.into()),
                ("ts", e.ts_us.into()),
            ];
            match (&e.flow, e.dur_us) {
                (Some(flow), _) => {
                    match flow.step {
                        FlowStep::Start => fields.push(("ph", "s".into())),
                        FlowStep::Finish => {
                            fields.push(("ph", "f".into()));
                            // Bind to the enclosing slice so the arrow ends
                            // on the child slice rather than its next event.
                            fields.push(("bp", "e".into()));
                        }
                    }
                    fields.push(("id", flow.id.into()));
                }
                (None, Some(dur)) => {
                    fields.push(("ph", "X".into()));
                    fields.push(("dur", dur.into()));
                }
                (None, None) => {
                    fields.push(("ph", "i".into()));
                    fields.push(("s", "t".into()));
                }
            }
            fields.push((
                "args",
                Json::Obj(e.args.iter().map(|(k, v)| (k.clone(), v.clone())).collect()),
            ));
            events.push(obj(fields));
        }
    }
    vec![
        ("traceEvents".to_string(), Json::Arr(events)),
        ("displayTimeUnit".to_string(), "ms".into()),
    ]
}

/// Parse a Chrome trace-event document produced by [`write_chrome_json`]
/// back into [`Trace`]s (used by the round-trip tests and post-processing).
/// Unknown phase types are skipped; metadata rebuilds process/track names.
pub fn from_chrome_json(text: &str) -> Result<Vec<Trace>, JsonError> {
    let doc = parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .ok_or(JsonError {
            message: "missing traceEvents array".to_string(),
            offset: 0,
        })?;

    // pid -> (process name, tid -> track name), insertion-ordered by pid.
    let mut pids: Vec<u64> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut tracks: Vec<Vec<(u64, String)>> = Vec::new();
    let mut bodies: Vec<Vec<TraceEvent>> = Vec::new();

    let idx_of = |pids: &mut Vec<u64>,
                  names: &mut Vec<String>,
                  tracks: &mut Vec<Vec<(u64, String)>>,
                  bodies: &mut Vec<Vec<TraceEvent>>,
                  pid: u64| {
        match pids.iter().position(|&p| p == pid) {
            Some(i) => i,
            None => {
                pids.push(pid);
                names.push(format!("pid {pid}"));
                tracks.push(Vec::new());
                bodies.push(Vec::new());
                pids.len() - 1
            }
        }
    };

    for ev in events {
        let pid = ev.get("pid").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        let tid = ev.get("tid").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        let ph = ev.get("ph").and_then(|v| v.as_str()).unwrap_or("");
        let name = ev.get("name").and_then(|v| v.as_str()).unwrap_or("");
        let i = idx_of(&mut pids, &mut names, &mut tracks, &mut bodies, pid);
        match ph {
            "M" => {
                let label = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                    .unwrap_or("")
                    .to_string();
                match name {
                    "process_name" => names[i] = label,
                    "thread_name" => tracks[i].push((tid, label)),
                    _ => {}
                }
            }
            "X" | "i" | "s" | "f" => {
                let track = tracks[i]
                    .iter()
                    .find(|(t, _)| *t == tid)
                    .map(|(_, n)| n.clone())
                    .unwrap_or_else(|| format!("tid {tid}"));
                let args = match ev.get("args") {
                    Some(Json::Obj(pairs)) => pairs.clone(),
                    _ => Vec::new(),
                };
                bodies[i].push(TraceEvent {
                    name: name.to_string(),
                    cat: ev
                        .get("cat")
                        .and_then(|v| v.as_str())
                        .unwrap_or("")
                        .to_string(),
                    track,
                    ts_us: ev.get("ts").and_then(|v| v.as_f64()).unwrap_or(0.0),
                    dur_us: if ph == "X" {
                        Some(ev.get("dur").and_then(|v| v.as_f64()).unwrap_or(0.0))
                    } else {
                        None
                    },
                    flow: match ph {
                        "s" | "f" => Some(Flow {
                            step: if ph == "s" {
                                FlowStep::Start
                            } else {
                                FlowStep::Finish
                            },
                            id: ev.get("id").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64,
                        }),
                        _ => None,
                    },
                    args,
                });
            }
            _ => {}
        }
    }

    Ok(names
        .into_iter()
        .zip(bodies)
        .map(|(process, events)| Trace { process, events })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("serving");
        t.duration(
            "serve",
            "batch 0",
            "span",
            10.0,
            120.5,
            vec![("batch".to_string(), Json::from(0u64))],
        );
        t.duration("serve", "batch 1", "span", 140.0, 80.25, vec![]);
        t.instant(
            "serve",
            "retry",
            "event",
            150.0,
            vec![("attempt".to_string(), Json::from(1u64))],
        );
        t.duration("prepro", "S1A c0", "des", 0.0, 55.0, vec![]);
        t
    }

    #[test]
    fn tracks_are_first_appearance_ordered() {
        assert_eq!(sample().tracks(), vec!["serve", "prepro"]);
    }

    #[test]
    fn chrome_json_round_trips() {
        let t = sample();
        let text = write_chrome_json(&[&t]);
        let back = from_chrome_json(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0], t);
    }

    #[test]
    fn multi_process_round_trips_in_order() {
        let a = sample();
        let mut b = Trace::new("virtual time");
        b.duration("GPU", "K(S1)", "des", 5.0, 42.0, vec![]);
        let text = write_chrome_json(&[&a, &b]);
        let back = from_chrome_json(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], a);
        assert_eq!(back[1], b);
    }

    #[test]
    fn from_spans_carries_parent_linkage() {
        let spans = vec![
            SpanRecord {
                id: 1,
                parent: None,
                name: "outer".to_string(),
                track: "train".to_string(),
                start_us: 0.0,
                dur_us: 100.0,
                args: vec![("batch".to_string(), "3".to_string())],
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "inner".to_string(),
                track: "train".to_string(),
                start_us: 10.0,
                dur_us: 50.0,
                args: vec![],
            },
        ];
        let events = vec![EventRecord {
            name: "oom".to_string(),
            track: "train".to_string(),
            ts_us: 20.0,
            args: vec![],
        }];
        let t = Trace::from_spans("wall clock", &spans, &events);
        assert_eq!(t.events.len(), 3);
        let inner = t.events.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(
            inner.args.iter().find(|(k, _)| k == "parent_span_id"),
            Some(&("parent_span_id".to_string(), Json::from(1u64)))
        );
        let text = write_chrome_json(&[&t]);
        assert_eq!(from_chrome_json(&text).unwrap()[0], t);
    }

    /// Flow events (`ph:"s"`/`ph:"f"`) linking parent→child slices across
    /// tracks survive the export→parse round trip bit-exactly, like every
    /// other event kind.
    #[test]
    fn flow_events_round_trip() {
        let mut t = Trace::new("requests");
        t.duration("request", "request #4", "request", 10.0, 90.0, vec![]);
        t.duration("GPU", "kernel", "request", 30.0, 40.0, vec![]);
        t.flow_start("request", "kernel", 10.0, 0xDEAD_BEEF);
        t.flow_finish("GPU", "kernel", 30.0, 0xDEAD_BEEF);

        let text = write_chrome_json(&[&t]);
        // Raw format checks: both phases present, finish binds enclosing.
        assert!(text.contains("\"ph\":\"s\""), "{text}");
        assert!(text.contains("\"ph\":\"f\""), "{text}");
        assert!(text.contains("\"bp\":\"e\""), "{text}");

        let back = from_chrome_json(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0], t);
        let flows: Vec<_> = back[0]
            .events
            .iter()
            .filter_map(|e| e.flow.as_ref())
            .collect();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].step, FlowStep::Start);
        assert_eq!(flows[1].step, FlowStep::Finish);
        assert!(flows.iter().all(|f| f.id == 0xDEAD_BEEF));
    }

    #[test]
    fn rejects_documents_without_trace_events() {
        assert!(from_chrome_json("{}").is_err());
        assert!(from_chrome_json("not json").is_err());
    }
}
