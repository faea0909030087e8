//! Request-scoped causal tracing through the serving stack.
//!
//! The [`RequestTracer`] is the gt-core end of gt-telemetry's tracing
//! contract: it mints a deterministic [`TraceContext`] per request (from
//! `(seed, request_index)` — never wall-clock), assembles the span tree
//! for every batch the [`Supervisor`](crate::serve::Supervisor) resolves
//! (queue-wait / S / R / K / T / kernel / stall / backoff, all in DES
//! virtual µs), and drives the two consumers:
//!
//! * the **flight recorder** — a bounded ring of recent span trees,
//!   frozen to a Perfetto-loadable JSON dump on the first SLO breach or
//!   an injected crash site;
//! * the **SLO engine** — every completion (served *and* shed) is
//!   classified against a declarative latency objective with multi-window
//!   burn-rate alerting, on the same virtual clock the DES prices batches
//!   in, so the whole alert stream is bit-identical across `GT_THREADS`
//!   widths.
//!
//! Tail sampling keeps dumps informative and bounded: any request that
//! resolved abnormally (shed, quarantined, degraded, recovered) or blew
//! the SLO latency threshold keeps its full tree; plain successes pass
//! through a seeded Algorithm-R-style reservoir and are otherwise demoted
//! to their root span (still present, still reconcilable against the
//! journal — just one span instead of a tree).

use crate::framework::BatchOutcome;
use crate::serve::{RequestCtx, Served};
use gt_sim::{Phase, Stage};
use gt_telemetry::{
    FlightRecorder, RequestTrace, SloAlert, SloEngine, SloSpec, SpanRecord, Telemetry, ToJson,
    TraceContext,
};
use std::path::PathBuf;

/// Requests retained by the flight-recorder ring.
pub const RING_CAPACITY: usize = 64;

/// Plain successes that keep their full span tree (Algorithm-R acceptance
/// over the stream of normal requests; everything abnormal is always kept
/// in full).
pub const RESERVOIR: usize = 8;

/// Static policy of a [`RequestTracer`].
#[derive(Debug, Clone)]
pub struct TracerConfig {
    /// Seed all trace/span identities derive from (hash input, not RNG).
    pub seed: u64,
    /// Where flight dumps are written (`None` = kept in memory only).
    pub flight_path: Option<PathBuf>,
}

impl Default for TracerConfig {
    fn default() -> Self {
        TracerConfig {
            seed: 0x6774_7263, // "gttrc"
            flight_path: None,
        }
    }
}

/// A request segment: its label (the span's one arg, and the name of every
/// non-root span) and the Chrome-trace track it renders on.
type Segment = (&'static str, &'static str);

const REQUEST: Segment = ("request", "request");
const QUEUE_WAIT: Segment = ("queue-wait", "request");
const KERNEL: Segment = ("kernel", "GPU");
const STALL: Segment = ("stall", "serve");
const BACKOFF: Segment = ("backoff", "serve");

/// The preprocessing segments, one per S/R/K/T phase of the DES schedule,
/// labelled by their stage.
const PREPRO: [(Phase, Stage, &str); 4] = [
    (Phase::Sampling, Stage::Sample, "core"),
    (Phase::Reindex, Stage::Reindex, "core"),
    (Phase::Lookup, Stage::Lookup, "core"),
    (Phase::Transfer, Stage::Transfer, "PCIe"),
];

/// One request span in virtual µs.
fn span(
    id: u64,
    parent: Option<u64>,
    name: String,
    (label, track): Segment,
    start_us: f64,
    dur_us: f64,
) -> SpanRecord {
    SpanRecord {
        id,
        parent,
        name,
        track: track.to_string(),
        start_us,
        dur_us,
        args: vec![("segment".to_string(), label.to_string())],
    }
}

/// A request's root span, named by the request index and qualified with
/// the tenant when the gateway runs multi-tenant admission.
fn root_span(ctx: &TraceContext, request: &RequestCtx, dur_us: f64) -> SpanRecord {
    let name = match request.tenant {
        Some(t) => format!("request #{} (tenant {t})", request.index),
        None => format!("request #{}", request.index),
    };
    span(
        ctx.parent_span_id,
        None,
        name,
        REQUEST,
        request.arrival_us,
        dur_us,
    )
}

/// One dump artifact the tracer produced (also written to
/// [`TracerConfig::flight_path`] when set).
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Why the dump was taken (`slo-breach:<rule>`, `crash:<site>`, ...).
    pub reason: String,
    /// The full JSON artifact (Chrome trace document + `gt_flight_*` keys).
    pub artifact: String,
}

/// Per-request causal tracer + flight recorder + SLO engine. Owned by the
/// [`Supervisor`](crate::serve::Supervisor); the
/// [`Gateway`](crate::overload::Gateway) feeds it arrival/queue context
/// and shed resolutions.
pub struct RequestTracer {
    config: TracerConfig,
    recorder: FlightRecorder,
    slo: Option<SloEngine>,
    telemetry: Telemetry,
    /// Internal virtual clock for supervisor-only serving (no gateway):
    /// advances by each batch's service time.
    clock_us: f64,
    /// Monotone clamp for the SLO feed: gateway sheds can resolve at an
    /// arrival instant earlier than the previous served completion.
    slo_clock_us: f64,
    /// Plain successes seen so far (the reservoir's stream index).
    normal_seen: usize,
    alerts: Vec<SloAlert>,
    dumps: Vec<FlightDump>,
    breach_dumped: bool,
}

impl RequestTracer {
    /// A tracer with `config`, optionally evaluating `slo`, exporting
    /// metrics and events through `telemetry`.
    pub fn new(config: TracerConfig, slo: Option<SloSpec>, telemetry: Telemetry) -> RequestTracer {
        let slo = slo.map(|spec| SloEngine::new(spec, telemetry.clone()));
        RequestTracer {
            recorder: FlightRecorder::new(RING_CAPACITY),
            config,
            slo,
            telemetry,
            clock_us: 0.0,
            slo_clock_us: 0.0,
            normal_seen: 0,
            alerts: Vec::new(),
            dumps: Vec::new(),
            breach_dumped: false,
        }
    }

    /// The flight-recorder ring.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Every SLO rule transition so far, in virtual-time order.
    pub fn alerts(&self) -> &[SloAlert] {
        &self.alerts
    }

    /// True while any SLO rule is firing.
    pub fn breached(&self) -> bool {
        self.slo.as_ref().is_some_and(|e| e.breached())
    }

    /// The SLO engine's stable state label (`ok`, `breach:<rule>`), or
    /// `none` when no objective was configured.
    pub fn slo_state(&self) -> String {
        match &self.slo {
            Some(e) => e.state(),
            None => "none".to_string(),
        }
    }

    /// Dump artifacts produced so far.
    pub fn dumps(&self) -> &[FlightDump] {
        &self.dumps
    }

    /// Resolve one served batch into a span tree, record it, and feed the
    /// SLO engine. Called by the supervisor at the end of `serve`, with
    /// the request the gateway said the batch serves.
    pub fn finish_batch(
        &mut self,
        batch_index: usize,
        served: &Served,
        request: Option<RequestCtx>,
    ) {
        // Without a gateway in front, the batch index doubles as the
        // request index and service is back-to-back on the virtual clock.
        let req = request.unwrap_or(RequestCtx {
            index: batch_index,
            tenant: None,
            arrival_us: self.clock_us,
            start_us: self.clock_us,
        });
        let report = &served.report;
        let (stall_us, backoff_us) = (served.stall_us, served.backoff_us);
        let service_us = served.service_us();
        let queued_us = req.start_us - req.arrival_us;
        let done_us = req.start_us + service_us;
        self.clock_us = self.clock_us.max(done_us);

        let ctx = TraceContext::for_request(self.config.seed, req.index);
        let root = ctx.parent_span_id;
        let mut spans = vec![root_span(&ctx, &req, queued_us + service_us)];
        // Child span ids are minted in a fixed order so the tree is a pure
        // function of (seed, request_index) and the segments present.
        let mut minted = 0usize;
        let mut child = |spans: &mut Vec<SpanRecord>, segment: Segment, start, dur| {
            let id = ctx.span_id(minted);
            minted += 1;
            spans.push(span(
                id,
                Some(root),
                segment.0.to_string(),
                segment,
                start,
                dur,
            ));
        };
        if queued_us > 0.0 {
            child(&mut spans, QUEUE_WAIT, req.arrival_us, queued_us);
        }
        // Preprocessing subtasks: one envelope span per S/R/K/T phase,
        // offset from the schedule's own origin to the service start.
        if let Some(schedule) = &report.prepro {
            for (phase, stage, track) in PREPRO {
                if let Some((from, until)) = schedule.phase_window_us(phase) {
                    let segment = (stage.label(), track);
                    child(&mut spans, segment, req.start_us + from, until - from);
                }
            }
        }
        let gpu_us = report.gpu_us();
        if gpu_us > 0.0 {
            // Steady-state overlap: kernels run against the next batch's
            // preprocessing, so the segment starts at service start.
            child(&mut spans, KERNEL, req.start_us, gpu_us);
        }
        let mut tail = req.start_us + served.modeled_us();
        if stall_us > 0.0 {
            child(&mut spans, STALL, tail, stall_us);
            tail += stall_us;
        }
        if backoff_us > 0.0 {
            child(&mut spans, BACKOFF, tail, backoff_us);
        }

        let latency_us = queued_us + service_us;
        let ok = report.outcome.trained();
        let mut trace = RequestTrace {
            trace_id: ctx.trace_id,
            request_index: req.index,
            tenant: req.tenant,
            batch_index: Some(batch_index),
            outcome: report.outcome.label().to_string(),
            outcome_json: report.outcome.to_json().to_json_string(),
            arrival_us: req.arrival_us,
            done_us,
            spans,
        };
        let interesting = !matches!(report.outcome, BatchOutcome::Succeeded)
            || self
                .slo
                .as_ref()
                .is_some_and(|e| latency_us > e.spec().latency_threshold_us);
        self.retain(&mut trace, interesting);
        self.feed_slo(done_us, latency_us, ok);
    }

    /// Record a request the gateway refused to serve at `request.start_us`:
    /// a root-only trace (there is nothing below it — no batch ran) that
    /// still carries the outcome, plus an always-bad SLO sample.
    pub fn record_shed(&mut self, request: RequestCtx, outcome: &BatchOutcome) {
        let (arrival_us, done_us) = (request.arrival_us, request.start_us);
        let ctx = TraceContext::for_request(self.config.seed, request.index);
        let mut trace = RequestTrace {
            trace_id: ctx.trace_id,
            request_index: request.index,
            tenant: request.tenant,
            batch_index: None,
            outcome: outcome.label().to_string(),
            outcome_json: outcome.to_json().to_json_string(),
            arrival_us,
            done_us,
            spans: vec![root_span(&ctx, &request, done_us - arrival_us)],
        };
        self.retain(&mut trace, true);
        self.feed_slo(done_us, done_us - arrival_us, false);
    }

    /// Freeze the ring now (crash sites, chaos-oracle violations). Returns
    /// the artifact; also appends it to [`dumps`](RequestTracer::dumps)
    /// and writes [`TracerConfig::flight_path`] when configured.
    pub fn dump_now(&mut self, reason: &str) -> String {
        let artifact = self.recorder.dump(reason);
        self.telemetry
            .counter("gt_flight_dumps_total", "Flight-recorder dumps taken")
            .inc();
        self.telemetry.event(
            "flight",
            "flight_dump",
            &[("reason", &reason), ("requests", &self.recorder.len())],
        );
        if let Some(path) = &self.config.flight_path {
            // Best-effort: a full disk must not take the serving path down
            // with it; the artifact stays available in memory.
            let _ = std::fs::write(path, &artifact);
        }
        self.dumps.push(FlightDump {
            reason: reason.to_string(),
            artifact: artifact.clone(),
        });
        artifact
    }

    /// Apply tail sampling and append to the ring.
    fn retain(&mut self, trace: &mut RequestTrace, interesting: bool) {
        self.telemetry
            .counter("gt_trace_requests_total", "Requests traced")
            .inc();
        if !interesting && !self.reservoir_keeps(trace.trace_id) {
            trace.demote_to_root();
            self.telemetry
                .counter(
                    "gt_trace_demoted_total",
                    "Normal requests demoted to a root-only trace",
                )
                .inc();
        }
        self.recorder.record(trace.clone());
    }

    /// Algorithm-R acceptance over the stream of plain successes: the
    /// `n`-th one is kept in full with probability `RESERVOIR/(n+1)`,
    /// decided by the request's own (seeded, deterministic) trace id.
    /// Earlier accepted trees are not evicted — the ring already bounds
    /// memory, so erring toward detail is free.
    fn reservoir_keeps(&mut self, trace_id: u64) -> bool {
        let n = self.normal_seen as u64;
        self.normal_seen += 1;
        n < RESERVOIR as u64 || trace_id % (n + 1) < RESERVOIR as u64
    }

    /// Feed one completion to the SLO engine (monotone-clamped) and take a
    /// flight dump on the first breach transition.
    fn feed_slo(&mut self, done_us: f64, latency_us: f64, ok: bool) {
        let Some(engine) = self.slo.as_mut() else {
            return;
        };
        self.slo_clock_us = self.slo_clock_us.max(done_us);
        let alerts = engine.record(self.slo_clock_us, latency_us, ok);
        let fired: Option<&'static str> = alerts.iter().find(|a| a.firing).map(|a| a.rule);
        self.alerts.extend(alerts);
        if let Some(rule) = fired {
            if !self.breach_dumped {
                self.breach_dumped = true;
                self.dump_now(&format!("slo-breach:{rule}"));
            }
        }
    }
}

impl std::fmt::Debug for RequestTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestTracer")
            .field("config", &self.config)
            .field("recorded", &self.recorder.len())
            .field("slo", &self.slo_state())
            .field("dumps", &self.dumps.len())
            .finish()
    }
}
