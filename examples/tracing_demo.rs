//! End-to-end telemetry demo: train batches under injected faults with a
//! recording collector, then export everything the stack observed —
//!
//! * `trace.json` — Chrome trace-event JSON with two processes: the
//!   wall-clock spans/events of the serving loop, and the discrete-event
//!   preprocessing schedule of the last trained batch (one track per host
//!   core / PCIe / GPU). Load it at <https://ui.perfetto.dev>.
//! * `flight.json` — the request tracer's flight-recorder ring: one span
//!   tree per served request (queue wait, S/R/K/T segments, kernel,
//!   stall/backoff), parent→child causality as Perfetto flow events.
//! * `metrics.prom` — every counter and histogram in Prometheus text
//!   exposition format.
//! * stdout — human-readable metric, span, and span-tree summaries.
//!
//! Batches go through `Supervisor::serve(&data, &batch, ServeCtx::default())`,
//! the supervisor's single entry point; the tracer armed by
//! `enable_tracing` runs inside it.
//!
//! ```sh
//! cargo run --release --example tracing_demo
//! ```

use graphtensor::prelude::*;
use graphtensor::sim::schedule_to_trace;
use graphtensor::telemetry::{prometheus, summary, write_chrome_json};

fn main() {
    let data = GraphData::synthetic_learnable(2_000, 24_000, 32, 2, 7);
    let mut trainer = GraphTensor::new(
        GtVariant::Prepro,
        gcn(2, data.num_classes),
        SystemSpec::paper_testbed(),
    );
    trainer.sampler = SamplerConfig {
        fanout: 4,
        layers: 2,
        seed: 1,
        ..Default::default()
    };
    trainer.lr = 0.3;
    // Swap the default null handle for a recording one: every span, event,
    // and metric below lands in this collector.
    let telemetry = Telemetry::recording();
    trainer.telemetry = telemetry.clone();

    let plan = FaultPlan::new(2026)
        .with_transfer_failure(0.3)
        .with_straggler(0, 4.0)
        .with_transient_memory_pressure(1e-6, 0.2);
    let mut server = Supervisor::new(trainer, plan);
    // Request-scoped causal tracing: every served batch gets a span tree
    // with deterministic ids; the ring keeps the most recent ones.
    server.enable_tracing(TracerConfig::default(), None);

    println!("serving 12 batches under injected faults...");
    let mut last_schedule = None;
    for batch in BatchIter::new(2_000, 100, 3).take(12) {
        let report = server
            .serve(&data, &batch, ServeCtx::default())
            .expect("not durable: nothing can fail")
            .report;
        if let Some(s) = report.prepro {
            last_schedule = Some(s);
        }
    }

    // Process 1: wall-clock spans and events from the serving loop.
    let wall = telemetry.trace("wall clock");
    // Process 2: the DES virtual-time schedule of the last trained batch,
    // one track per resource unit.
    let schedule = last_schedule.expect("at least one batch trained");
    let des = schedule_to_trace(&schedule, "preprocessing (virtual time)");
    let trace_json = write_chrome_json(&[&wall, &des]);
    std::fs::write("trace.json", &trace_json).expect("write trace.json");
    println!(
        "\nwrote trace.json ({} wall-clock + {} virtual-time slices); \
         open it at https://ui.perfetto.dev",
        wall.events.len(),
        des.events.len()
    );

    // The flight recorder's view of the same run: per-request span trees,
    // dumped in the exact format an SLO breach or crash would freeze.
    let tracer = server.tracer.as_ref().expect("tracing enabled");
    let flight = tracer.recorder().dump("demo");
    std::fs::write("flight.json", &flight).expect("write flight.json");
    let traces = tracer.recorder().traces();
    println!(
        "wrote flight.json ({} request span trees); open it at https://ui.perfetto.dev",
        traces.len()
    );
    if let Some(t) = traces.last() {
        println!(
            "\nlast request's span tree (request {}, outcome {}):",
            t.request_index, t.outcome
        );
        for s in &t.spans {
            let branch = if s.parent.is_some() { "└─ " } else { "" };
            println!(
                "  {branch}{:<10} {:>9.1} µs @ {:>10.1} µs",
                s.name, s.dur_us, s.start_us
            );
        }
    }

    let snapshot = telemetry.snapshot();
    std::fs::write("metrics.prom", prometheus::render(&snapshot)).expect("write metrics.prom");
    println!("wrote metrics.prom (Prometheus text exposition)\n");

    print!("{}", summary::render(&snapshot));
    println!();
    print!("{}", summary::render_spans(&telemetry.spans()));
    println!(
        "\n{} batches quarantined, {:.0} µs paid in backoff",
        server.quarantine.len(),
        server.backoff_paid_us
    );
}
