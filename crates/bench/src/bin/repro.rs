//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment|all> [--scale test|small|medium|N] [--seed S]
//!       [--batch B] [--fanout F] [--layers L]
//!       [--trace-out PATH] [--bench-out PATH] [--checkpoint-dir DIR]
//!       [--crash-at N] [--crash-site mid-journal|mid-checkpoint|after-commit]
//!
//! experiments: fig6 fig8 fig11b fig12 fig14 fig15 fig16 fig17 fig18
//!              fig19 fig20 table1 table2 table3 scalability ablation
//!              threads durability chaos slo serving smoke
//! ```
//!
//! `GT_THREADS=N` pins the process-wide `gt_par` pool; results are
//! bit-identical at every width, see `docs/parallelism.md`. The `threads`
//! experiment sweeps pool widths 1/2/4/8 itself and ignores the knob.
//!
//! With `--trace-out`, the run records wall-clock spans and metrics and
//! writes a Chrome trace (load it at <https://ui.perfetto.dev>) plus a
//! metrics summary on stderr; see `docs/telemetry.md`.
//!
//! With `--bench-out`, the run additionally drives the perf probe and
//! writes a schema-stable `BENCH_<exp>.json` report (modeled latency
//! percentiles, throughput, stage breakdowns, env fingerprint) for
//! `benchdiff` to gate against a committed baseline; see
//! `docs/profiling.md`. The `smoke` experiment prints the same probe as
//! a table and is the CI perf gate's workload.
//!
//! `--checkpoint-dir` / `--crash-at` / `--crash-site` apply to the
//! `durability` experiment: serve durably into DIR, optionally dying at
//! an injected crash site (exit code 3); re-running with the same DIR
//! recovers from the journal and finishes bit-identically. See
//! `docs/fault_model.md` §Durability & recovery.
//!
//! The `chaos` experiment runs seeded fault campaigns: `--seeds N`
//! samples N composite fault plans (`--seeds-file PATH` reads a fixed
//! corpus instead), executes each
//! through serve/crash/recover, and checks the invariant oracle. On a
//! violation the guilty plan is delta-debugged to a minimal schedule,
//! written to `--chaos-out` (default `chaos-minimized.json`), and the
//! process exits 4. `--chaos-replay FILE` re-executes one serialized
//! plan deterministically and implies `chaos` when no experiment is
//! named. See `docs/fault_model.md` §Chaos campaigns.
//!
//! The `slo` experiment overloads the gateway under an injected serve
//! stall until the latency SLO's burn-rate rules fire and the tracer
//! freezes a flight dump, then reconciles the dump against the journal;
//! `--flight-out PATH` writes the dump (a Chrome trace, load it at
//! <https://ui.perfetto.dev>) to disk. The same flag arms the flight
//! recorder on `chaos` runs: every injected crash site dumps its recent
//! span trees to PATH before recovery (last crash wins). All dump bytes
//! are deterministic — bit-identical at every `GT_THREADS` width. See
//! `docs/telemetry.md` §Tracing contexts and §SLOs in virtual time.
//!
//! The `serving` experiment runs the million-user scenario: a seeded
//! open-loop diurnal workload (hot-key skew, flash crowds, three
//! tenants) against the durable gateway with per-tenant quotas, deficit
//! round robin, and the skew-exploiting serving caches enabled. With
//! `--bench-out` it writes `BENCH_serving.json` — cache hit rates,
//! shed/degrade totals, and the p99-vs-load curve, all in virtual time
//! and bit-identical at every `GT_THREADS` width — which is the
//! `identity` CI job's serving gate. See `docs/serving.md`.

use gt_bench::experiments::*;
use gt_bench::ExpConfig;
use gt_datasets::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment|all> [--scale test|small|medium|<divisor>] \
         [--seed S] [--batch B] [--fanout F] [--layers L] \
         [--trace-out PATH] [--bench-out PATH] [--checkpoint-dir DIR] \
         [--crash-at N] [--crash-site mid-journal|mid-checkpoint|after-commit] \
         [--seeds N] [--seeds-file PATH] \
         [--chaos-replay FILE] [--chaos-out PATH] [--flight-out PATH]\n\
         experiments: fig6 fig8 fig11b fig12 fig14 fig15 fig16 fig17 fig18 \
         fig19 fig20 table1 table2 table3 scalability ablation threads \
         durability chaos slo serving smoke"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut cfg = ExpConfig::default();
    let mut trace_out: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut durability_opts = durability::DurabilityOpts::default();
    let mut chaos_opts = chaos::ChaosOpts::default();
    let mut slo_opts = slo::SloOpts::default();
    let mut serving_opts = serving::ServingOpts::default();
    // The experiment is normally the first positional argument; flag-only
    // invocations (`repro --chaos-replay plan.json`) imply `chaos`.
    let mut exp = String::new();
    let mut i = 0;
    if !args[0].starts_with('-') {
        exp = args[0].clone();
        i = 1;
    }
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                cfg.scale = match args.get(i).map(|s| s.as_str()) {
                    Some("test") => Scale::Test,
                    Some("small") => Scale::Small,
                    Some("medium") => Scale::Medium,
                    Some(n) => Scale::Custom(n.parse().unwrap_or_else(|_| usage())),
                    None => usage(),
                };
            }
            "--seed" => {
                i += 1;
                cfg.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(usage_v);
            }
            "--batch" => {
                i += 1;
                cfg.batch = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(usage_v);
            }
            "--fanout" => {
                i += 1;
                cfg.fanout = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(usage_v);
            }
            "--layers" => {
                i += 1;
                cfg.layers = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(usage_v);
            }
            "--trace-out" => {
                i += 1;
                trace_out = Some(args.get(i).cloned().unwrap_or_else(usage_v));
            }
            "--bench-out" => {
                i += 1;
                bench_out = Some(args.get(i).cloned().unwrap_or_else(usage_v));
            }
            "--checkpoint-dir" => {
                i += 1;
                durability_opts.dir = Some(args.get(i).cloned().unwrap_or_else(usage_v).into());
            }
            "--crash-at" => {
                i += 1;
                durability_opts.crash_at = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(usage_v),
                );
            }
            "--crash-site" => {
                i += 1;
                durability_opts.crash_site = args
                    .get(i)
                    .and_then(|s| gt_sim::CrashSite::parse(s))
                    .unwrap_or_else(usage_v);
            }
            "--seeds" => {
                i += 1;
                chaos_opts.seeds = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(usage_v);
            }
            "--seeds-file" => {
                i += 1;
                chaos_opts.seeds_file = Some(args.get(i).cloned().unwrap_or_else(usage_v).into());
            }
            "--chaos-replay" => {
                i += 1;
                chaos_opts.replay = Some(args.get(i).cloned().unwrap_or_else(usage_v).into());
            }
            "--chaos-out" => {
                i += 1;
                chaos_opts.out = Some(args.get(i).cloned().unwrap_or_else(usage_v).into());
            }
            "--flight-out" => {
                i += 1;
                let path: std::path::PathBuf = args.get(i).cloned().unwrap_or_else(usage_v).into();
                chaos_opts.flight_out = Some(path.clone());
                slo_opts.flight_out = Some(path);
            }
            _ => usage(),
        }
        i += 1;
    }

    if exp.is_empty() {
        if chaos_opts.replay.is_some() {
            exp = "chaos".to_string();
        } else {
            usage();
        }
    }

    // `slo` and `serving` serve durably too; `--checkpoint-dir` names
    // their state dir.
    slo_opts.dir = durability_opts.dir.clone();
    serving_opts.dir = durability_opts.dir.clone();

    if trace_out.is_some() {
        gt_telemetry::set_global(gt_telemetry::Telemetry::recording());
    }

    println!(
        "GraphTensor-RS repro: {exp} (scale ÷{}, seed {}, batch {}, fanout {}, layers {})",
        cfg.scale.divisor(),
        cfg.seed,
        cfg.batch,
        cfg.fanout,
        cfg.layers
    );

    let run_one = |name: &str, cfg: &ExpConfig| match name {
        "fig6" => fig6::print(cfg),
        "fig8" => fig8::print(cfg),
        "fig11b" => fig11b::print(cfg),
        "fig12" => fig12::print(cfg),
        "fig14" => fig14::print(cfg),
        "fig15" => {
            fig15::print(cfg, fig15::Model::Gcn);
            fig15::print(cfg, fig15::Model::Ngcf);
        }
        "fig16" => fig16::print(cfg),
        "fig17" => fig17::print(cfg),
        "fig18" => fig18::print(cfg),
        "fig19" => fig19::print(cfg),
        "fig20" => fig20::print(cfg),
        "table1" => table1::print(cfg),
        "table2" => table2::print(cfg),
        "table3" => table3::print(),
        "ablation" => ablation::print(cfg),
        "scalability" => scalability::print(cfg),
        "threads" => threads::print(cfg),
        "durability" => durability::print(cfg, &durability_opts),
        "chaos" => chaos::print(cfg, &chaos_opts),
        "slo" => slo::print(cfg, &slo_opts),
        _ => usage(),
    };

    // `serving` and `smoke` print one run and distill the same
    // run for `--bench-out`; every other experiment's BENCH file is the
    // training-loop perf probe's, run after it.
    let report = if exp == "serving" {
        let day = serving::run(&cfg, &serving_opts)
            .unwrap_or_else(|e| panic!("serving experiment failed: {e}"));
        serving::print(&day);
        Some(serving::report(&cfg, &day))
    } else if exp == "smoke" {
        let probe = gt_bench::probe::report("smoke", &cfg);
        gt_bench::probe::print(&probe);
        Some(probe)
    } else if exp == "all" {
        for name in [
            "table2",
            "table3",
            "fig6",
            "fig8",
            "fig11b",
            "table1",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "fig12",
            "fig14",
            "fig19",
            "fig20",
            "scalability",
            "ablation",
            "threads",
            "durability",
        ] {
            run_one(name, &cfg);
        }
        None
    } else {
        run_one(&exp, &cfg);
        None
    };

    if let Some(path) = bench_out {
        let report = report.unwrap_or_else(|| gt_bench::probe::report(&exp, &cfg));
        match std::fs::write(&path, report.to_json_string()) {
            Ok(()) => eprintln!(
                "wrote {} modeled + {} wall metrics to {path} (gate with benchdiff)",
                report.metrics.len(),
                report.wall.len()
            ),
            Err(e) => {
                eprintln!("failed to write bench report to {path}: {e}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = trace_out {
        let telemetry = gt_telemetry::global();
        let trace = telemetry.trace(&format!("repro {exp}"));
        let json = gt_telemetry::write_chrome_json(&[&trace]);
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!(
                "wrote {} spans to {path} (open at https://ui.perfetto.dev)",
                trace.events.len()
            ),
            Err(e) => eprintln!("failed to write trace to {path}: {e}"),
        }
        eprint!("{}", gt_telemetry::summary::render(&telemetry.snapshot()));
    }
}

fn usage_v<T>() -> T {
    usage()
}
