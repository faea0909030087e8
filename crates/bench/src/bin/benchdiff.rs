//! `benchdiff` — compare two `BENCH_<exp>.json` reports and gate on any
//! difference in their modeled metrics.
//!
//! ```text
//! benchdiff BASELINE CANDIDATE
//! ```
//!
//! Every modeled metric must hold the same value in both reports: one that
//! moved (in either direction), vanished or appeared is one failure. The
//! wall-clock metrics are printed beside them and never gated.
//!
//! Exit codes: `0` the modeled metrics are equal, `1` they differ (or the
//! schema version / experiment does not match), `2` usage or I/O error.

use gt_bench::benchjson::{compare, BenchReport};

fn usage() -> ! {
    eprintln!("usage: benchdiff BASELINE CANDIDATE");
    std::process::exit(2);
}

fn load(path: &str) -> BenchReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("benchdiff: cannot read {path}: {e}");
        std::process::exit(2);
    });
    text.parse().unwrap_or_else(|e| {
        eprintln!("benchdiff: cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [base_path, cand_path] = args.as_slice() else {
        usage();
    };
    if base_path.starts_with('-') || cand_path.starts_with('-') {
        usage();
    }

    let base = load(base_path);
    let cand = load(cand_path);
    let diff = compare(&base, &cand);

    if let Some(why) = &diff.incompatible {
        eprintln!("benchdiff: {why}");
        std::process::exit(1);
    }

    println!(
        "benchdiff: {base_path} vs {cand_path} (experiment {:?}; modeled metrics must be equal)",
        base.experiment
    );
    for l in &diff.metrics {
        println!("  {l}  {}", if l.differs() { "DIFFERS" } else { "ok" });
    }
    for l in &diff.wall {
        println!("  wall:{l}  (not gated)");
    }

    if diff.failed() {
        // Every failing metric with both values, not just a count: a CI
        // log must show the whole damage in one run.
        for line in diff.failure_summary().lines() {
            eprintln!("benchdiff:   {line}");
        }
        eprintln!("benchdiff: {} metric(s) differ", diff.failures().count());
        std::process::exit(1);
    }
    println!("benchdiff: modeled metrics equal");
}
