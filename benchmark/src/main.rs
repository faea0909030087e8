//! `gt-benchmark`: the repo's wall-clock benchmark (see README.md).
//!
//! ```text
//! gt-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!     one run of one workload; the last line of stdout is the result
//!     object (the form the benchmark driver calls)
//! gt-benchmark [--seed N] [--seconds S] [--trace] [--smoke] [--repeat R]
//!     every workload, each run in its own process; prints every metric
//!     and writes benchmark/out/result.json
//! gt-benchmark --selfcheck [options as above]
//!     the full set twice, then `compare` of the two
//! gt-benchmark compare A.json B.json
//! ```

mod alloc;
mod compare;
mod layers;
mod measure;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use layers::{obj, parse_json, Json};
use measure::{RunArgs, RunResult};
use metrics::{END_TO_END, EXACT, INFORMATIONAL, PER_LAYER};
use workloads::{Sizing, SPECS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `run_seconds` of BENCHMARK.json; what a full-set run uses by default.
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 0.5;
/// The library's pool is pinned to `min(nproc, MAX_THREADS)` workers.
const MAX_THREADS: usize = 4;

#[derive(Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
    extended: bool,
    repeat: Option<usize>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    fn number<T: std::str::FromStr>(flag: &str, s: String) -> Result<T, String> {
        s.parse().map_err(|_| format!("{flag}: cannot read `{s}`"))
    }
    while i < args.len() {
        match args[i].as_str() {
            "compare" => {
                let a = value(&mut i, "compare")?;
                let b = value(&mut i, "compare")?;
                cli.compare = Some((a.into(), b.into()));
            }
            "--workload" => cli.workload = Some(value(&mut i, "--workload")?),
            "--seed" => cli.seed = Some(number("--seed", value(&mut i, "--seed")?)?),
            "--seconds" => {
                let s: f64 = number("--seconds", value(&mut i, "--seconds")?)?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                cli.seconds = Some(s);
            }
            // `--trace 0|1` from the driver, bare `--trace` by hand.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    cli.trace = true;
                    i += 1;
                }
                _ => cli.trace = true,
            },
            "--smoke" => cli.smoke = true,
            "--selfcheck" => cli.selfcheck = true,
            "--extended" => cli.extended = true,
            "--repeat" => {
                let r: usize = number("--repeat", value(&mut i, "--repeat")?)?;
                cli.repeat = Some(r.max(1));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(cli)
}

fn benchmark_dir() -> PathBuf {
    std::env::var_os("GT_BENCHMARK_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("gt-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return compare_files(a, b);
    }
    let out_dir = benchmark_dir().join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("gt-benchmark: {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    match &cli.workload {
        Some(name) => run_one(name, &cli, out_dir),
        None if cli.selfcheck => selfcheck(&cli, &out_dir),
        None => {
            let out = out_dir.join("result.json");
            match run_all(&cli, &out) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("gt-benchmark: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

// ---- one workload, this process -------------------------------------------

fn run_one(name: &str, cli: &Cli, out_dir: PathBuf) -> ExitCode {
    let Some(spec) = workloads::spec(name) else {
        let known: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        eprintln!(
            "gt-benchmark: unknown workload `{name}` (have: {})",
            known.join(", ")
        );
        return ExitCode::from(2);
    };
    // Pin the library's pool before anything touches it, and record it.
    if std::env::var_os("GT_THREADS").is_none() {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::set_var("GT_THREADS", n.min(MAX_THREADS).to_string());
    }
    let sizing = if cli.smoke {
        Sizing::SMOKE
    } else {
        Sizing::FULL
    };
    let args = RunArgs {
        spec,
        seed: cli.seed.unwrap_or(42),
        seconds: cli.seconds.unwrap_or(if cli.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        trace: cli.trace,
        sizing,
        out_dir,
    };
    let r = measure::run(&args);
    print_run(spec.name, &args, &r);
    let mut line = r.result_line();
    if cli.extended {
        if let Json::Obj(pairs) = &mut line {
            pairs.push(("info".to_string(), measure::metrics_json(&r.info)));
        }
    }
    println!("{}", line.to_json_string());
    ExitCode::SUCCESS
}

fn print_run(name: &str, args: &RunArgs, r: &RunResult) {
    println!(
        "== {name}  seed {}  {} s  {}  rng vendored-stub",
        args.seed,
        args.seconds,
        if args.trace {
            "traced pass"
        } else {
            "end-to-end pass"
        }
    );
    for &(metric, value, unit) in r.metrics.iter().chain(&r.info) {
        println!("{metric:<34} {value:>16.4} {unit}");
    }
    match &r.check_error {
        None => println!("checks: pass ({} ops, {} failed)", r.attempted, r.failed),
        Some(e) => println!("checks: FAIL: {e}"),
    }
}

// ---- every workload, one process per run -----------------------------------

/// Run `workload` in a child process and return its result object.
fn spawn_run(workload: &str, cli: &Cli, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--extended"])
        .args(["--seed", &cli.seed.unwrap_or(42).to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(s) = cli.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if cli.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload}: run exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    parse_json(last).map_err(|e| format!("{workload}: result line: {e}"))
}

fn direction(higher_is_better: bool) -> &'static str {
    if higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

fn median_of(runs: &[Json], section: &str, metric: &str) -> Option<f64> {
    let values: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.get(section)?.get(metric)?.get("value")?.as_f64())
        .collect();
    (!values.is_empty()).then(|| stats::median(&values))
}

/// Run the full set, print it, write it to `out`. `Ok(false)` when a
/// check failed.
fn run_all(cli: &Cli, out: &Path) -> Result<bool, String> {
    let repeat = cli.repeat.unwrap_or(1);
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for spec in &SPECS {
        let mut runs = Vec::new();
        for _ in 0..repeat {
            runs.push(spawn_run(spec.name, cli, false)?);
        }
        let traced = if cli.trace {
            Some(spawn_run(spec.name, cli, true)?)
        } else {
            None
        };
        println!(
            "\n== {} ({} run{})\n   {}",
            spec.name,
            repeat,
            if repeat == 1 { "" } else { "s, medians" },
            spec.why
        );
        let row = |name: &str, v: Option<f64>, unit: &str, better: &str| {
            println!(
                "{name:<34} {:>16.4} {unit:<6} {better}",
                v.unwrap_or(f64::NAN)
            );
        };
        for m in &END_TO_END {
            let better = format!(
                "{} is better, bound {}%",
                direction(m.higher_is_better),
                m.bound * 100.0
            );
            row(m.name, median_of(&runs, "metrics", m.name), m.unit, &better);
        }
        for (name, unit) in INFORMATIONAL {
            row(name, median_of(&runs, "info", name), unit, "not gated");
        }
        for (name, unit) in EXACT {
            row(name, median_of(&runs, "info", name), unit, "exact");
        }
        for (name, unit) in [("timed_ops", "count"), ("samples_beyond_p90", "count")] {
            row(name, median_of(&runs, "info", name), unit, "");
        }
        if let Some(t) = &traced {
            let t = std::slice::from_ref(t);
            for m in &PER_LAYER {
                row(
                    m.name,
                    median_of(t, "metrics", m.name),
                    m.unit,
                    direction(m.higher_is_better),
                );
            }
        }
        let correct = runs
            .iter()
            .chain(&traced)
            .all(|r| r.get("correct") == Some(&Json::Bool(true)));
        println!("checks: {}", if correct { "pass" } else { "FAIL" });
        all_correct &= correct;
        workloads.push(obj([
            ("name", spec.name.into()),
            ("runs", Json::Arr(runs)),
            ("traced", traced.unwrap_or(Json::Null)),
        ]));
    }
    let doc = obj([
        ("schema", 1u64.into()),
        // Built against vendor/ stand-ins for rand/rand_distr/parking_lot:
        // do not compare with a build against the published crates.
        ("rng", "vendored-stub".into()),
        ("seed", cli.seed.unwrap_or(42).into()),
        ("smoke", cli.smoke.into()),
        ("workloads", Json::Arr(workloads)),
    ]);
    std::fs::write(out, doc.to_json_string() + "\n")
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nwrote {}", out.display());
    Ok(all_correct)
}

fn load(path: &Path) -> Result<compare::ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    compare::ResultFile::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_files(a: &Path, b: &Path) -> ExitCode {
    let (base, candidate) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("gt-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let (rows, failures) = compare::compare(&base, &candidate);
    compare::print_rows(&rows);
    for f in &failures {
        println!("FAIL {f}");
    }
    if failures.is_empty() {
        println!("no regression");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn selfcheck(cli: &Cli, out_dir: &Path) -> ExitCode {
    let (a, b) = (
        out_dir.join("selfcheck-a.json"),
        out_dir.join("selfcheck-b.json"),
    );
    for out in [&a, &b] {
        match run_all(cli, out) {
            Ok(true) => {}
            Ok(false) => return ExitCode::FAILURE,
            Err(e) => {
                eprintln!("gt-benchmark: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    compare_files(&a, &b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_and_hand_form_both_parse() {
        let c = cli(&[
            "--workload",
            "serve-day",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("serve-day"));
        assert_eq!((c.seed, c.seconds, c.trace), (Some(7), Some(10.0), true));
        assert!(!cli(&["--workload", "w", "--trace", "0"]).unwrap().trace);
        let c = cli(&["--seed", "3", "--trace", "--smoke"]).unwrap();
        assert!(c.trace && c.smoke && c.workload.is_none());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--bogus"]).is_err());
        assert!(cli(&["--seed"]).is_err());
    }

    /// BENCHMARK.json repeats this binary's tables for the driver; the two
    /// must not drift apart.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();
        let better = direction;

        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let workloads = list("workloads");
        assert_eq!(workloads.len(), SPECS.len());
        for (j, s) in workloads.iter().zip(&SPECS) {
            assert_eq!(
                (text(j, "name"), text(j, "why")),
                (s.name.to_string(), s.why.to_string())
            );
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), better(m.higher_is_better));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), better(m.higher_is_better));
        }
    }
}
