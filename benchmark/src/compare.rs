//! `gt-benchmark compare A.json B.json`: the rule that decides whether
//! candidate `B` regressed against base `A`.
//!
//! For every (workload, end-to-end metric) the medians over each file's
//! runs are compared in the metric's direction against its bound. When the
//! run-to-run spread (inter-quartile distance over the median, either
//! side) is wider than the bound the pairing is *unresolved*, not
//! unchanged. The deterministic pair is failed on any drift, and a larger
//! share of failed ops fails whatever the timings say.

use crate::layers::Json;
use crate::metrics::{END_TO_END, EXACT, EXACT_REL_TOLERANCE};
use crate::stats::{median, spread};

/// One workload's runs out of a result file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadRuns {
    pub name: String,
    /// Per run: `(metric, value)` of the end-to-end and info metrics.
    pub runs: Vec<Vec<(String, f64)>>,
    pub attempted: f64,
    pub failed: f64,
    pub incorrect: usize,
}

impl WorkloadRuns {
    fn values(&self, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| r.iter().find(|(k, _)| k == metric).map(|&(_, v)| v))
            .collect()
    }
}

/// A parsed `result.json`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultFile {
    pub seed: f64,
    pub smoke: bool,
    pub workloads: Vec<WorkloadRuns>,
}

fn metric_values(run: &Json, section: &str, into: &mut Vec<(String, f64)>) {
    if let Some(Json::Obj(pairs)) = run.get(section) {
        for (name, m) in pairs {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                into.push((name.clone(), v));
            }
        }
    }
}

impl ResultFile {
    pub fn from_json(doc: &Json) -> Result<ResultFile, String> {
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("result file has no `workloads` array")?;
        let mut file = ResultFile {
            seed: doc.get("seed").and_then(Json::as_f64).unwrap_or(0.0),
            smoke: doc.get("smoke") == Some(&Json::Bool(true)),
            workloads: Vec::new(),
        };
        for w in workloads {
            let name = w
                .get("name")
                .and_then(Json::as_str)
                .ok_or("workload without a name")?;
            let mut runs = WorkloadRuns {
                name: name.to_string(),
                ..Default::default()
            };
            for run in w.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
                let mut values = Vec::new();
                metric_values(run, "metrics", &mut values);
                metric_values(run, "info", &mut values);
                runs.runs.push(values);
                runs.attempted += run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
                runs.failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                runs.incorrect += (run.get("correct") != Some(&Json::Bool(true))) as usize;
            }
            file.workloads.push(runs);
        }
        Ok(file)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: f64,
    pub candidate: f64,
    /// Widest of the two sides' spreads; `None` with one run per side.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// Judge one bounded metric from both sides' run values.
pub fn judge(
    base: &[f64],
    candidate: &[f64],
    higher_is_better: bool,
    bound: f64,
) -> (Verdict, Option<f64>) {
    let (b, c) = (median(base), median(candidate));
    let worse_by = if higher_is_better { b - c } else { c - b } / b.abs();
    let widest = [spread(base), spread(candidate)]
        .into_iter()
        .flatten()
        .reduce(f64::max);
    let verdict = if worse_by > bound {
        Verdict::Regression
    } else if widest.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, widest)
}

/// Compare two result files. Returns the rows and the reasons, if any,
/// why the candidate fails.
pub fn compare(base: &ResultFile, candidate: &ResultFile) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    let same_inputs = base.seed == candidate.seed && base.smoke == candidate.smoke;
    for b in &base.workloads {
        let Some(c) = candidate.workloads.iter().find(|c| c.name == b.name) else {
            failures.push(format!("{}: missing from the candidate", b.name));
            continue;
        };
        if c.incorrect > 0 {
            failures.push(format!(
                "{}: {} run(s) failed the output check",
                b.name, c.incorrect
            ));
        }
        let share = |w: &WorkloadRuns| w.failed / w.attempted.max(1.0);
        if share(c) > share(b) {
            failures.push(format!(
                "{}: failed ops {}/{} in the candidate, {}/{} in the base",
                b.name, c.failed, c.attempted, b.failed, b.attempted
            ));
        }
        for m in &END_TO_END {
            let (bv, cv) = (b.values(m.name), c.values(m.name));
            if bv.is_empty() || cv.is_empty() {
                failures.push(format!("{} {}: not reported on both sides", b.name, m.name));
                continue;
            }
            let (verdict, spread) = judge(&bv, &cv, m.higher_is_better, m.bound);
            if verdict == Verdict::Regression {
                failures.push(format!(
                    "{} {}: {} -> {} {} is worse by more than {:.0}%",
                    b.name,
                    m.name,
                    median(&bv),
                    median(&cv),
                    m.unit,
                    m.bound * 100.0
                ));
            }
            rows.push(Row {
                workload: b.name.clone(),
                metric: m.name,
                base: median(&bv),
                candidate: median(&cv),
                spread,
                verdict,
            });
        }
        // The deterministic pair only means something on identical inputs.
        for (name, _) in EXACT.iter().filter(|_| same_inputs) {
            let (bv, cv) = (b.values(name), c.values(name));
            let (Some(&bv), Some(&cv)) = (bv.first(), cv.first()) else {
                continue;
            };
            let drift = (cv - bv).abs() > EXACT_REL_TOLERANCE * bv.abs();
            if drift {
                failures.push(format!(
                    "{} {name}: {bv} -> {cv}, must repeat exactly",
                    b.name
                ));
            }
            rows.push(Row {
                workload: b.name.clone(),
                metric: name,
                base: bv,
                candidate: cv,
                spread: None,
                verdict: if drift {
                    Verdict::Regression
                } else {
                    Verdict::Ok
                },
            });
        }
    }
    (rows, failures)
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "base", "candidate", "ratio", "spread"
    );
    for r in rows {
        let ratio = if r.base != 0.0 {
            format!("{:.3}", r.candidate / r.base)
        } else {
            "-".to_string()
        };
        let spread = r
            .spread
            .map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
        println!(
            "{:<18} {:<20} {:>14.4} {:>14.4} {:>8} {:>8}  {}",
            r.workload,
            r.metric,
            r.base,
            r.candidate,
            ratio,
            spread,
            r.verdict.label()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::parse_json;

    /// A result file with one workload whose runs report `latency_ms` as
    /// the median op wall (and its inverse as throughput) and fixed values
    /// elsewhere.
    fn file(latency_ms: &[f64], modeled: f64, failed: u64) -> ResultFile {
        let runs: Vec<String> = latency_ms
            .iter()
            .map(|l| {
                format!(
                    r#"{{"correct":true,"attempted":100,"failed":{failed},
                    "metrics":{{"setup_s":{{"value":1.0,"unit":"s"}},
                                "ops_per_s":{{"value":{},"unit":"ops/s"}},
                                "op_wall_ms_p50":{{"value":{l},"unit":"ms"}},
                                "peak_rss_mb":{{"value":50.0,"unit":"MB"}}}},
                    "info":{{"failed_share":{{"value":0.0,"unit":"ratio"}},
                             "modeled_op_us_mean":{{"value":{modeled},"unit":"vus"}}}}}}"#,
                    1000.0 / l
                )
            })
            .collect();
        let doc = format!(
            r#"{{"seed":42,"smoke":false,"workloads":[{{"name":"w","runs":[{}]}}]}}"#,
            runs.join(",")
        );
        ResultFile::from_json(&parse_json(&doc).unwrap()).unwrap()
    }

    #[test]
    fn identical_files_pass() {
        let a = file(&[10.0, 10.1, 9.9], 280.5, 0);
        let (rows, failures) = compare(&a, &a);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(rows.len(), END_TO_END.len() + EXACT.len());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn doubled_latency_fails_in_both_directions_of_better() {
        let (rows, failures) = compare(&file(&[10.0], 280.5, 0), &file(&[20.0], 280.5, 0));
        let verdict = |m: &str| rows.iter().find(|r| r.metric == m).unwrap().verdict;
        assert_eq!(verdict("op_wall_ms_p50"), Verdict::Regression);
        assert_eq!(
            verdict("ops_per_s"),
            Verdict::Regression,
            "halved throughput"
        );
        assert_eq!(verdict("setup_s"), Verdict::Ok);
        assert_eq!(failures.len(), 2);
        // A 2x *improvement* is not a regression.
        let (_, failures) = compare(&file(&[20.0], 280.5, 0), &file(&[10.0], 280.5, 0));
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn exact_metrics_fail_on_any_drift() {
        let (rows, failures) = compare(&file(&[10.0], 280.5, 0), &file(&[10.0], 280.6, 0));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("modeled_op_us_mean"));
        let row = rows
            .iter()
            .find(|r| r.metric == "modeled_op_us_mean")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Regression);
        // Rounding-level noise is not drift.
        let (_, failures) = compare(
            &file(&[10.0], 280.5, 0),
            &file(&[10.0], 280.5 * (1.0 + 1e-9), 0),
        );
        assert!(failures.is_empty());
    }

    #[test]
    fn wide_spread_is_unresolved_not_ok() {
        // Medians agree, but the candidate's runs scatter far past the bound.
        let base = file(&[10.0, 10.0, 10.0, 10.0], 1.0, 0);
        let noisy = file(&[6.0, 10.0, 10.0, 15.0], 1.0, 0);
        let (rows, failures) = compare(&base, &noisy);
        let p50 = rows.iter().find(|r| r.metric == "op_wall_ms_p50").unwrap();
        assert_eq!(p50.verdict, Verdict::Unresolved);
        assert!(p50.spread.unwrap() > 0.10);
        assert!(
            failures.is_empty(),
            "unresolved does not fail the comparison"
        );
    }

    #[test]
    fn more_failed_ops_fail_whatever_the_timings() {
        let (_, failures) = compare(&file(&[10.0], 1.0, 0), &file(&[5.0], 1.0, 3));
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("failed ops"));
    }

    #[test]
    fn judge_applies_direction_and_bound() {
        assert_eq!(judge(&[100.0], &[109.0], false, 0.10).0, Verdict::Ok);
        assert_eq!(
            judge(&[100.0], &[111.0], false, 0.10).0,
            Verdict::Regression
        );
        assert_eq!(judge(&[100.0], &[89.0], true, 0.10).0, Verdict::Regression);
        assert_eq!(judge(&[100.0], &[120.0], true, 0.10).0, Verdict::Ok);
    }
}
