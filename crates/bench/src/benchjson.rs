//! Schema-stable benchmark reports (`BENCH_<exp>.json`) and the comparison
//! logic behind the `benchdiff` binary.
//!
//! A [`BenchReport`] separates **modeled** metrics (deterministic — the
//! cost model prices the same work identically on every machine and at
//! every `GT_THREADS` width, so they are diffable against a committed
//! baseline) from **wall-clock** metrics (machine-dependent, recorded for
//! information and never gated).
//!
//! The gate is equality: every modeled metric must hold the same value in
//! both reports. A metric that moved in either direction, vanished, or
//! appeared is one failure.

use gt_telemetry::Json;

/// Bumped whenever a field is renamed or re-interpreted; `benchdiff`
/// refuses to compare across versions.
pub const SCHEMA_VERSION: u64 = 1;

/// The experiment configuration a report was measured under.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchConfig {
    pub scale_divisor: u64,
    pub seed: u64,
    pub batch: u64,
    pub fanout: u64,
    pub layers: u64,
    pub measure_batches: u64,
}

/// Where a report was measured: enough to explain a wall-clock delta and
/// to prove two modeled runs priced the same machine model.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvFingerprint {
    /// `GT_THREADS`-resolved worker count of the global pool.
    pub threads: u64,
    /// Modeled GPU name (`DeviceSpec::name`).
    pub gpu: String,
    /// Modeled host name (`HostSpec::name`).
    pub host: String,
    /// Modeled host core count.
    pub host_cores: u64,
}

/// One benchmark run, serializable to `BENCH_<exp>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    pub schema_version: u64,
    pub experiment: String,
    pub config: BenchConfig,
    pub env: EnvFingerprint,
    /// Deterministic modeled metrics, gated by `benchdiff`.
    pub metrics: Vec<(String, f64)>,
    /// Wall-clock metrics, printed by `benchdiff` but never gated.
    pub wall: Vec<(String, f64)>,
}

fn pairs_to_json(pairs: &[(String, f64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect(),
    )
}

fn pairs_from_json(j: &Json, what: &str) -> Result<Vec<(String, f64)>, String> {
    match j {
        Json::Obj(fields) => fields
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("{what}.{k}: not a number"))
            })
            .collect(),
        _ => Err(format!("{what}: not an object")),
    }
}

fn num(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn string(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

impl BenchReport {
    /// Serialize to the on-disk JSON form (stable key order).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("experiment", Json::Str(self.experiment.clone())),
            (
                "config",
                Json::obj(vec![
                    ("scale_divisor", self.config.scale_divisor.into()),
                    ("seed", self.config.seed.into()),
                    ("batch", self.config.batch.into()),
                    ("fanout", self.config.fanout.into()),
                    ("layers", self.config.layers.into()),
                    ("measure_batches", self.config.measure_batches.into()),
                ]),
            ),
            (
                "env",
                Json::obj(vec![
                    ("threads", self.env.threads.into()),
                    ("gpu", Json::Str(self.env.gpu.clone())),
                    ("host", Json::Str(self.env.host.clone())),
                    ("host_cores", self.env.host_cores.into()),
                ]),
            ),
            ("metrics", pairs_to_json(&self.metrics)),
            ("wall", pairs_to_json(&self.wall)),
        ])
    }

    /// Pretty-ish single-line JSON plus trailing newline (stable bytes for
    /// a committed baseline).
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().to_json_string();
        s.push('\n');
        s
    }

    /// Parse a report back from its JSON form.
    pub fn from_json(j: &Json) -> Result<BenchReport, String> {
        let cfg = j.get("config").ok_or("missing field \"config\"")?;
        let env = j.get("env").ok_or("missing field \"env\"")?;
        Ok(BenchReport {
            schema_version: num(j, "schema_version")? as u64,
            experiment: string(j, "experiment")?,
            config: BenchConfig {
                scale_divisor: num(cfg, "scale_divisor")? as u64,
                seed: num(cfg, "seed")? as u64,
                batch: num(cfg, "batch")? as u64,
                fanout: num(cfg, "fanout")? as u64,
                layers: num(cfg, "layers")? as u64,
                measure_batches: num(cfg, "measure_batches")? as u64,
            },
            env: EnvFingerprint {
                threads: num(env, "threads")? as u64,
                gpu: string(env, "gpu")?,
                host: string(env, "host")?,
                host_cores: num(env, "host_cores")? as u64,
            },
            metrics: pairs_from_json(
                j.get("metrics").ok_or("missing field \"metrics\"")?,
                "metrics",
            )?,
            wall: pairs_from_json(j.get("wall").ok_or("missing field \"wall\"")?, "wall")?,
        })
    }
}

impl std::str::FromStr for BenchReport {
    type Err = String;

    /// Parse from raw file contents.
    fn from_str(text: &str) -> Result<BenchReport, String> {
        let j = gt_telemetry::json::parse(text).map_err(|e| e.to_string())?;
        BenchReport::from_json(&j)
    }
}

/// One metric as the two reports hold it; `None` on the side that lacks it.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffLine {
    pub name: String,
    pub base: Option<f64>,
    pub cand: Option<f64>,
}

impl DiffLine {
    /// The reports disagree: the value moved, or one side lacks the metric.
    pub fn differs(&self) -> bool {
        self.base != self.cand
    }
}

impl std::fmt::Display for DiffLine {
    /// `name: base -> cand`, with `absent` for a side that lacks the metric.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let show = |v: Option<f64>| v.map_or_else(|| "absent".to_string(), |v| v.to_string());
        write!(
            f,
            "{}: {} -> {}",
            self.name,
            show(self.base),
            show(self.cand)
        )
    }
}

/// The full comparison of two reports.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Every modeled metric in either report: the baseline's in order, then
    /// the candidate's additions. Gated.
    pub metrics: Vec<DiffLine>,
    /// The wall-clock metrics, laid out the same way. Never gated.
    pub wall: Vec<DiffLine>,
    /// Incompatibility (schema version / experiment mismatch), if any; it
    /// fails the gate whatever the metrics say.
    pub incompatible: Option<String>,
}

impl DiffReport {
    /// The modeled metrics whose values differ.
    pub fn failures(&self) -> impl Iterator<Item = &DiffLine> {
        self.metrics.iter().filter(|l| l.differs())
    }

    /// Whether the candidate fails the gate.
    pub fn failed(&self) -> bool {
        self.incompatible.is_some() || self.failures().next().is_some()
    }

    /// One line per failure with both values, so a CI log shows the whole
    /// damage at once instead of just a count. Empty when the gate passes.
    pub fn failure_summary(&self) -> String {
        if let Some(why) = &self.incompatible {
            return format!("incompatible: {why}\n");
        }
        self.failures().map(|l| format!("{l}\n")).collect()
    }
}

fn diff_pairs(base: &[(String, f64)], cand: &[(String, f64)]) -> Vec<DiffLine> {
    let value = |pairs: &[(String, f64)], name: &str| {
        pairs.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    };
    let mut lines: Vec<DiffLine> = base
        .iter()
        .map(|(name, b)| DiffLine {
            name: name.clone(),
            base: Some(*b),
            cand: value(cand, name),
        })
        .collect();
    lines.extend(
        cand.iter()
            .filter(|(name, _)| value(base, name).is_none())
            .map(|(name, c)| DiffLine {
                name: name.clone(),
                base: None,
                cand: Some(*c),
            }),
    );
    lines
}

/// Compare `cand` against `base`: the modeled metrics must be equal, and
/// the wall-clock ones are laid side by side for information.
pub fn compare(base: &BenchReport, cand: &BenchReport) -> DiffReport {
    let incompatible = if base.schema_version != cand.schema_version {
        Some(format!(
            "schema version mismatch: baseline v{} vs candidate v{}",
            base.schema_version, cand.schema_version
        ))
    } else if base.experiment != cand.experiment {
        Some(format!(
            "experiment mismatch: baseline {:?} vs candidate {:?}",
            base.experiment, cand.experiment
        ))
    } else {
        None
    };
    DiffReport {
        metrics: diff_pairs(&base.metrics, &cand.metrics),
        wall: diff_pairs(&base.wall, &cand.wall),
        incompatible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            experiment: "smoke".into(),
            config: BenchConfig {
                scale_divisor: 2000,
                seed: 42,
                batch: 40,
                fanout: 6,
                layers: 2,
                measure_batches: 9,
            },
            env: EnvFingerprint {
                threads: 4,
                gpu: "RTX 3090".into(),
                host: "Xeon Gold 5317 (12c)".into(),
                host_cores: 12,
            },
            metrics: vec![
                ("batch_e2e_us_p50".into(), 1000.0),
                ("batch_e2e_us_p99".into(), 1500.0),
                ("throughput_samples_per_s".into(), 40_000.0),
                ("prepro_S_us".into(), 0.0),
            ],
            wall: vec![("wall_batch_us_p50".into(), 2300.0)],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let r = report();
        let back: BenchReport = r.to_json_string().parse().unwrap();
        assert_eq!(back, r);
    }

    /// Gate `report()` edited by `edit` against `report()`: the failure
    /// summary's lines, empty exactly when the gate passes.
    fn failures_after(edit: impl FnOnce(&mut BenchReport)) -> Vec<String> {
        let mut cand = report();
        edit(&mut cand);
        let d = compare(&report(), &cand);
        let lines: Vec<String> = d.failure_summary().lines().map(str::to_string).collect();
        assert_eq!(d.failed(), !lines.is_empty(), "{lines:?}");
        lines
    }

    #[test]
    fn identical_reports_do_not_regress() {
        let r = report();
        let d = compare(&r, &r);
        assert!(!d.failed());
        assert!(d.failure_summary().is_empty());
        assert_eq!(d.metrics.len(), 4);
        assert_eq!(d.wall.len(), 1);
    }

    #[test]
    fn injected_latency_regression_is_caught() {
        // 2× latency on one metric; the untouched metrics stay green.
        assert_eq!(
            failures_after(|c| c.metrics[1].1 *= 2.0),
            ["batch_e2e_us_p99: 1500 -> 3000"]
        );
    }

    #[test]
    fn throughput_drop_and_rise_both_fail() {
        assert_eq!(
            failures_after(|c| c.metrics[2].1 *= 0.5),
            ["throughput_samples_per_s: 40000 -> 20000"]
        );
        assert_eq!(
            failures_after(|c| c.metrics[2].1 *= 2.0),
            ["throughput_samples_per_s: 40000 -> 80000"]
        );
        // An improvement does not hide a zero baseline that moved.
        assert_eq!(
            failures_after(|c| {
                c.metrics[0].1 = 900.0;
                c.metrics[3].1 = 1.0;
            }),
            ["batch_e2e_us_p50: 1000 -> 900", "prepro_S_us: 0 -> 1",]
        );
    }

    #[test]
    fn wall_metrics_never_gate() {
        assert!(failures_after(|c| c.wall[0].1 *= 10.0).is_empty());
        assert!(failures_after(|c| c.wall.clear()).is_empty());
    }

    #[test]
    fn missing_metric_is_a_schema_break() {
        assert_eq!(
            failures_after(|c| {
                c.metrics.remove(0);
            }),
            ["batch_e2e_us_p50: 1000 -> absent"]
        );
    }

    #[test]
    fn failure_summary_enumerates_every_regression() {
        assert_eq!(
            failures_after(|c| {
                c.metrics[0].1 *= 3.0; // p50 latency 3×
                c.metrics[2].1 *= 0.1; // throughput collapses
                c.metrics.remove(1); // p99 vanishes
                c.metrics.push(("prepro_idle_pct".into(), 1.2));
            }),
            [
                "batch_e2e_us_p50: 1000 -> 3000",
                "batch_e2e_us_p99: 1500 -> absent",
                "throughput_samples_per_s: 40000 -> 4000",
                "prepro_idle_pct: absent -> 1.2",
            ]
        );
    }

    #[test]
    fn new_metrics_gate_unless_allowed() {
        // A new modeled metric fails; only the wall section may grow.
        assert_eq!(
            failures_after(|c| c.metrics.push(("prepro_idle_pct".into(), 1.2))),
            ["prepro_idle_pct: absent -> 1.2"]
        );
        assert!(failures_after(|c| c.wall.push(("wall_extra_us".into(), 1.0))).is_empty());
    }

    #[test]
    fn version_and_experiment_mismatches_refuse() {
        assert_eq!(
            failures_after(|c| c.schema_version += 1),
            ["incompatible: schema version mismatch: baseline v1 vs candidate v2"]
        );
        assert_eq!(
            failures_after(|c| c.experiment = "fig16".into()),
            ["incompatible: experiment mismatch: baseline \"smoke\" vs candidate \"fig16\""]
        );
    }
}
