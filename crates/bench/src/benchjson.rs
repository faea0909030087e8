//! Schema-stable benchmark reports (`BENCH_<exp>.json`).
//!
//! A [`BenchReport`] holds **modeled** metrics only: the cost model prices
//! the same work identically on every machine and at every `GT_THREADS`
//! width, so the file's bytes are too, and the identity manifest
//! (`crates/bench/identity.sh`) hashes them like any other artifact.
//! Measured wall time lives in the wall-clock benchmark (`benchmark/`).

use gt_telemetry::Json;

/// The experiment configuration a report was measured under.
#[derive(Debug)]
pub struct BenchConfig {
    pub scale_divisor: u64,
    pub seed: u64,
    pub batch: u64,
    pub fanout: u64,
    pub layers: u64,
    pub measure_batches: u64,
}

/// The machine model a report was priced on: two runs that name the same
/// one priced the same work identically.
#[derive(Debug)]
pub struct EnvFingerprint {
    /// Modeled GPU name (`DeviceSpec::name`).
    pub gpu: String,
    /// Modeled host name (`HostSpec::name`).
    pub host: String,
    /// Modeled host core count.
    pub host_cores: u64,
}

/// One benchmark run, serializable to `BENCH_<exp>.json`.
#[derive(Debug)]
pub struct BenchReport {
    pub experiment: String,
    pub config: BenchConfig,
    pub env: EnvFingerprint,
    /// Deterministic modeled metrics, in a stable order.
    pub metrics: Vec<(String, f64)>,
}

impl BenchReport {
    /// The on-disk form: single-line JSON in a stable key order, plus a
    /// trailing newline.
    pub fn to_json_string(&self) -> String {
        let mut s = Json::obj(vec![
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
                    ("gpu", Json::Str(self.env.gpu.clone())),
                    ("host", Json::Str(self.env.host.clone())),
                    ("host_cores", self.env.host_cores.into()),
                ]),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
        .to_json_string();
        s.push('\n');
        s
    }
}
