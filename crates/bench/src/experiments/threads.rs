//! Threads scaling — wall-clock speedup of the S/R/K preprocessing
//! stages on the `gt_par` pool, with the bit-identity contract checked
//! at every width.
//!
//! Unlike the figure modules, which price work on the *modeled* 12-core
//! host, this experiment times the real host-side implementation: the
//! same batch is preprocessed on pools of 1, 2, 4, and 8 workers and
//! the measured wall-clock is reported relative to the 1-worker run.
//! Every multi-worker result is also compared field-by-field against
//! the serial one — the pool's determinism contract (docs/parallelism.md)
//! says they must be bit-identical, not merely equivalent.

use crate::runner::{print_table, ExpConfig};
use gt_core::data::GraphData;
use gt_core::prepro::{run_prepro_with_pool, PreproResult};
use gt_par::ThreadPool;
use std::time::Instant;

/// Pool widths swept by the experiment.
pub const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// One pool width's measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Pool width (worker count).
    pub threads: usize,
    /// Mean wall-clock of one batch's S+R+K (µs).
    pub prepro_us: f64,
    /// Speedup over the 1-worker run.
    pub speedup: f64,
    /// Whether every output matched the 1-worker run bit-for-bit.
    pub identical: bool,
}

/// The synthetic large graph the sweep preprocesses. Sized so the
/// 1-worker run takes long enough to time meaningfully at `Scale::Small`
/// while staying unit-test sized at `Scale::Test`.
fn build_data(cfg: &ExpConfig) -> GraphData {
    let d = cfg.scale.divisor();
    let nv = (4_000_000 / d).max(500);
    let ne = (80_000_000 / d).max(10_000);
    GraphData::synthetic(nv, ne, 64, 8, cfg.seed)
}

fn outputs_match(a: &PreproResult, b: &PreproResult) -> bool {
    a.new_to_orig == b.new_to_orig
        && a.boundaries == b.boundaries
        && a.features == b.features
        && a.layers.len() == b.layers.len()
        && a.layers.iter().zip(&b.layers).all(|(x, y)| {
            x.csr == y.csr && x.csc == y.csc && x.num_dst == y.num_dst && x.num_src == y.num_src
        })
}

/// Sweep pool widths over one batch of the synthetic graph.
pub fn run(cfg: &ExpConfig) -> Vec<Row> {
    let data = build_data(cfg);
    let batch = cfg.batch_ids(&data);
    let scfg = cfg.sampler();
    let reps = cfg.measure_batches.max(1);

    let mut reference: Option<PreproResult> = None;
    let mut base_us = 0.0;
    let mut rows = Vec::new();
    for &threads in &WIDTHS {
        let pool = ThreadPool::leaked(threads);
        // Warm up once (first touch of the feature table and allocator).
        let mut result = run_prepro_with_pool(&data, &batch, &scfg, pool);
        let start = Instant::now();
        for _ in 0..reps {
            result = run_prepro_with_pool(&data, &batch, &scfg, pool);
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
        let identical = match &reference {
            None => true,
            Some(r) => outputs_match(r, &result),
        };
        if reference.is_none() {
            reference = Some(result);
            base_us = us;
        }
        rows.push(Row {
            threads,
            prepro_us: us,
            speedup: base_us / us,
            identical,
        });
    }
    rows
}

/// Print the scaling sweep.
pub fn print(cfg: &ExpConfig) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < *WIDTHS.last().unwrap() {
        println!(
            "note: host exposes {cores} core(s); widths beyond that are \
             oversubscribed and cannot show wall-clock speedup"
        );
    }
    let rows = run(cfg);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.threads),
                format!("{:.0}us", r.prepro_us),
                format!("{:.2}x", r.speedup),
                if r.identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "threads: S/R/K wall-clock scaling on the gt_par pool (vs 1 worker; {} dense kernel)",
            gt_tensor::dense::kernel_isa()
        ),
        &["threads", "prepro", "speedup", "bit-identical"],
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_bit_identical_at_every_width() {
        let cfg = ExpConfig::test();
        let rows = run(&cfg);
        assert_eq!(rows.len(), WIDTHS.len());
        for r in &rows {
            assert!(
                r.identical,
                "{} workers produced different outputs than 1 worker",
                r.threads
            );
            assert!(r.prepro_us > 0.0);
        }
    }
}
