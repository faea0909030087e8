//! Work counters charged by every kernel, and the [`SimContext`] that
//! accumulates them per execution phase.
//!
//! The figures of the paper are all functions of these counters:
//! memory bloat (Fig 6a/17a) is `alloc_bytes` relative to the embedding
//! table; cache bloat (Fig 6b/17b) is `cache_loaded_bytes`; DKP impact
//! (Fig 18) is `flops` and global traffic; per-kernel latency (Fig 15/16)
//! is a roofline over traffic and FLOPs.

use crate::device::DeviceSpec;
use crate::memory::MemoryTracker;

/// Execution phase a kernel belongs to, used to decompose latencies as in
/// Fig 16 (aggregation / edge weighting / combination / sparse-to-dense /
/// format translation) and Fig 12/20 (preprocessing stages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Neighbor aggregation (`f`, SpMM-like).
    Aggregation,
    /// Edge weighting (`g`/`h`, SDDMM-like).
    EdgeWeighting,
    /// Combination (MLP: MatMul + bias + nonlinearity).
    Combination,
    /// DL-approach sparse→dense data conversion.
    Sparse2Dense,
    /// Graph-approach COO↔CSR/CSC translation on the GPU.
    FormatTranslation,
    /// Loss computation and gradient seeding.
    Loss,
    /// Parameter update (SGD).
    Optimizer,
    /// Host-side neighbor sampling (S).
    Sampling,
    /// Host-side subgraph reindexing (R).
    Reindex,
    /// Host-side embedding lookup (K).
    Lookup,
    /// Host→device transfer (T).
    Transfer,
    /// Anything else.
    Other,
}

impl Phase {
    /// All phases, in display order.
    pub const ALL: [Phase; 12] = [
        Phase::Aggregation,
        Phase::EdgeWeighting,
        Phase::Combination,
        Phase::Sparse2Dense,
        Phase::FormatTranslation,
        Phase::Loss,
        Phase::Optimizer,
        Phase::Sampling,
        Phase::Reindex,
        Phase::Lookup,
        Phase::Transfer,
        Phase::Other,
    ];

    /// Short label used by the repro harness.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Aggregation => "aggregation",
            Phase::EdgeWeighting => "edge-weighting",
            Phase::Combination => "combination",
            Phase::Sparse2Dense => "sparse2dense",
            Phase::FormatTranslation => "format-translation",
            Phase::Loss => "loss",
            Phase::Optimizer => "optimizer",
            Phase::Sampling => "sampling",
            Phase::Reindex => "reindex",
            Phase::Lookup => "lookup",
            Phase::Transfer => "transfer",
            Phase::Other => "other",
        }
    }

    /// True for the four host-side preprocessing stages (S, R, K, T).
    pub fn is_preprocessing(&self) -> bool {
        matches!(
            self,
            Phase::Sampling | Phase::Reindex | Phase::Lookup | Phase::Transfer
        )
    }
}

/// Work performed by one kernel (or one host task).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct KernelStats {
    /// Floating-point operations executed.
    pub flops: u64,
    /// Bytes read from global (device) memory, assuming perfect intra-SM
    /// reuse — i.e. unique data touched.
    pub global_read_bytes: u64,
    /// Bytes written to global memory.
    pub global_write_bytes: u64,
    /// Bytes brought into SM-local caches *including* duplicates across SMs.
    /// `cache_loaded_bytes - unique working set` is the cache bloat of §III.
    pub cache_loaded_bytes: u64,
    /// Device memory allocated by this kernel (not yet freed at its end).
    pub alloc_bytes: u64,
    /// Bytes moved over PCIe (only for `Phase::Transfer`).
    pub pcie_bytes: u64,
    /// Host work units (elementary preprocessing ops) for host-side phases.
    pub host_ops: u64,
    /// Number of kernel launches this task performed (sorts launch many).
    pub launches: u64,
    /// True if the dominant access pattern is irregular (gather/scatter).
    pub irregular: bool,
}

impl KernelStats {
    /// Total global-memory traffic (reads + writes).
    pub fn global_bytes(&self) -> u64 {
        self.global_read_bytes + self.global_write_bytes
    }

    /// Accumulate another stats record into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.flops += other.flops;
        self.global_read_bytes += other.global_read_bytes;
        self.global_write_bytes += other.global_write_bytes;
        self.cache_loaded_bytes += other.cache_loaded_bytes;
        self.alloc_bytes += other.alloc_bytes;
        self.pcie_bytes += other.pcie_bytes;
        self.host_ops += other.host_ops;
        self.launches += other.launches;
        self.irregular |= other.irregular;
    }
}

impl std::ops::AddAssign<&KernelStats> for KernelStats {
    fn add_assign(&mut self, rhs: &KernelStats) {
        self.merge(rhs);
    }
}

/// One recorded kernel execution: phase, its work, and its modeled latency.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    pub phase: Phase,
    pub stats: KernelStats,
    /// Modeled latency in microseconds (GPU roofline or host-core model).
    pub modeled_us: f64,
}

/// Accumulates kernel records and device-memory state for one measured run
/// (typically one training batch).
#[derive(Debug, Clone)]
pub struct SimContext {
    device: DeviceSpec,
    records: Vec<KernelRecord>,
    /// Device-memory allocation tracker (peak footprint → Fig 6a / 17a).
    pub memory: MemoryTracker,
}

impl SimContext {
    /// New context for the given GPU model.
    pub fn new(device: DeviceSpec) -> Self {
        let cap = device.device_mem_bytes;
        SimContext {
            device,
            records: Vec::new(),
            memory: MemoryTracker::new(cap),
        }
    }

    /// The GPU model this context prices kernels against.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Price `stats` with the GPU roofline model: latency is the maximum of
    /// the compute time and the memory time, plus launch overhead.
    pub fn gpu_latency_us(&self, stats: &KernelStats) -> f64 {
        let compute_us = stats.flops as f64 / (self.device.peak_flops / 1.0e6);
        let mem_us = stats.global_bytes() as f64 / self.device.effective_bw_per_us(stats.irregular);
        let launches = stats.launches.max(1) as f64;
        launches * self.device.kernel_launch_us + compute_us.max(mem_us)
    }

    /// Record a GPU kernel execution; returns its modeled latency (µs).
    pub fn record_gpu(&mut self, phase: Phase, stats: KernelStats) -> f64 {
        let modeled_us = self.gpu_latency_us(&stats);
        self.records.push(KernelRecord {
            phase,
            stats,
            modeled_us,
        });
        modeled_us
    }

    /// All recorded kernels, in execution order.
    pub fn records(&self) -> &[KernelRecord] {
        &self.records
    }

    /// Sum of modeled latencies for one phase.
    pub fn phase_us(&self, phase: Phase) -> f64 {
        self.records
            .iter()
            .filter(|r| r.phase == phase)
            .map(|r| r.modeled_us)
            .sum()
    }

    /// Sum of modeled latencies across all phases.
    pub fn total_us(&self) -> f64 {
        self.records.iter().map(|r| r.modeled_us).sum()
    }

    /// Aggregate stats for one phase.
    pub fn phase_stats(&self, phase: Phase) -> KernelStats {
        let mut acc = KernelStats::default();
        for r in self.records.iter().filter(|r| r.phase == phase) {
            acc.merge(&r.stats);
        }
        acc
    }

    /// Aggregate stats across every phase.
    pub fn total_stats(&self) -> KernelStats {
        let mut acc = KernelStats::default();
        for r in &self.records {
            acc.merge(&r.stats);
        }
        acc
    }

    /// Latency decomposition: (phase, summed µs) for phases that occurred.
    pub fn decomposition(&self) -> Vec<(Phase, f64)> {
        let mut out: Vec<(Phase, f64)> = Vec::new();
        for r in &self.records {
            match out.iter_mut().find(|(p, _)| *p == r.phase) {
                Some((_, us)) => *us += r.modeled_us,
                None => out.push((r.phase, r.modeled_us)),
            }
        }
        out
    }

    /// Drop all records and reset memory tracking (keeps the device).
    pub fn reset(&mut self) {
        self.records.clear();
        self.memory = MemoryTracker::new(self.device.device_mem_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> SimContext {
        SimContext::new(DeviceSpec::tiny())
    }

    #[test]
    fn roofline_is_max_of_compute_and_memory() {
        let c = ctx();
        // Compute-bound kernel: many flops, no traffic.
        let compute_heavy = KernelStats {
            flops: 100_000_000,
            ..Default::default()
        };
        // Memory-bound kernel: no flops, lots of traffic.
        let mem_heavy = KernelStats {
            global_read_bytes: 100_000_000,
            ..Default::default()
        };
        let lc = c.gpu_latency_us(&compute_heavy);
        let lm = c.gpu_latency_us(&mem_heavy);
        // tiny: 100 GFLOPs → 1e8 flops = 1000us; 10GB/s*0.75 → 1e8B = 13333us
        assert!(lc > 900.0 && lc < 1100.0, "lc={lc}");
        assert!(lm > 13000.0, "lm={lm}");
    }

    #[test]
    fn irregular_access_is_slower() {
        let c = ctx();
        let mut s = KernelStats {
            global_read_bytes: 10_000_000,
            ..Default::default()
        };
        let regular = c.gpu_latency_us(&s);
        s.irregular = true;
        let irregular = c.gpu_latency_us(&s);
        assert!(irregular > regular * 2.0);
    }

    #[test]
    fn phase_accounting() {
        let mut c = ctx();
        c.record_gpu(
            Phase::Aggregation,
            KernelStats {
                flops: 1000,
                ..Default::default()
            },
        );
        c.record_gpu(
            Phase::Aggregation,
            KernelStats {
                flops: 500,
                ..Default::default()
            },
        );
        c.record_gpu(
            Phase::Combination,
            KernelStats {
                flops: 2000,
                ..Default::default()
            },
        );
        assert_eq!(c.phase_stats(Phase::Aggregation).flops, 1500);
        assert_eq!(c.phase_stats(Phase::Combination).flops, 2000);
        assert_eq!(c.total_stats().flops, 3500);
        assert!(c.phase_us(Phase::Aggregation) > 0.0);
        assert_eq!(c.decomposition().len(), 2);
    }

    #[test]
    fn launches_add_overhead() {
        let c = ctx();
        let one = KernelStats {
            launches: 1,
            ..Default::default()
        };
        let many = KernelStats {
            launches: 40,
            ..Default::default()
        };
        assert!(c.gpu_latency_us(&many) > c.gpu_latency_us(&one) * 30.0);
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = KernelStats {
            flops: 1,
            global_read_bytes: 2,
            global_write_bytes: 3,
            cache_loaded_bytes: 4,
            alloc_bytes: 5,
            pcie_bytes: 6,
            host_ops: 7,
            launches: 1,
            irregular: false,
        };
        let b = KernelStats {
            irregular: true,
            ..a
        };
        a.merge(&b);
        assert_eq!(a.flops, 2);
        assert_eq!(a.global_bytes(), 10);
        assert!(a.irregular);
    }

    #[test]
    fn reset_clears_records() {
        let mut c = ctx();
        c.record_gpu(Phase::Loss, KernelStats::default());
        assert_eq!(c.records().len(), 1);
        c.reset();
        assert!(c.records().is_empty());
        assert_eq!(c.total_us(), 0.0);
    }

    #[test]
    fn preprocessing_phase_classification() {
        assert!(Phase::Sampling.is_preprocessing());
        assert!(Phase::Transfer.is_preprocessing());
        assert!(!Phase::Aggregation.is_preprocessing());
    }
}
