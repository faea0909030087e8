//! Cluster topology: N workers, each a full [`SystemSpec`] (cores + PCIe
//! link + GPU), connected by modeled network links over which collectives
//! are priced.
//!
//! This generalizes the single-node resource model: the supervisor's
//! cluster pricing layer (`gt-core::cluster`) partitions each batch's preprocessing work across
//! workers, prices every worker's local S/R/K/T + NAPA schedule through its
//! own DES instance, then charges ring all-gather/all-reduce collectives on
//! the network link. Everything here is a pure function of the specs, so
//! cluster schedules inherit the DES's bit-identity contract.

use crate::device::SystemSpec;

/// A modeled full-duplex network link between cluster workers.
#[derive(Debug, Clone, PartialEq)]
pub struct NetLinkSpec {
    /// Link bandwidth in gigabits per second (25 GbE by default).
    pub bandwidth_gbps: f64,
    /// One-way message latency in microseconds.
    pub latency_us: f64,
}

impl NetLinkSpec {
    /// A 25 GbE datacenter link, the common GNN-cluster fabric.
    pub fn gbe25() -> Self {
        NetLinkSpec {
            bandwidth_gbps: 25.0,
            latency_us: 15.0,
        }
    }

    /// A deliberately slow link for tests (1 Gb/s, high latency) so
    /// collective costs are visible at tiny scales.
    pub fn tiny() -> Self {
        NetLinkSpec {
            bandwidth_gbps: 1.0,
            latency_us: 50.0,
        }
    }

    /// Link bandwidth in bytes per virtual microsecond.
    pub fn bytes_per_us(&self) -> f64 {
        // Gb/s → bytes/µs: divide by 8 bits, multiply by 1e9 / 1e6.
        self.bandwidth_gbps / 8.0 * 1.0e3
    }

    /// Virtual time to move `bytes` point-to-point over this link.
    pub fn transfer_us(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        self.latency_us + bytes / self.bytes_per_us()
    }
}

/// The cluster: per-worker system specs plus the fabric connecting them.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// One full system per worker. A single entry degenerates to the
    /// single-node model (collectives cost zero).
    pub workers: Vec<SystemSpec>,
    /// The network link every worker attaches to (uniform fabric).
    pub link: NetLinkSpec,
}

impl ClusterSpec {
    /// `n` identical workers of the given spec on one fabric.
    pub fn uniform(n: usize, worker: SystemSpec, link: NetLinkSpec) -> Self {
        assert!(n >= 1, "a cluster needs at least one worker");
        ClusterSpec {
            workers: vec![worker; n],
            link,
        }
    }

    /// `n` paper-testbed workers on 25 GbE.
    pub fn paper_testbed(n: usize) -> Self {
        ClusterSpec::uniform(n, SystemSpec::paper_testbed(), NetLinkSpec::gbe25())
    }

    /// `n` tiny workers on a tiny link, for fast tests.
    pub fn tiny(n: usize) -> Self {
        ClusterSpec::uniform(n, SystemSpec::tiny(), NetLinkSpec::tiny())
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True for the degenerate single-worker (or empty) cluster.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Ring all-gather over `p` participants, each contributing
    /// `bytes_per_worker`: `p − 1` steps, each moving one worker-chunk over
    /// the slowest link. Zero for `p ≤ 1` — a lone worker gathers nothing.
    pub fn all_gather_us(&self, bytes_per_worker: f64, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        (p as f64 - 1.0) * self.link.transfer_us(bytes_per_worker)
    }

    /// Ring all-reduce of a `bytes`-sized tensor across `p` participants:
    /// reduce-scatter then all-gather, `2(p − 1)` steps of `bytes / p`
    /// each. Zero for `p ≤ 1`.
    pub fn all_reduce_us(&self, bytes: f64, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        2.0 * (p as f64 - 1.0) * self.link.transfer_us(bytes / p as f64)
    }
}

/// Scalar totals of a cluster run on the cluster clock, as the cluster
/// supervisor (`gt-core::cluster`) accumulates them and the fleet report
/// (`gt-profile::fleet`) reads them. Vectors are indexed by worker.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetTotals {
    /// Total virtual time on the cluster clock, µs.
    pub clock_us: f64,
    /// Virtual µs spent in all-gather/all-reduce collectives.
    pub collective_us: f64,
    /// Virtual µs each worker's resources spent executing subtasks.
    pub worker_busy_us: Vec<f64>,
    /// Virtual µs each worker idled waiting at the collective barrier.
    pub worker_idle_us: Vec<f64>,
    /// Virtual µs each worker's network link was occupied by ring
    /// collectives (every member's link is held for the whole collective —
    /// the ring moves at its slowest hop).
    pub worker_link_us: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_cost_is_latency_plus_serialization() {
        let link = NetLinkSpec::gbe25();
        // 25 Gb/s = 3125 bytes/µs.
        assert!((link.bytes_per_us() - 3125.0).abs() < 1e-9);
        assert_eq!(link.transfer_us(0.0), 0.0);
        let t = link.transfer_us(3_125_000.0);
        assert!((t - (15.0 + 1000.0)).abs() < 1e-9);
    }

    #[test]
    fn single_worker_collectives_are_free() {
        let c = ClusterSpec::tiny(1);
        assert_eq!(c.all_gather_us(1.0e6, 1), 0.0);
        assert_eq!(c.all_reduce_us(1.0e6, 1), 0.0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn collective_costs_grow_with_workers() {
        let c4 = ClusterSpec::paper_testbed(4);
        let c2 = ClusterSpec::paper_testbed(2);
        let bytes = 1.0e6;
        assert!(c4.all_gather_us(bytes, 4) > c2.all_gather_us(bytes, 2));
        // All-reduce step size shrinks with p, but step count grows faster:
        // 2(p−1)·(lat + b/p/bw) is increasing in p for fixed b.
        assert!(c4.all_reduce_us(bytes, 4) > c2.all_reduce_us(bytes, 2));
    }

    #[test]
    fn ring_all_reduce_matches_closed_form() {
        let c = ClusterSpec::uniform(
            4,
            SystemSpec::tiny(),
            NetLinkSpec {
                bandwidth_gbps: 8.0,
                latency_us: 10.0,
            },
        );
        // 8 Gb/s = 1000 bytes/µs; 4000 bytes across 4 workers:
        // 2·3 steps of (10 + 1000/1000) µs = 66 µs.
        assert!((c.all_reduce_us(4000.0, 4) - 66.0).abs() < 1e-9);
        // All-gather of 1000 bytes/worker: 3 steps of 11 µs = 33 µs.
        assert!((c.all_gather_us(1000.0, 4) - 33.0).abs() < 1e-9);
    }
}
