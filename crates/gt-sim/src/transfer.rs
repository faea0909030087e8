//! PCIe transfer model (host → device).
//!
//! SALIENT's and Prepro-GT's advantage partly comes from pinned (page-locked)
//! buffers: pageable transfers are staged through a driver bounce buffer and
//! achieve roughly half the bandwidth (§V-B "Relaxing contention", §VI-B).

use crate::device::PcieSpec;

/// Whether the host buffer is page-locked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferKind {
    /// Ordinary pageable host memory; the driver stages an extra copy.
    Pageable,
    /// CUDA-style pinned memory; DMA directly from the user buffer.
    Pinned,
}

impl PcieSpec {
    /// Modeled latency (µs) of transferring `bytes` host→device.
    pub fn transfer_us(&self, bytes: u64, kind: TransferKind) -> f64 {
        let bw = match kind {
            TransferKind::Pageable => self.pageable_bandwidth,
            TransferKind::Pinned => self.pinned_bandwidth,
        };
        self.latency_us + bytes as f64 / (bw / 1.0e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_faster_than_pageable() {
        let p = PcieSpec::gen3_x16();
        let big = 100 << 20;
        assert!(
            p.transfer_us(big, TransferKind::Pinned) < p.transfer_us(big, TransferKind::Pageable)
        );
    }

    #[test]
    fn bandwidth_math() {
        let p = PcieSpec::gen3_x16();
        // 12 GB at 12 GB/s pinned ≈ 1s = 1e6 us (plus setup).
        let us = p.transfer_us(12_000_000_000, TransferKind::Pinned);
        assert!((us - 1.0e6).abs() / 1.0e6 < 0.01, "us={us}");
    }
}
