//! The service-wide tensor scheduler (§V-B, Figs 13–14).
//!
//! The same measured preprocessing work ([`PreproWork`]) is scheduled onto
//! the modeled host/PCIe under four strategies:
//!
//! * [`PreproStrategy::Serial`] — the DGL/PyG shape (Fig 12b): stages run
//!   one after another, each stage internally multi-threaded, transfers
//!   pageable.
//! * [`PreproStrategy::SerialPinned`] — SALIENT: the same serialized chain,
//!   but the lookup output lands in pinned buffers so the transfer runs at
//!   pinned bandwidth (its e2e win additionally comes from overlapping whole
//!   batches, handled by the framework layer).
//! * [`PreproStrategy::Pipelined`] — GraphTensor's subtask decomposition
//!   (Fig 13) *without* contention relaxing: S and R subtasks contend on
//!   the VID hash table (one lock group), reproducing Fig 14a.
//! * [`PreproStrategy::PipelinedRelaxed`] — Fig 14c: S subtasks are split
//!   into a parallel algorithm part (A) and a serialized hash-update part
//!   (H); R waits on H instead of racing it; K chunks pipeline directly
//!   into pinned T chunks (Fig 14b).

use crate::prepro::PreproWork;
use gt_sim::{
    ActiveFaults, Phase, Resource, Schedule, Simulator, SystemSpec, TaskSpec, TransferKind,
};

/// Preprocessing schedule shapes (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreproStrategy {
    /// Stage-serial, pageable transfers (DGL / multi-threaded PyG).
    Serial,
    /// Stage-serial, pinned transfers (SALIENT).
    SerialPinned,
    /// GraphTensor subtasks, naive locking (contended, Fig 14a).
    Pipelined,
    /// GraphTensor subtasks with contention relaxing (Fig 14c).
    PipelinedRelaxed,
}

/// Lock group id for the VID hash table.
const HASH_LOCK: u32 = 1;

/// Build and run the DES schedule for one batch's preprocessing.
pub fn schedule_prepro(work: &PreproWork, sys: &SystemSpec, strategy: PreproStrategy) -> Schedule {
    build_prepro_sim(work, sys, strategy).run()
}

/// [`schedule_prepro`] with injected faults applied at event boundaries
/// (straggler cores, PCIe stalls/failures, lock-contention spikes). With an
/// empty fault set this is bit-identical to the plain schedule.
pub fn schedule_prepro_with_faults(
    work: &PreproWork,
    sys: &SystemSpec,
    strategy: PreproStrategy,
    faults: &ActiveFaults,
) -> Schedule {
    build_prepro_sim(work, sys, strategy).run_with_faults(faults)
}

/// Construct the task graph for one batch's preprocessing without running
/// it, for callers that need the [`Simulator`] itself: its host-core pool
/// size (bubble accounting).
pub fn build_prepro_sim(
    work: &PreproWork,
    sys: &SystemSpec,
    strategy: PreproStrategy,
) -> Simulator {
    match strategy {
        PreproStrategy::Serial => serial(work, sys, TransferKind::Pageable),
        PreproStrategy::SerialPinned => serial(work, sys, TransferKind::Pinned),
        PreproStrategy::Pipelined => pipelined(work, sys, false),
        PreproStrategy::PipelinedRelaxed => pipelined(work, sys, true),
    }
}

/// Host-task duration for `ops` elementary operations on one core.
fn ops_us(ops: u64, sys: &SystemSpec) -> f64 {
    ops as f64 / sys.host.ops_per_us
}

/// Host-side gather duration for `bytes` on one core (memory-bound copy; a
/// single core sustains roughly 1/8 of socket bandwidth).
fn copy_us(bytes: u64, sys: &SystemSpec) -> f64 {
    let per_core_bw = sys.host.mem_bandwidth / 8.0 / 1.0e6; // bytes per µs
    bytes as f64 / per_core_bw
}

/// Split `total` into `n` near-equal chunks (no zero chunks unless total=0).
fn chunk(total: u64, n: usize) -> Vec<u64> {
    let n = n.max(1) as u64;
    let base = total / n;
    let rem = total % n;
    (0..n)
        .map(|i| base + u64::from(i < rem))
        .filter(|&c| c > 0)
        .collect()
}

/// Serialized stages: all S hops (in order), then all R, then K, then T.
/// Each stage fans out across all host cores; T is a single DMA stream.
fn serial(work: &PreproWork, sys: &SystemSpec, kind: TransferKind) -> Simulator {
    let cores = sys.host.cores;
    let mut sim = Simulator::new(cores);
    let mut prev_stage: Vec<usize> = Vec::new();

    // S: hop k+1 depends on hop k (the frontier comes from it). Even the
    // serialized baselines sample with a thread pool sharing the VID hash
    // table, so each hop's hash updates serialize on its lock; only the
    // algorithm portion scales with cores — the paper's \u{25b3} "partial"
    // preprocessing rating for DGL-style multithreaded samplers.
    for (k, hop) in work.hops.iter().enumerate() {
        let mut ids = Vec::new();
        for (c, share) in chunk(hop.sample_alg_ops, cores).into_iter().enumerate() {
            let t = TaskSpec::new(
                format!("S{}A c{}", k + 1, c),
                Resource::HostCore,
                ops_us(share, sys),
                Phase::Sampling,
            )
            .after(&prev_stage);
            ids.push(sim.add(t));
        }
        let hash_shares = chunk(hop.sample_hash_ops, cores);
        let n_hash = hash_shares.len().max(1) as u64;
        for (c, share) in hash_shares.into_iter().enumerate() {
            let t = TaskSpec::new(
                format!("S{}H c{}", k + 1, c),
                Resource::HostCore,
                ops_us(share, sys),
                Phase::Sampling,
            )
            .after(&prev_stage)
            .locked(HASH_LOCK)
            .items(hop.nodes_added / n_hash);
            ids.push(sim.add(t));
        }
        prev_stage = ids;
    }
    let s_done = prev_stage;

    // R: all hops, after every S.
    let mut r_ids = Vec::new();
    for (k, hop) in work.hops.iter().enumerate() {
        for (c, share) in chunk(hop.reindex_ops, cores).into_iter().enumerate() {
            let t = TaskSpec::new(
                format!("R{} c{}", k + 1, c),
                Resource::HostCore,
                ops_us(share, sys),
                Phase::Reindex,
            )
            .after(&s_done)
            .items(hop.nodes_added / cores.max(1) as u64);
            r_ids.push(sim.add(t));
        }
    }

    // K: gather all features, after R.
    let mut k_ids = Vec::new();
    for (c, share) in chunk(work.total_feature_bytes, cores)
        .into_iter()
        .enumerate()
    {
        let t = TaskSpec::new(
            format!("K c{c}"),
            Resource::HostCore,
            copy_us(share, sys),
            Phase::Lookup,
        )
        .after(&r_ids)
        .items(work.total_nodes / cores.max(1) as u64);
        k_ids.push(sim.add(t));
    }

    // T: one stream for structures + features.
    let bytes = work.total_feature_bytes + work.total_structure_bytes();
    let t = TaskSpec::new(
        "T",
        Resource::Pcie,
        sys.pcie.transfer_us(bytes, kind),
        Phase::Transfer,
    )
    .after(&k_ids)
    .items(work.total_nodes);
    sim.add(t);

    sim
}

/// GraphTensor's per-layer subtask pipeline (Fig 13), optionally with the
/// contention relaxing of Fig 14c.
fn pipelined(work: &PreproWork, sys: &SystemSpec, relaxed: bool) -> Simulator {
    let cores = sys.host.cores;
    let mut sim = Simulator::new(cores);

    // Per-hop groups of (lookup chunks, feature bytes, nodes) awaiting
    // their pipelined transfer.
    let mut kt_groups: Vec<(Vec<usize>, u64, u64)> = Vec::new();
    let mut last_s: Vec<usize> = Vec::new();
    let mut prev_hop_done: Vec<usize> = Vec::new();
    let mut r_all: Vec<usize> = Vec::new();
    let mut structure_bytes = 0u64;

    // Seed-node lookup chunks (their ids are known before any sampling).
    let seed_k: Vec<usize> = chunk(work.batch_feature_bytes, cores)
        .into_iter()
        .enumerate()
        .map(|(c, share)| {
            sim.add(
                TaskSpec::new(
                    format!("K0 c{c}"),
                    Resource::HostCore,
                    copy_us(share, sys),
                    Phase::Lookup,
                )
                .items(work.batch_nodes / cores.max(1) as u64),
            )
        })
        .collect();
    kt_groups.push((seed_k, work.batch_feature_bytes, work.batch_nodes));

    for (k, hop) in work.hops.iter().enumerate() {
        // --- S subtasks ---
        let s_ids: Vec<usize> = if relaxed {
            // Fig 14c: parallel algorithm parts + serialized hash updates.
            let alg: Vec<usize> = chunk(hop.sample_alg_ops, cores)
                .into_iter()
                .enumerate()
                .map(|(c, share)| {
                    sim.add(
                        TaskSpec::new(
                            format!("S{}A c{}", k + 1, c),
                            Resource::HostCore,
                            ops_us(share, sys),
                            Phase::Sampling,
                        )
                        .after(&prev_hop_done),
                    )
                })
                .collect();
            chunk(hop.sample_hash_ops, cores)
                .into_iter()
                .enumerate()
                .map(|(c, share)| {
                    sim.add(
                        TaskSpec::new(
                            format!("S{}H c{}", k + 1, c),
                            Resource::HostCore,
                            ops_us(share, sys),
                            Phase::Sampling,
                        )
                        .after(&alg)
                        .locked(HASH_LOCK)
                        .items(hop.nodes_added / cores.max(1) as u64),
                    )
                })
                .collect()
        } else {
            // Naive: every S chunk takes the hash lock for its whole run
            // (algorithm and updates interleave), serializing S (Fig 14a).
            chunk(hop.sample_alg_ops + hop.sample_hash_ops, cores)
                .into_iter()
                .enumerate()
                .map(|(c, share)| {
                    sim.add(
                        TaskSpec::new(
                            format!("S{} c{}", k + 1, c),
                            Resource::HostCore,
                            ops_us(share, sys),
                            Phase::Sampling,
                        )
                        .after(&prev_hop_done)
                        .locked(HASH_LOCK)
                        .items(hop.nodes_added / cores.max(1) as u64),
                    )
                })
                .collect()
        };

        // --- R subtasks: per hop, right after that hop's S ---
        let r_ids: Vec<usize> = chunk(hop.reindex_ops, cores)
            .into_iter()
            .enumerate()
            .map(|(c, share)| {
                let mut t = TaskSpec::new(
                    format!("R{} c{}", k + 1, c),
                    Resource::HostCore,
                    ops_us(share, sys),
                    Phase::Reindex,
                )
                .after(&s_ids)
                .items(hop.nodes_added / cores.max(1) as u64);
                if !relaxed {
                    // R's hash reads race S's writes on the shared table.
                    t = t.locked(HASH_LOCK);
                }
                sim.add(t)
            })
            .collect();

        // --- K subtasks: gather this hop's new nodes ---
        let k_ids: Vec<usize> = chunk(hop.feature_bytes, cores)
            .into_iter()
            .enumerate()
            .map(|(c, share)| {
                sim.add(
                    TaskSpec::new(
                        format!("K{} c{}", k + 1, c),
                        Resource::HostCore,
                        copy_us(share, sys),
                        Phase::Lookup,
                    )
                    .after(&s_ids)
                    .items(hop.nodes_added / cores.max(1) as u64),
                )
            })
            .collect();
        kt_groups.push((k_ids, hop.feature_bytes, hop.nodes_added));

        last_s = s_ids.clone();
        prev_hop_done = s_ids;

        // Structure bytes are tiny next to embeddings; coalesce every
        // hop's CSR/CSC into one DMA to avoid paying setup per hop.
        structure_bytes += hop.structure_bytes;
        r_all.extend(&r_ids);
    }

    // --- T(R): one pinned transfer for all reindexed structures. ---
    if structure_bytes > 0 {
        sim.add(
            TaskSpec::new(
                "T(R)",
                Resource::Pcie,
                sys.pcie.transfer_us(structure_bytes, TransferKind::Pinned),
                Phase::Transfer,
            )
            .after(&r_all),
        );
    }

    // --- T(K): pipelined pinned transfers, one per hop's gathered buffer
    // (Fig 14b: each sampled embedding chunk is transferred as soon as it
    // is ready), gated by the memory-allocation barrier on the last S
    // (§V-B: "the scheduler sets a barrier before running T that waits for
    // S1's completion"). Buffers below the DMA-amortization threshold are
    // coalesced with the next hop's so setup latency never dominates.
    const MIN_TRANSFER_BYTES: u64 = 1 << 18;
    let mut pending_deps: Vec<usize> = Vec::new();
    let mut pending_bytes = 0u64;
    let mut pending_nodes = 0u64;
    let n_groups = kt_groups.len();
    for (i, (k_ids, bytes, nodes)) in kt_groups.into_iter().enumerate() {
        pending_deps.extend(k_ids);
        pending_bytes += bytes;
        pending_nodes += nodes;
        let last = i + 1 == n_groups;
        if pending_bytes >= MIN_TRANSFER_BYTES || (last && pending_bytes > 0) {
            let mut deps = std::mem::take(&mut pending_deps);
            deps.extend_from_slice(&last_s);
            sim.add(
                TaskSpec::new(
                    format!("T(K{i})"),
                    Resource::Pcie,
                    sys.pcie.transfer_us(pending_bytes, TransferKind::Pinned),
                    Phase::Transfer,
                )
                .after(&deps)
                .items(pending_nodes),
            );
            pending_bytes = 0;
            pending_nodes = 0;
        }
    }

    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepro::HopWork;

    fn work() -> PreproWork {
        let hop = |alg: u64, hash: u64, nodes: u64, edges: u64| HopWork {
            sample_alg_ops: alg,
            sample_hash_ops: hash,
            reindex_ops: 4 * edges,
            nodes_added: nodes,
            edges,
            structure_bytes: edges * 16,
            feature_bytes: nodes * 512,
        };
        PreproWork {
            hops: vec![
                hop(40_000, 10_000, 3_000, 5_000),
                hop(160_000, 40_000, 12_000, 20_000),
            ],
            batch_nodes: 300,
            batch_feature_bytes: 300 * 512,
            total_nodes: 15_300,
            total_feature_bytes: 15_300 * 512,
        }
    }

    fn sys() -> SystemSpec {
        SystemSpec::paper_testbed()
    }

    #[test]
    fn pipelined_beats_serial() {
        let w = work();
        let serial = schedule_prepro(&w, &sys(), PreproStrategy::Serial);
        let relaxed = schedule_prepro(&w, &sys(), PreproStrategy::PipelinedRelaxed);
        assert!(
            relaxed.makespan_us < serial.makespan_us,
            "pipelined {} !< serial {}",
            relaxed.makespan_us,
            serial.makespan_us
        );
    }

    #[test]
    fn relaxing_beats_naive_locking() {
        let w = work();
        let naive = schedule_prepro(&w, &sys(), PreproStrategy::Pipelined);
        let relaxed = schedule_prepro(&w, &sys(), PreproStrategy::PipelinedRelaxed);
        assert!(
            relaxed.makespan_us < naive.makespan_us,
            "relaxed {} !< naive {}",
            relaxed.makespan_us,
            naive.makespan_us
        );
        assert!(naive.total_lock_wait_us() > relaxed.total_lock_wait_us());
    }

    #[test]
    fn pinned_serial_beats_pageable_serial() {
        let w = work();
        let pageable = schedule_prepro(&w, &sys(), PreproStrategy::Serial);
        let pinned = schedule_prepro(&w, &sys(), PreproStrategy::SerialPinned);
        assert!(pinned.makespan_us < pageable.makespan_us);
    }

    #[test]
    fn serial_stage_order_is_strict() {
        let w = work();
        let s = schedule_prepro(&w, &sys(), PreproStrategy::Serial);
        let s_end = s.phase_finish_us(Phase::Sampling);
        let r_start = s
            .events
            .iter()
            .filter(|e| e.phase == Phase::Reindex)
            .map(|e| e.start_us)
            .fold(f64::INFINITY, f64::min);
        assert!(r_start >= s_end - 1e-9);
        let k_end = s.phase_finish_us(Phase::Lookup);
        let t_start = s
            .events
            .iter()
            .filter(|e| e.phase == Phase::Transfer)
            .map(|e| e.start_us)
            .fold(f64::INFINITY, f64::min);
        assert!(t_start >= k_end - 1e-9);
    }

    #[test]
    fn pipelined_overlaps_lookup_with_sampling() {
        let w = work();
        let s = schedule_prepro(&w, &sys(), PreproStrategy::PipelinedRelaxed);
        let s_end = s.phase_finish_us(Phase::Sampling);
        let k_start = s
            .events
            .iter()
            .filter(|e| e.phase == Phase::Lookup)
            .map(|e| e.start_us)
            .fold(f64::INFINITY, f64::min);
        assert!(
            k_start < s_end,
            "lookup should start ({k_start}) before sampling finishes ({s_end})"
        );
    }

    #[test]
    fn all_strategies_do_the_same_transfer_bytes() {
        // The schedules move the same data; only placement differs. Busy
        // PCIe time may differ (pinned vs pageable, chunk setup), but every
        // strategy must transfer features + structures.
        let w = work();
        for strat in [
            PreproStrategy::Serial,
            PreproStrategy::SerialPinned,
            PreproStrategy::Pipelined,
            PreproStrategy::PipelinedRelaxed,
        ] {
            let s = schedule_prepro(&w, &sys(), strat);
            assert!(s.phase_busy_us(Phase::Transfer) > 0.0, "{strat:?}");
            assert!(s.makespan_us > 0.0);
        }
    }

    #[test]
    fn empty_faults_match_plain_schedule_bitwise() {
        let w = work();
        for strat in [
            PreproStrategy::Serial,
            PreproStrategy::Pipelined,
            PreproStrategy::PipelinedRelaxed,
        ] {
            let plain = schedule_prepro(&w, &sys(), strat);
            let faulted = schedule_prepro_with_faults(&w, &sys(), strat, &ActiveFaults::none());
            assert_eq!(
                plain.makespan_us.to_bits(),
                faulted.makespan_us.to_bits(),
                "{strat:?}"
            );
            assert_eq!(plain.events.len(), faulted.events.len());
            for (a, b) in plain.events.iter().zip(&faulted.events) {
                assert_eq!(a.start_us.to_bits(), b.start_us.to_bits());
                assert_eq!(a.end_us.to_bits(), b.end_us.to_bits());
            }
            assert!(!faulted.has_failures());
        }
    }

    #[test]
    fn injected_faults_perturb_and_mark_the_schedule() {
        let w = work();
        let plain = schedule_prepro(&w, &sys(), PreproStrategy::PipelinedRelaxed);
        let stalled = schedule_prepro_with_faults(
            &w,
            &sys(),
            PreproStrategy::PipelinedRelaxed,
            &gt_sim::FaultPlan::new(7)
                .with_transfer_stall(4.0, 1.0)
                .active(0, 0),
        );
        assert!(stalled.makespan_us > plain.makespan_us);
        assert!(!stalled.has_failures());

        let failed = schedule_prepro_with_faults(
            &w,
            &sys(),
            PreproStrategy::PipelinedRelaxed,
            &gt_sim::FaultPlan::new(7)
                .with_transfer_failure(1.0)
                .active(0, 0),
        );
        assert!(failed.has_failures());
    }

    #[test]
    fn empty_hops_do_not_panic() {
        let w = PreproWork {
            hops: vec![],
            batch_nodes: 10,
            batch_feature_bytes: 1000,
            total_nodes: 10,
            total_feature_bytes: 1000,
        };
        for strat in [PreproStrategy::Serial, PreproStrategy::PipelinedRelaxed] {
            let s = schedule_prepro(&w, &sys(), strat);
            assert!(s.makespan_us >= 0.0);
        }
    }
}
