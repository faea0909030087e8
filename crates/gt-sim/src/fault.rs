//! Deterministic, seedable fault injection for the DES engine.
//!
//! Production GNN serving must survive stragglers, transfer stalls, memory
//! pressure, and contended hash tables (NeutronTP identifies load imbalance
//! as the dominant failure mode of GNN pipelines at scale). This module
//! models those faults *inside the simulated timeline*: a [`FaultPlan`]
//! holds seeded rules, and [`FaultPlan::active`] resolves which faults fire
//! for a given (batch, attempt) pair — a pure function of the plan seed, so
//! a run is exactly reproducible and a retry of the same batch re-rolls
//! only the transient rules.
//!
//! The DES engine consumes an [`ActiveFaults`] set via
//! [`Simulator::run_with_faults`](crate::des::Simulator::run_with_faults);
//! memory-pressure faults are consumed by the serving layer when it sizes
//! the device memory tracker. An empty set takes the exact `run()` code
//! path, so fault-free schedules are bit-identical to unsupervised ones.

use gt_telemetry::splitmix64;

/// One kind of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// PCIe transfers take `factor`× longer (congested/downtrained link).
    TransferStall { factor: f64 },
    /// The batch's DMA fails outright; every PCIe task in the schedule is
    /// recorded as failed and the serving layer must retry the batch.
    TransferFailure,
    /// Host core `core` runs `factor`× slower (thermal throttling, noisy
    /// neighbor). Tasks placed on that core stretch; others are untouched.
    StragglerCore { core: usize, factor: f64 },
    /// Device memory capacity is reduced to `fraction` of nominal, forcing
    /// OOM on batches that would otherwise fit.
    MemoryPressure { fraction: f64 },
    /// Tasks holding a lock group take `factor`× longer (VID hash-table
    /// contention spike, Fig 14).
    HashContention { factor: f64 },
    /// The serving layer stalls for `extra_us` of virtual time on top of the
    /// batch's modeled latency (GC pause, co-tenant CPU steal, slow RPC
    /// downstream). Consumed by the overload controller's admission clock,
    /// not the DES — the preprocessing schedule itself is untouched.
    ServeDelay { extra_us: f64 },
    /// The serving process dies at `site` while handling the batch.
    /// Consumed by the durability layer (`gt-core::serve`), which simulates
    /// the death by leaving exactly the on-disk state a real crash at that
    /// point would leave (torn journal record, torn checkpoint temp file)
    /// and surfacing a typed error. Inert in the DES.
    Crash { site: CrashSite },
    /// A storage-level fault hits the next `target` operation while the
    /// batch is served: a torn write, a short read, ENOSPC, or a single-bit
    /// flip of the in-flight bytes. Consumed by the durability layer, which
    /// arms the `gt-tensor` chaos IO shim for the batch; inert in the DES.
    Io { target: IoTarget, fault: IoFault },
    /// The batch's request is delivered `slots` positions later than it was
    /// submitted (delayed delivery / reordering in the ingestion path).
    /// Consumed by the chaos campaign driver, which derives the actual
    /// delivery order from these rules before serving; inert everywhere
    /// else — the *workload order* changes, not the pipeline's behavior.
    DeliveryDelay { slots: u32 },
    /// Cluster worker `worker` dies before processing the batch: its
    /// in-memory state is lost and a survivor must adopt its partition by
    /// re-replaying the journal. Consumed by the cluster supervisor
    /// (`gt-core::cluster`); inert in the single-node DES and serving
    /// layers. Worker indices are taken modulo the actual worker count.
    WorkerKill { worker: usize },
    /// Worker `worker`'s network link runs `factor`× slower. A ring
    /// collective moves at the pace of its slowest link, so one degraded
    /// worker stretches every collective it participates in. Consumed by
    /// the cluster supervisor; inert elsewhere.
    LinkDegrade { worker: usize, factor: f64 },
    /// Worker `worker`'s next `beats` heartbeats are dropped in flight
    /// (the worker is healthy — the network ate the beats). Exercises the
    /// phi-style failure detector's false-suspicion path: a long enough
    /// gap raises phi past the threshold without any worker actually
    /// dying. Consumed by the cluster supervisor; inert elsewhere.
    HeartbeatDrop { worker: usize, beats: u32 },
}

/// Which durable artifact an injected [`IoFault`] targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoTarget {
    /// The parameter checkpoint (staging writes, loads).
    Checkpoint,
    /// The write-ahead outcome journal (appends, recovery reads).
    Journal,
}

impl IoTarget {
    /// Stable kebab-case label used in telemetry events and plan JSON.
    pub fn label(&self) -> &'static str {
        match self {
            IoTarget::Checkpoint => "checkpoint",
            IoTarget::Journal => "journal",
        }
    }

    /// Parse an [`IoTarget::label`] back (plan JSON / CLI parsing).
    pub fn parse(s: &str) -> Option<IoTarget> {
        match s {
            "checkpoint" => Some(IoTarget::Checkpoint),
            "journal" => Some(IoTarget::Journal),
            _ => None,
        }
    }
}

/// One storage-level fault kind (see [`FaultKind::Io`]).
///
/// All four are *recoverable or detectable* by design: torn writes and
/// ENOSPC surface as errors whose on-disk residue recovery repairs; a short
/// read is caught by length validation and retried; a bit flip of in-flight
/// bytes is caught by the CRC framing — either truncated away as a torn
/// tail (and the unacknowledged batch re-served) or surfaced as typed
/// corruption. What must never happen is a silent wrong answer; the chaos
/// oracle (docs/fault_model.md §Chaos campaigns) asserts exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// The write persists only a prefix of the bytes, then fails — the
    /// kernel-level torn write a power cut mid-`write(2)` leaves.
    TornWrite,
    /// The next read returns fewer bytes than the file holds (interrupted
    /// syscall, flaky NFS). Callers must validate lengths, not trust EOF.
    ShortRead,
    /// The write fails outright with "no space left on device", persisting
    /// nothing.
    Enospc,
    /// Bit `bit` (mod the buffer's bit width) of the in-flight bytes is
    /// flipped before they hit disk; the write itself reports success —
    /// the firmware lied. Detection is the CRC framing's job.
    BitFlip { bit: u32 },
}

impl IoFault {
    /// Stable kebab-case label used in telemetry events and plan JSON.
    pub fn label(&self) -> &'static str {
        match self {
            IoFault::TornWrite => "torn-write",
            IoFault::ShortRead => "short-read",
            IoFault::Enospc => "enospc",
            IoFault::BitFlip { .. } => "bit-flip",
        }
    }
}

/// Where, within one served batch's durability protocol, an injected crash
/// kills the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// Mid-append to the outcome journal: a torn, half-written record is
    /// left at the tail.
    MidJournal,
    /// Mid-checkpoint save: a torn temporary file is left next to the (still
    /// intact) previous checkpoint.
    MidCheckpoint,
    /// After the batch fully committed (journal appended, checkpoint
    /// renamed) but before the caller saw the report.
    AfterCommit,
}

impl CrashSite {
    /// Stable kebab-case label used in telemetry events and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            CrashSite::MidJournal => "mid-journal",
            CrashSite::MidCheckpoint => "mid-checkpoint",
            CrashSite::AfterCommit => "after-commit",
        }
    }

    /// Parse a [`CrashSite::label`] back (CLI flag parsing).
    pub fn parse(s: &str) -> Option<CrashSite> {
        match s {
            "mid-journal" => Some(CrashSite::MidJournal),
            "mid-checkpoint" => Some(CrashSite::MidCheckpoint),
            "after-commit" => Some(CrashSite::AfterCommit),
            _ => None,
        }
    }
}

/// A seeded rule: which batches a fault applies to and how often it fires.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    pub kind: FaultKind,
    /// Probability the fault fires for a given batch (1.0 = always).
    pub probability: f64,
    /// First batch index the rule applies to.
    pub from_batch: usize,
    /// One-past-last batch index (`None` = open-ended).
    pub until_batch: Option<usize>,
    /// Transient rules re-roll on every retry attempt (a retried batch
    /// usually clears them); persistent rules roll once per batch, so every
    /// attempt of an afflicted batch sees the same fault.
    pub transient: bool,
}

/// A deterministic, seedable collection of fault rules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan: no faults ever fire.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// True when the plan has no rules (the fault-free fast path).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Number of rules in the plan.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Add an arbitrary rule.
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Transient transfer failure with probability `p` per attempt.
    pub fn with_transfer_failure(self, p: f64) -> Self {
        self.with_rule(FaultRule {
            kind: FaultKind::TransferFailure,
            probability: p,
            from_batch: 0,
            until_batch: None,
            transient: true,
        })
    }

    /// Transient PCIe slowdown by `factor` with probability `p` per attempt.
    pub fn with_transfer_stall(self, factor: f64, p: f64) -> Self {
        assert!(factor >= 1.0, "stall factor must be >= 1");
        self.with_rule(FaultRule {
            kind: FaultKind::TransferStall { factor },
            probability: p,
            from_batch: 0,
            until_batch: None,
            transient: true,
        })
    }

    /// Persistent straggler: host core `core` always runs `factor`× slower.
    pub fn with_straggler(self, core: usize, factor: f64) -> Self {
        assert!(factor >= 1.0, "straggler factor must be >= 1");
        self.with_rule(FaultRule {
            kind: FaultKind::StragglerCore { core, factor },
            probability: 1.0,
            from_batch: 0,
            until_batch: None,
            transient: false,
        })
    }

    /// Memory pressure for batches in `[from, until)`: capacity is reduced
    /// to `fraction` of nominal for every attempt of those batches.
    pub fn with_memory_pressure(self, fraction: f64, from: usize, until: Option<usize>) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "memory fraction must be in (0, 1]"
        );
        self.with_rule(FaultRule {
            kind: FaultKind::MemoryPressure { fraction },
            probability: 1.0,
            from_batch: from,
            until_batch: until,
            transient: false,
        })
    }

    /// Transient memory pressure: capacity drops to `fraction` with
    /// probability `p`, re-rolled on each retry (co-tenant burst).
    pub fn with_transient_memory_pressure(self, fraction: f64, p: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "memory fraction must be in (0, 1]"
        );
        self.with_rule(FaultRule {
            kind: FaultKind::MemoryPressure { fraction },
            probability: p,
            from_batch: 0,
            until_batch: None,
            transient: true,
        })
    }

    /// Persistent serving stall over batches `[from, until)` — the sustained
    /// slowdown that backs an admission queue up.
    pub fn with_serve_delay_window(self, extra_us: f64, from: usize, until: Option<usize>) -> Self {
        assert!(extra_us >= 0.0, "stall must not be negative");
        self.with_rule(FaultRule {
            kind: FaultKind::ServeDelay { extra_us },
            probability: 1.0,
            from_batch: from,
            until_batch: until,
            transient: false,
        })
    }

    /// Kill the process at `site` while serving batch `batch` (fires exactly
    /// once: probability 1 over the one-batch window).
    pub fn with_crash_at(self, batch: usize, site: CrashSite) -> Self {
        self.with_rule(FaultRule {
            kind: FaultKind::Crash { site },
            probability: 1.0,
            from_batch: batch,
            until_batch: Some(batch + 1),
            transient: false,
        })
    }

    /// Inject a storage fault on the next `target` operation while serving
    /// batch `batch` (fires exactly once, like [`FaultPlan::with_crash_at`]).
    pub fn with_io_fault(self, batch: usize, target: IoTarget, fault: IoFault) -> Self {
        self.with_rule(FaultRule {
            kind: FaultKind::Io { target, fault },
            probability: 1.0,
            from_batch: batch,
            until_batch: Some(batch + 1),
            transient: false,
        })
    }

    /// Delay delivery of batch `batch` by `slots` positions in the
    /// submission stream (see [`FaultKind::DeliveryDelay`]).
    pub fn with_delivery_delay(self, batch: usize, slots: u32) -> Self {
        self.with_rule(FaultRule {
            kind: FaultKind::DeliveryDelay { slots },
            probability: 1.0,
            from_batch: batch,
            until_batch: Some(batch + 1),
            transient: false,
        })
    }

    /// Kill cluster worker `worker` while batch `batch` is in flight
    /// (fires exactly once, like [`FaultPlan::with_crash_at`]).
    pub fn with_worker_kill(self, batch: usize, worker: usize) -> Self {
        self.with_rule(FaultRule {
            kind: FaultKind::WorkerKill { worker },
            probability: 1.0,
            from_batch: batch,
            until_batch: Some(batch + 1),
            transient: false,
        })
    }

    /// Persistent network-link degradation on worker `worker` by `factor`
    /// over batches `[from, until)`.
    pub fn with_link_degrade(
        self,
        worker: usize,
        factor: f64,
        from: usize,
        until: Option<usize>,
    ) -> Self {
        assert!(factor >= 1.0, "link degrade factor must be >= 1");
        self.with_rule(FaultRule {
            kind: FaultKind::LinkDegrade { worker, factor },
            probability: 1.0,
            from_batch: from,
            until_batch: until,
            transient: false,
        })
    }

    /// Drop the next `beats` heartbeats from worker `worker` while batch
    /// `batch` is in flight (fires exactly once).
    pub fn with_heartbeat_drop(self, batch: usize, worker: usize, beats: u32) -> Self {
        assert!(beats >= 1, "must drop at least one beat");
        self.with_rule(FaultRule {
            kind: FaultKind::HeartbeatDrop { worker, beats },
            probability: 1.0,
            from_batch: batch,
            until_batch: Some(batch + 1),
            transient: false,
        })
    }

    /// Transient hash-table contention spike by `factor` with probability `p`.
    pub fn with_contention_spike(self, factor: f64, p: f64) -> Self {
        assert!(factor >= 1.0, "contention factor must be >= 1");
        self.with_rule(FaultRule {
            kind: FaultKind::HashContention { factor },
            probability: p,
            from_batch: 0,
            until_batch: None,
            transient: true,
        })
    }

    /// The plan's seed (drives per-rule probability rolls).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Read access to the rules, in insertion order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// The same plan with every durability-layer rule (crashes, IO faults,
    /// worker kills) neutralized: the fault-free reference a chaos campaign
    /// compares recovered state against. Neutralized rules keep their slot
    /// with an empty batch window instead of being removed, so the
    /// probability rolls of every *other* rule — which hash the rule's
    /// index — are bit-identical with and without the durability faults.
    /// Workload-shaping rules (stalls, memory pressure, delivery delays,
    /// link degradation, heartbeat drops) survive: they are part of the
    /// workload, not of the crash surface under test.
    pub fn without_durability_rules(&self) -> FaultPlan {
        let rules = self
            .rules
            .iter()
            .map(|r| match r.kind {
                FaultKind::Crash { .. } | FaultKind::Io { .. } | FaultKind::WorkerKill { .. } => {
                    FaultRule {
                        from_batch: 0,
                        until_batch: Some(0),
                        ..r.clone()
                    }
                }
                _ => r.clone(),
            })
            .collect();
        FaultPlan {
            seed: self.seed,
            rules,
        }
    }

    /// Count of durability-layer rules (crashes, IO faults, worker kills)
    /// with a non-empty window — the bound a chaos campaign's
    /// recovery-cycle budget is derived from.
    pub fn durability_rule_count(&self) -> usize {
        self.rules
            .iter()
            .filter(|r| {
                matches!(
                    r.kind,
                    FaultKind::Crash { .. } | FaultKind::Io { .. } | FaultKind::WorkerKill { .. }
                ) && r.until_batch != Some(r.from_batch)
            })
            .count()
    }

    /// Resolve the faults that fire for `(batch, attempt)`.
    ///
    /// Deterministic: the roll for rule `i` hashes `(seed, batch, i)` — plus
    /// `attempt` for transient rules — through splitmix64, so two runs with
    /// the same plan see identical faults, and persistent faults afflict
    /// every retry of a batch identically.
    pub fn active(&self, batch: usize, attempt: usize) -> ActiveFaults {
        let mut faults = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            if batch < rule.from_batch {
                continue;
            }
            if let Some(until) = rule.until_batch {
                if batch >= until {
                    continue;
                }
            }
            let roll_attempt = if rule.transient { attempt } else { 0 };
            if roll(self.seed, batch, roll_attempt, i) < rule.probability {
                faults.push(rule.kind);
            }
        }
        ActiveFaults { faults }
    }
}

/// The faults that fire for one (batch, attempt) — what the DES engine and
/// the serving layer actually consume.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActiveFaults {
    pub faults: Vec<FaultKind>,
}

impl ActiveFaults {
    /// No faults: the DES takes the exact unsupervised code path.
    pub fn none() -> Self {
        ActiveFaults::default()
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Combined PCIe slowdown factor, if any stall is active.
    pub fn pcie_slowdown(&self) -> Option<f64> {
        let f: f64 = self
            .faults
            .iter()
            .filter_map(|k| match k {
                FaultKind::TransferStall { factor } => Some(*factor),
                _ => None,
            })
            .product();
        if f == 1.0 {
            None
        } else {
            Some(f)
        }
    }

    /// Combined slowdown for tasks holding a lock group, if any.
    pub fn lock_slowdown(&self) -> Option<f64> {
        let f: f64 = self
            .faults
            .iter()
            .filter_map(|k| match k {
                FaultKind::HashContention { factor } => Some(*factor),
                _ => None,
            })
            .product();
        if f == 1.0 {
            None
        } else {
            Some(f)
        }
    }

    /// Slowdown for host core `core`, if a straggler fault targets it.
    pub fn straggler(&self, core: usize) -> Option<f64> {
        let f: f64 = self
            .faults
            .iter()
            .filter_map(|k| match k {
                FaultKind::StragglerCore { core: c, factor } if *c == core => Some(*factor),
                _ => None,
            })
            .product();
        if f == 1.0 {
            None
        } else {
            Some(f)
        }
    }

    /// True when a transfer failure is active.
    pub fn fails_transfers(&self) -> bool {
        self.faults
            .iter()
            .any(|k| matches!(k, FaultKind::TransferFailure))
    }

    /// Tightest device-memory capacity fraction, if memory pressure is
    /// active.
    pub fn memory_fraction(&self) -> Option<f64> {
        self.faults
            .iter()
            .filter_map(|k| match k {
                FaultKind::MemoryPressure { fraction } => Some(*fraction),
                _ => None,
            })
            .fold(None, |acc, f| Some(acc.map_or(f, |a: f64| a.min(f))))
    }

    /// Total serving-layer stall in virtual microseconds, if any
    /// [`FaultKind::ServeDelay`] is active (stalls add up: a GC pause and a
    /// slow downstream compound).
    pub fn serve_delay_us(&self) -> Option<f64> {
        let total: f64 = self
            .faults
            .iter()
            .filter_map(|k| match k {
                FaultKind::ServeDelay { extra_us } => Some(*extra_us),
                _ => None,
            })
            .sum();
        if total == 0.0 {
            None
        } else {
            Some(total)
        }
    }

    /// The injected crash site for this batch, if a [`FaultKind::Crash`] is
    /// active (first rule wins when several are configured).
    pub fn crash_site(&self) -> Option<CrashSite> {
        self.faults.iter().find_map(|k| match k {
            FaultKind::Crash { site } => Some(*site),
            _ => None,
        })
    }

    /// The storage faults armed for this batch, in rule order — what the
    /// durability layer hands to the `gt-tensor` chaos IO shim.
    pub fn io_faults(&self) -> Vec<(IoTarget, IoFault)> {
        self.faults
            .iter()
            .filter_map(|k| match k {
                FaultKind::Io { target, fault } => Some((*target, *fault)),
                _ => None,
            })
            .collect()
    }

    /// Cluster workers killed while this batch is in flight, in rule order
    /// (raw indices — the cluster layer maps them modulo its worker count).
    pub fn worker_kills(&self) -> Vec<usize> {
        self.faults
            .iter()
            .filter_map(|k| match k {
                FaultKind::WorkerKill { worker } => Some(*worker),
                _ => None,
            })
            .collect()
    }

    /// Combined network-link slowdown for worker `worker`, if any
    /// [`FaultKind::LinkDegrade`] targets it (factors compound).
    pub fn link_degrade(&self, worker: usize) -> Option<f64> {
        let f: f64 = self
            .faults
            .iter()
            .filter_map(|k| match k {
                FaultKind::LinkDegrade { worker: w, factor } if *w == worker => Some(*factor),
                _ => None,
            })
            .product();
        if f == 1.0 {
            None
        } else {
            Some(f)
        }
    }

    /// Total heartbeats dropped from worker `worker` for this batch.
    pub fn heartbeat_drops(&self, worker: usize) -> u32 {
        self.faults
            .iter()
            .filter_map(|k| match k {
                FaultKind::HeartbeatDrop { worker: w, beats } if *w == worker => Some(*beats),
                _ => None,
            })
            .sum()
    }

    /// Total delivery delay for this batch in stream slots, if any
    /// [`FaultKind::DeliveryDelay`] is active (delays compound).
    pub fn delivery_delay(&self) -> Option<usize> {
        let total: u32 = self
            .faults
            .iter()
            .filter_map(|k| match k {
                FaultKind::DeliveryDelay { slots } => Some(*slots),
                _ => None,
            })
            .sum();
        if total == 0 {
            None
        } else {
            Some(total as usize)
        }
    }

    /// The subset of faults the DES engine consumes. Serving-layer faults
    /// (crashes, serve stalls, storage faults, delivery delays) and
    /// cluster-layer faults (worker kills, link degradation, heartbeat
    /// drops) are filtered out so a plan that only injects them still
    /// drives the DES down the exact fault-free code path — preserving the
    /// bit-identity the recovery protocol replays against.
    pub fn des_relevant(&self) -> ActiveFaults {
        ActiveFaults {
            faults: self
                .faults
                .iter()
                .copied()
                .filter(|k| {
                    !matches!(
                        k,
                        FaultKind::ServeDelay { .. }
                            | FaultKind::Crash { .. }
                            | FaultKind::Io { .. }
                            | FaultKind::DeliveryDelay { .. }
                            | FaultKind::WorkerKill { .. }
                            | FaultKind::LinkDegrade { .. }
                            | FaultKind::HeartbeatDrop { .. }
                    )
                })
                .collect(),
        }
    }

    /// True when any fault stretches DES task durations (the schedule
    /// differs from the fault-free one).
    pub fn perturbs_schedule(&self) -> bool {
        self.faults.iter().any(|k| {
            matches!(
                k,
                FaultKind::TransferStall { .. }
                    | FaultKind::StragglerCore { .. }
                    | FaultKind::HashContention { .. }
                    | FaultKind::TransferFailure
            )
        })
    }
}

/// Deterministic roll in `[0, 1)` for `(seed, batch, attempt, rule)`.
fn roll(seed: u64, batch: usize, attempt: usize, rule: usize) -> f64 {
    let mut h = splitmix64(seed);
    h = splitmix64(h ^ (batch as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    h = splitmix64(h ^ (attempt as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    h = splitmix64(h ^ (rule as u64).wrapping_mul(0x94d0_49bb_1331_11eb));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_fires_nothing() {
        let plan = FaultPlan::new(7);
        assert!(plan.is_empty());
        for b in 0..100 {
            assert!(plan.active(b, 0).is_empty());
        }
    }

    /// Callers consult `active` unconditionally (no `is_empty` guard): over
    /// zero rules it must be free and every accessor must say "nothing".
    #[test]
    fn empty_plan_active_is_empty_and_allocation_free() {
        let plan = FaultPlan::new(7);
        for (b, a) in [(0, 0), (3, 2), (99, 0)] {
            let active = plan.active(b, a);
            assert!(active.is_empty());
            assert_eq!(active.faults.capacity(), 0, "must not allocate");
            assert!(active.des_relevant().is_empty());
            assert_eq!(active.serve_delay_us(), None);
            assert_eq!(active.crash_site(), None);
        }
    }

    #[test]
    fn active_is_deterministic() {
        let plan = FaultPlan::new(42)
            .with_transfer_failure(0.3)
            .with_contention_spike(4.0, 0.5)
            .with_straggler(1, 8.0);
        for b in 0..50 {
            for a in 0..3 {
                assert_eq!(plan.active(b, a), plan.active(b, a));
            }
        }
    }

    #[test]
    fn probability_bounds() {
        let always = FaultPlan::new(1).with_transfer_failure(1.0);
        let never = FaultPlan::new(1).with_transfer_failure(0.0);
        for b in 0..50 {
            assert!(always.active(b, 0).fails_transfers());
            assert!(!never.active(b, 0).fails_transfers());
        }
    }

    #[test]
    fn probability_is_roughly_respected() {
        let plan = FaultPlan::new(9).with_transfer_failure(0.25);
        let fired = (0..2000)
            .filter(|&b| plan.active(b, 0).fails_transfers())
            .count();
        let frac = fired as f64 / 2000.0;
        assert!((frac - 0.25).abs() < 0.05, "observed {frac}");
    }

    #[test]
    fn transient_rules_reroll_per_attempt_persistent_do_not() {
        let plan = FaultPlan::new(3)
            .with_transfer_failure(0.5)
            .with_straggler(0, 2.0);
        // Persistent straggler identical across attempts for every batch.
        for b in 0..30 {
            let s0 = plan.active(b, 0).straggler(0);
            for a in 1..4 {
                assert_eq!(plan.active(b, a).straggler(0), s0);
            }
        }
        // Transient failure differs across attempts for at least one batch.
        let differs = (0..30)
            .any(|b| plan.active(b, 0).fails_transfers() != plan.active(b, 1).fails_transfers());
        assert!(differs, "transient rolls never changed across attempts");
    }

    #[test]
    fn batch_window_is_honored() {
        let plan = FaultPlan::new(0).with_memory_pressure(0.5, 3, Some(5));
        for b in 0..10 {
            let active = plan.active(b, 0).memory_fraction().is_some();
            assert_eq!(active, (3..5).contains(&b), "batch {b}");
        }
    }

    #[test]
    fn combined_factors_multiply() {
        let f = ActiveFaults {
            faults: vec![
                FaultKind::TransferStall { factor: 2.0 },
                FaultKind::TransferStall { factor: 3.0 },
                FaultKind::MemoryPressure { fraction: 0.5 },
                FaultKind::MemoryPressure { fraction: 0.25 },
            ],
        };
        assert_eq!(f.pcie_slowdown(), Some(6.0));
        assert_eq!(f.memory_fraction(), Some(0.25));
        assert_eq!(f.lock_slowdown(), None);
        assert!(!f.perturbs_schedule() || f.pcie_slowdown().is_some());
    }

    #[test]
    fn none_has_no_effects() {
        let f = ActiveFaults::none();
        assert!(f.is_empty());
        assert!(f.pcie_slowdown().is_none());
        assert!(f.lock_slowdown().is_none());
        assert!(f.straggler(0).is_none());
        assert!(f.memory_fraction().is_none());
        assert!(!f.fails_transfers());
        assert!(!f.perturbs_schedule());
        assert!(f.serve_delay_us().is_none());
        assert!(f.crash_site().is_none());
    }

    #[test]
    fn crash_fires_exactly_on_target_batch() {
        let plan = FaultPlan::new(5).with_crash_at(7, CrashSite::MidJournal);
        for b in 0..20 {
            let site = plan.active(b, 0).crash_site();
            if b == 7 {
                assert_eq!(site, Some(CrashSite::MidJournal));
                // Persistent: every retry attempt of the batch crashes too.
                assert_eq!(plan.active(b, 3).crash_site(), Some(CrashSite::MidJournal));
            } else {
                assert_eq!(site, None, "batch {b}");
            }
        }
    }

    #[test]
    fn serve_delays_accumulate() {
        let f = ActiveFaults {
            faults: vec![
                FaultKind::ServeDelay { extra_us: 150.0 },
                FaultKind::ServeDelay { extra_us: 50.0 },
            ],
        };
        assert_eq!(f.serve_delay_us(), Some(200.0));
        let windowed = FaultPlan::new(0).with_serve_delay_window(300.0, 2, Some(4));
        for b in 0..6 {
            let expect = (2..4).contains(&b).then_some(300.0);
            assert_eq!(windowed.active(b, 0).serve_delay_us(), expect, "batch {b}");
        }
    }

    #[test]
    fn serving_faults_are_invisible_to_the_des() {
        let f = ActiveFaults {
            faults: vec![
                FaultKind::ServeDelay { extra_us: 99.0 },
                FaultKind::Crash {
                    site: CrashSite::AfterCommit,
                },
            ],
        };
        assert!(!f.perturbs_schedule());
        assert!(f.des_relevant().is_empty());

        let mixed = ActiveFaults {
            faults: vec![
                FaultKind::TransferStall { factor: 2.0 },
                FaultKind::Crash {
                    site: CrashSite::MidCheckpoint,
                },
            ],
        };
        let des = mixed.des_relevant();
        assert_eq!(des.faults, vec![FaultKind::TransferStall { factor: 2.0 }]);
        assert_eq!(mixed.crash_site(), Some(CrashSite::MidCheckpoint));
    }

    #[test]
    fn io_faults_and_delivery_delays_fire_on_target_batch_only() {
        let plan = FaultPlan::new(11)
            .with_io_fault(2, IoTarget::Journal, IoFault::TornWrite)
            .with_io_fault(2, IoTarget::Checkpoint, IoFault::BitFlip { bit: 9 })
            .with_delivery_delay(4, 3);
        for b in 0..8 {
            let active = plan.active(b, 0);
            if b == 2 {
                assert_eq!(
                    active.io_faults(),
                    vec![
                        (IoTarget::Journal, IoFault::TornWrite),
                        (IoTarget::Checkpoint, IoFault::BitFlip { bit: 9 }),
                    ]
                );
            } else {
                assert!(active.io_faults().is_empty(), "batch {b}");
            }
            assert_eq!(active.delivery_delay(), (b == 4).then_some(3), "batch {b}");
            // Storage and delivery faults never reach the DES or stretch
            // the schedule — the trainer must stay on the fault-free path.
            assert!(active.des_relevant().io_faults().is_empty());
            assert!(!active.perturbs_schedule() || b == usize::MAX);
        }
    }

    /// Stripping durability rules must not move the probability rolls of
    /// the surviving rules: rolls hash the rule *index*, so neutralized
    /// rules keep their slot (empty window) instead of being removed.
    #[test]
    fn without_durability_rules_preserves_other_rolls() {
        let plan = FaultPlan::new(21)
            .with_transfer_failure(0.5)
            .with_crash_at(3, CrashSite::MidJournal)
            .with_io_fault(5, IoTarget::Journal, IoFault::Enospc)
            .with_transient_memory_pressure(0.5, 0.4)
            .with_delivery_delay(2, 1);
        let stripped = plan.without_durability_rules();
        assert_eq!(stripped.len(), plan.len());
        assert_eq!(plan.durability_rule_count(), 2);
        assert_eq!(stripped.durability_rule_count(), 0);
        for b in 0..10 {
            for a in 0..3 {
                let full = plan.active(b, a);
                let bare = stripped.active(b, a);
                assert!(bare.crash_site().is_none());
                assert!(bare.io_faults().is_empty());
                assert_eq!(full.fails_transfers(), bare.fails_transfers());
                assert_eq!(full.memory_fraction(), bare.memory_fraction());
                assert_eq!(full.delivery_delay(), bare.delivery_delay());
            }
        }
    }

    #[test]
    fn cluster_faults_fire_on_window_and_stay_out_of_the_des() {
        let plan = FaultPlan::new(13)
            .with_worker_kill(3, 1)
            .with_link_degrade(2, 4.0, 1, Some(5))
            .with_heartbeat_drop(2, 0, 3);
        for b in 0..8 {
            let active = plan.active(b, 0);
            assert_eq!(
                active.worker_kills(),
                if b == 3 { vec![1] } else { vec![] },
                "batch {b}"
            );
            assert_eq!(
                active.link_degrade(2),
                (1..5).contains(&b).then_some(4.0),
                "batch {b}"
            );
            assert_eq!(active.link_degrade(0), None);
            assert_eq!(active.heartbeat_drops(0), if b == 2 { 3 } else { 0 });
            assert_eq!(active.heartbeat_drops(1), 0);
            // Cluster faults never reach the single-node DES or serving
            // layers: the inner supervisor stays on the fault-free path.
            assert!(active.des_relevant().is_empty(), "batch {b}");
            assert!(!active.perturbs_schedule());
            assert!(active.crash_site().is_none());
        }
    }

    #[test]
    fn link_degrade_factors_compound() {
        let f = ActiveFaults {
            faults: vec![
                FaultKind::LinkDegrade {
                    worker: 1,
                    factor: 2.0,
                },
                FaultKind::LinkDegrade {
                    worker: 1,
                    factor: 3.0,
                },
                FaultKind::HeartbeatDrop {
                    worker: 1,
                    beats: 2,
                },
                FaultKind::HeartbeatDrop {
                    worker: 1,
                    beats: 1,
                },
            ],
        };
        assert_eq!(f.link_degrade(1), Some(6.0));
        assert_eq!(f.heartbeat_drops(1), 3);
    }

    #[test]
    fn worker_kill_counts_as_a_durability_rule() {
        let plan = FaultPlan::new(8)
            .with_worker_kill(4, 2)
            .with_link_degrade(0, 2.0, 0, None)
            .with_heartbeat_drop(1, 1, 2);
        assert_eq!(plan.durability_rule_count(), 1);
        let stripped = plan.without_durability_rules();
        assert_eq!(stripped.durability_rule_count(), 0);
        for b in 0..8 {
            let bare = stripped.active(b, 0);
            assert!(bare.worker_kills().is_empty(), "batch {b}");
            // Workload-shaping cluster rules survive the strip.
            assert_eq!(bare.link_degrade(0), plan.active(b, 0).link_degrade(0));
            assert_eq!(
                bare.heartbeat_drops(1),
                plan.active(b, 0).heartbeat_drops(1)
            );
        }
    }

    #[test]
    fn io_target_labels_round_trip() {
        for t in [IoTarget::Checkpoint, IoTarget::Journal] {
            assert_eq!(IoTarget::parse(t.label()), Some(t));
        }
        assert_eq!(IoTarget::parse("floppy"), None);
        for f in [
            IoFault::TornWrite,
            IoFault::ShortRead,
            IoFault::Enospc,
            IoFault::BitFlip { bit: 3 },
        ] {
            assert!(!f.label().is_empty());
        }
    }

    #[test]
    fn crash_site_labels_round_trip() {
        for site in [
            CrashSite::MidJournal,
            CrashSite::MidCheckpoint,
            CrashSite::AfterCommit,
        ] {
            assert_eq!(CrashSite::parse(site.label()), Some(site));
        }
        assert_eq!(CrashSite::parse("nonsense"), None);
    }
}
