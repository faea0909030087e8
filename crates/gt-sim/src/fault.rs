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
//! This module is the one place that says what each kind is:
//! [`FaultKind::reaches_trainer`] and [`FaultKind::kills_process`] classify
//! every kind, [`FaultKind::check`] bounds its parameters, and the
//! [`FaultRule`] constructors name the three firing patterns. The DES engine
//! consumes the trainer's share via
//! [`Simulator::run_with_faults`](crate::des::Simulator::run_with_faults);
//! memory-pressure faults are consumed by the serving layer when it sizes
//! the device memory tracker. An empty set takes the exact `run()` code
//! path, so fault-free schedules are bit-identical to unsupervised ones.

use gt_telemetry::splitmix64;
use std::iter::Sum;

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
}

impl FaultKind {
    /// True for the kinds the trainer's DES and memory tracker consume
    /// ([`ActiveFaults::des_relevant`]); every other kind is consumed by
    /// the serving, durability or campaign layer and leaves the
    /// trainer on its exact fault-free path.
    pub fn reaches_trainer(&self) -> bool {
        match self {
            FaultKind::TransferStall { .. }
            | FaultKind::TransferFailure
            | FaultKind::StragglerCore { .. }
            | FaultKind::MemoryPressure { .. }
            | FaultKind::HashContention { .. } => true,
            FaultKind::ServeDelay { .. }
            | FaultKind::Crash { .. }
            | FaultKind::Io { .. }
            | FaultKind::DeliveryDelay { .. } => false,
        }
    }

    /// True for the durability-layer kinds — the crash surface a chaos
    /// campaign tests recovery against ([`FaultPlan::without_durability_rules`]).
    /// Every other kind shapes the workload and survives in the reference.
    pub fn kills_process(&self) -> bool {
        match self {
            FaultKind::Crash { .. } | FaultKind::Io { .. } => true,
            FaultKind::TransferStall { .. }
            | FaultKind::TransferFailure
            | FaultKind::StragglerCore { .. }
            | FaultKind::MemoryPressure { .. }
            | FaultKind::HashContention { .. }
            | FaultKind::ServeDelay { .. }
            | FaultKind::DeliveryDelay { .. } => false,
        }
    }

    /// Range-check the kind's parameters: slowdown factors ≥ 1, memory
    /// fractions in (0, 1], serving stalls ≥ 0 µs. `Err` names the first
    /// violation.
    pub fn check(&self) -> Result<(), String> {
        let ok = match *self {
            FaultKind::TransferStall { factor }
            | FaultKind::StragglerCore { factor, .. }
            | FaultKind::HashContention { factor } => factor >= 1.0,
            FaultKind::MemoryPressure { fraction } => fraction > 0.0 && fraction <= 1.0,
            FaultKind::ServeDelay { extra_us } => extra_us >= 0.0,
            _ => true,
        };
        let bounds = "factor >= 1, fraction in (0, 1], extra_us >= 0";
        ok.then_some(())
            .ok_or_else(|| format!("{self:?} is out of range ({bounds})"))
    }
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

    /// Parse an [`IoFault::label`] back (plan JSON). The label does not
    /// carry a bit flip's index, so `"bit-flip"` parses as bit 0.
    pub fn parse(s: &str) -> Option<IoFault> {
        match s {
            "torn-write" => Some(IoFault::TornWrite),
            "short-read" => Some(IoFault::ShortRead),
            "enospc" => Some(IoFault::Enospc),
            "bit-flip" => Some(IoFault::BitFlip { bit: 0 }),
            _ => None,
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

impl FaultRule {
    /// Fires on every attempt of batch `batch` and no other.
    pub fn once(kind: FaultKind, batch: usize) -> Self {
        FaultRule::window(kind, batch, Some(batch + 1))
    }

    /// Fires on every attempt of every batch in `[from, until)`
    /// (persistent, probability 1; `None` = open-ended).
    pub fn window(kind: FaultKind, from: usize, until: Option<usize>) -> Self {
        FaultRule {
            kind,
            probability: 1.0,
            from_batch: from,
            until_batch: until,
            transient: false,
        }
    }

    /// Fires with probability `p` on every attempt of every batch,
    /// re-rolled on each retry.
    pub fn transient(kind: FaultKind, p: f64) -> Self {
        FaultRule {
            kind,
            probability: p,
            from_batch: 0,
            until_batch: None,
            transient: true,
        }
    }
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

    /// Add an arbitrary rule. Panics when its kind fails
    /// [`FaultKind::check`].
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        rule.kind.check().unwrap_or_else(|e| panic!("{e}"));
        self.rules.push(rule);
        self
    }

    /// Transient transfer failure with probability `p` per attempt.
    pub fn with_transfer_failure(self, p: f64) -> Self {
        self.with_rule(FaultRule::transient(FaultKind::TransferFailure, p))
    }

    /// Transient PCIe slowdown by `factor` with probability `p` per attempt.
    pub fn with_transfer_stall(self, factor: f64, p: f64) -> Self {
        self.with_rule(FaultRule::transient(FaultKind::TransferStall { factor }, p))
    }

    /// Persistent straggler: host core `core` always runs `factor`× slower.
    pub fn with_straggler(self, core: usize, factor: f64) -> Self {
        let kind = FaultKind::StragglerCore { core, factor };
        self.with_rule(FaultRule::window(kind, 0, None))
    }

    /// Transient memory pressure: capacity drops to `fraction` with
    /// probability `p`, re-rolled on each retry (co-tenant burst).
    pub fn with_transient_memory_pressure(self, fraction: f64, p: f64) -> Self {
        let kind = FaultKind::MemoryPressure { fraction };
        self.with_rule(FaultRule::transient(kind, p))
    }

    /// Persistent serving stall over batches `[from, until)` — the sustained
    /// slowdown that backs an admission queue up.
    pub fn with_serve_delay_window(self, extra_us: f64, from: usize, until: Option<usize>) -> Self {
        let kind = FaultKind::ServeDelay { extra_us };
        self.with_rule(FaultRule::window(kind, from, until))
    }

    /// Kill the process at `site` while serving batch `batch` (fires exactly
    /// once: probability 1 over the one-batch window).
    pub fn with_crash_at(self, batch: usize, site: CrashSite) -> Self {
        self.with_rule(FaultRule::once(FaultKind::Crash { site }, batch))
    }

    /// Inject a storage fault on the next `target` operation while serving
    /// batch `batch` (fires exactly once, like [`FaultPlan::with_crash_at`]).
    pub fn with_io_fault(self, batch: usize, target: IoTarget, fault: IoFault) -> Self {
        self.with_rule(FaultRule::once(FaultKind::Io { target, fault }, batch))
    }

    /// Delay delivery of batch `batch` by `slots` positions in the
    /// submission stream (see [`FaultKind::DeliveryDelay`]).
    pub fn with_delivery_delay(self, batch: usize, slots: u32) -> Self {
        self.with_rule(FaultRule::once(FaultKind::DeliveryDelay { slots }, batch))
    }

    /// The plan's seed (drives per-rule probability rolls).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Read access to the rules, in insertion order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// The same plan with every [`FaultKind::kills_process`] rule
    /// neutralized: the fault-free reference a chaos campaign compares
    /// recovered state against. Neutralized rules keep their slot with an
    /// empty batch window instead of being removed, so the probability
    /// rolls of every *other* rule — which hash the rule's index — are
    /// bit-identical with and without the durability faults.
    pub fn without_durability_rules(&self) -> FaultPlan {
        let mut plan = self.clone();
        for r in plan.rules.iter_mut().filter(|r| r.kind.kills_process()) {
            (r.from_batch, r.until_batch) = (0, Some(0));
        }
        plan
    }

    /// Count of [`FaultKind::kills_process`] rules with a non-empty window
    /// — the bound a chaos campaign's recovery-cycle budget is derived from.
    pub fn durability_rule_count(&self) -> usize {
        let live = |r: &&FaultRule| r.kind.kills_process() && r.until_batch != Some(r.from_batch);
        self.rules.iter().filter(live).count()
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
            if batch < rule.from_batch || rule.until_batch.is_some_and(|u| batch >= u) {
                continue;
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

/// `|k| match *k { pattern => Some(value), _ => None }`: projects the one
/// kind an [`ActiveFaults`] accessor folds over.
macro_rules! pick {
    ($pat:pat $(if $guard:expr)? => $value:expr) => {
        |k: &FaultKind| match *k {
            $pat $(if $guard)? => Some($value),
            _ => None,
        }
    };
}

impl ActiveFaults {
    /// No faults: the DES takes the exact unsupervised code path.
    pub fn none() -> Self {
        ActiveFaults::default()
    }

    /// True when no fault fires.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The values `pick` projects out of the active faults, in rule order.
    fn values<'a, T>(
        &'a self,
        pick: impl Fn(&FaultKind) -> Option<T> + 'a,
    ) -> impl Iterator<Item = T> + 'a {
        self.faults.iter().filter_map(pick)
    }

    /// Compounded factor; `None` iff the product is exactly 1.
    fn product(&self, pick: impl Fn(&FaultKind) -> Option<f64>) -> Option<f64> {
        let f: f64 = self.values(pick).product();
        (f != 1.0).then_some(f)
    }

    /// Accumulated amount; `None` iff the sum is zero.
    fn sum<T: Sum + Default + PartialEq>(
        &self,
        pick: impl Fn(&FaultKind) -> Option<T>,
    ) -> Option<T> {
        let total: T = self.values(pick).sum();
        (total != T::default()).then_some(total)
    }

    /// Combined PCIe slowdown factor, if any stall is active.
    pub fn pcie_slowdown(&self) -> Option<f64> {
        self.product(pick!(FaultKind::TransferStall { factor } => factor))
    }

    /// Combined slowdown for tasks holding a lock group, if any.
    pub fn lock_slowdown(&self) -> Option<f64> {
        self.product(pick!(FaultKind::HashContention { factor } => factor))
    }

    /// Slowdown for host core `core`, if a straggler fault targets it.
    pub fn straggler(&self, core: usize) -> Option<f64> {
        self.product(pick!(FaultKind::StragglerCore { core: c, factor } if c == core => factor))
    }

    /// True when a transfer failure is active.
    pub fn fails_transfers(&self) -> bool {
        self.faults.contains(&FaultKind::TransferFailure)
    }

    /// Tightest device-memory capacity fraction, if memory pressure is
    /// active.
    pub fn memory_fraction(&self) -> Option<f64> {
        self.values(pick!(FaultKind::MemoryPressure { fraction } => fraction))
            .fold(None, |acc, f| Some(acc.map_or(f, |a: f64| a.min(f))))
    }

    /// Total serving-layer stall in virtual microseconds, if any
    /// [`FaultKind::ServeDelay`] is active (stalls add up: a GC pause and a
    /// slow downstream compound).
    pub fn serve_delay_us(&self) -> Option<f64> {
        self.sum(pick!(FaultKind::ServeDelay { extra_us } => extra_us))
    }

    /// The injected crash site for this batch, if a [`FaultKind::Crash`] is
    /// active (first rule wins when several are configured).
    pub fn crash_site(&self) -> Option<CrashSite> {
        self.values(pick!(FaultKind::Crash { site } => site)).next()
    }

    /// The storage faults armed for this batch, in rule order — what the
    /// durability layer hands to the `gt-tensor` chaos IO shim.
    pub fn io_faults(&self) -> Vec<(IoTarget, IoFault)> {
        self.values(pick!(FaultKind::Io { target, fault } => (target, fault)))
            .collect()
    }

    /// Total delivery delay for this batch in stream slots, if any
    /// [`FaultKind::DeliveryDelay`] is active (delays compound).
    pub fn delivery_delay(&self) -> Option<usize> {
        self.sum(pick!(FaultKind::DeliveryDelay { slots } => slots))
            .map(|s: u32| s as usize)
    }

    /// The [`FaultKind::reaches_trainer`] subset — what the DES engine
    /// consumes. A plan that only injects other kinds drives the DES down
    /// the exact fault-free code path, preserving the bit-identity the
    /// recovery protocol replays against.
    pub fn des_relevant(&self) -> ActiveFaults {
        let faults = self.values(|k| k.reaches_trainer().then_some(*k)).collect();
        ActiveFaults { faults }
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
            .with_rule(FaultRule::transient(
                FaultKind::HashContention { factor: 4.0 },
                0.5,
            ))
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
        let plan = FaultPlan::new(0).with_rule(FaultRule::window(
            FaultKind::MemoryPressure { fraction: 0.5 },
            3,
            Some(5),
        ));
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
        assert!(f.des_relevant().is_empty());
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
            assert!(active.des_relevant().is_empty());
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
    fn io_target_labels_round_trip() {
        for t in [IoTarget::Checkpoint, IoTarget::Journal] {
            assert_eq!(IoTarget::parse(t.label()), Some(t));
        }
        assert_eq!(IoTarget::parse("floppy"), None);
        for f in [
            IoFault::TornWrite,
            IoFault::ShortRead,
            IoFault::Enospc,
            IoFault::BitFlip { bit: 0 },
        ] {
            assert_eq!(IoFault::parse(f.label()), Some(f));
        }
        // The label names the kind, not the flipped bit.
        let flip = IoFault::BitFlip { bit: 3 }.label();
        assert_eq!(IoFault::parse(flip), Some(IoFault::BitFlip { bit: 0 }));
        assert_eq!(IoFault::parse("bit-rot"), None);
    }

    /// One of every kind, in declaration order.
    fn every_kind() -> [FaultKind; 9] {
        [
            FaultKind::TransferStall { factor: 2.0 },
            FaultKind::TransferFailure,
            FaultKind::StragglerCore {
                core: 1,
                factor: 2.0,
            },
            FaultKind::MemoryPressure { fraction: 0.5 },
            FaultKind::HashContention { factor: 2.0 },
            FaultKind::ServeDelay { extra_us: 5.0 },
            FaultKind::Crash {
                site: CrashSite::MidJournal,
            },
            FaultKind::Io {
                target: IoTarget::Journal,
                fault: IoFault::Enospc,
            },
            FaultKind::DeliveryDelay { slots: 1 },
        ]
    }

    #[test]
    fn the_des_sees_exactly_the_kinds_that_reach_the_trainer() {
        let all = ActiveFaults {
            faults: every_kind().to_vec(),
        };
        assert_eq!(all.des_relevant().faults, &all.faults[..5]);
        let kills: Vec<_> = all.faults.iter().filter(|k| k.kills_process()).collect();
        assert_eq!(kills, [&all.faults[6], &all.faults[7]]);
        assert!(all
            .faults
            .iter()
            .all(|k| !(k.reaches_trainer() && k.kills_process())));
    }

    #[test]
    fn check_bounds_every_parameter() {
        assert!(every_kind().iter().all(|k| k.check().is_ok()));
        for bad in [
            FaultKind::TransferStall { factor: 0.5 },
            FaultKind::StragglerCore {
                core: 0,
                factor: f64::NAN,
            },
            FaultKind::HashContention { factor: 0.99 },
            FaultKind::MemoryPressure { fraction: 0.0 },
            FaultKind::MemoryPressure { fraction: 1.5 },
            FaultKind::ServeDelay { extra_us: -1.0 },
        ] {
            let err = bad.check().unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn with_rule_rejects_an_out_of_range_kind() {
        let kind = FaultKind::MemoryPressure { fraction: 2.0 };
        let _ = FaultPlan::new(0).with_rule(FaultRule::window(kind, 0, None));
    }

    #[test]
    fn firing_patterns_match_their_names() {
        let kind = FaultKind::TransferFailure;
        let once = FaultRule::once(kind, 4);
        assert_eq!(FaultRule::window(kind, 4, Some(5)), once);
        assert_eq!((once.probability, once.transient), (1.0, false));
        let t = FaultRule::transient(kind, 0.25);
        assert_eq!((t.from_batch, t.until_batch, t.transient), (0, None, true));
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
