//! Chaos campaigns — seeded composite fault plans driven through the
//! durable serving stack and checked by an invariant oracle, with
//! automatic fault-schedule shrinking on violation
//! (docs/fault_model.md §Chaos campaigns).
//!
//! Where the `durability` experiment injects *one* crash at a chosen
//! site, a chaos campaign samples whole [`FaultPlan`]s — crashes at any
//! batch and site, storage faults (torn writes, short reads, ENOSPC,
//! single-bit flips) in the journal or checkpoint bytes, stalls, memory
//! pressure, delayed batch delivery — and runs each plan through
//! durable `serve` + `recover` against a fault-free reference run of the
//! same workload. The oracle demands that every plan resolves to one of:
//!
//! * **clean** — recovered state bit-identical to the reference: same
//!   final checkpoint bytes, exactly one journaled outcome per batch and
//!   each equal to the reference outcome, quarantine identical, replay
//!   telemetry counters exactly matching the journaled outcomes, and the
//!   number of recovery cycles bounded by the plan's durability-fault
//!   count;
//! * **detected** — a bit flip surfaced as a *typed*
//!   [`GtError::CorruptJournal`] or was healed by the documented
//!   torn-tail truncation policy (acceptable only for plans that contain
//!   a journal bit-flip rule — firmware lying about committed bytes is
//!   the one fault class where detection, not transparency, is the
//!   contract);
//! * anything else is a **violation**.
//!
//! On the first violation the campaign delta-debugs the guilty plan with
//! [`gt_sim::shrink`] — dropping rules, rebasing windows, weakening fault
//! kinds while the violation still reproduces — and writes the minimized
//! plan as JSON (`--chaos-out`). `repro --chaos-replay <file>` re-executes
//! a serialized plan deterministically: same verdict, same digest, at any
//! `GT_THREADS` width.

use crate::runner::{print_table, ExpConfig};
use gt_core::config::{ModelConfig, PAPER_HIDDEN};
use gt_core::error::GtError;
use gt_core::journal;
use gt_core::serve::{DurabilityConfig, RecoveryReport, ServeCtx, Supervisor};
use gt_core::trainer::GtVariant;
use gt_core::TracerConfig;
use gt_sim::{FaultKind, FaultPlan, IoFault, IoTarget};
use gt_tensor::{chaosio, crc32::crc32};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Campaign knobs (separate from the `Copy` [`ExpConfig`]).
#[derive(Debug, Clone)]
pub struct ChaosOpts {
    /// Plans sampled per campaign when no seeds file is given; seed `i`
    /// of the campaign is `cfg.seed + i`.
    pub seeds: usize,
    /// Read campaign seeds (one integer per line, `#` comments) from this
    /// file instead of deriving them from `--seed`.
    pub seeds_file: Option<PathBuf>,
    /// Re-execute one serialized [`FaultPlan`] (JSON) instead of sampling.
    pub replay: Option<PathBuf>,
    /// Where the minimized plan is written when the oracle is violated.
    pub out: Option<PathBuf>,
    /// Batches in the serving stream (also the fault-sampling window).
    pub batches: usize,
    /// Arm the flight recorder on the faulted run and write its dump here
    /// on every injected crash site (last crash wins).
    pub flight_out: Option<PathBuf>,
    /// Test-only: plant a resume off-by-one after the first recovery, the
    /// kind of recovery-path bug the oracle + shrinker must catch.
    pub sabotage: bool,
}

impl Default for ChaosOpts {
    fn default() -> Self {
        ChaosOpts {
            seeds: 16,
            seeds_file: None,
            replay: None,
            out: None,
            batches: 8,
            flight_out: None,
            sabotage: false,
        }
    }
}

/// How one plan resolved against the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Recovered state bit-identical to the fault-free reference.
    Clean,
    /// Corruption surfaced as a typed error or a documented heal.
    Detected(String),
    /// An invariant broke silently — the bug class chaos exists to find.
    Violation(String),
}

impl Verdict {
    /// Short label for tables and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Clean => "clean",
            Verdict::Detected(_) => "detected",
            Verdict::Violation(_) => "violation",
        }
    }
}

/// What one plan's execution looked like.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// The oracle's verdict.
    pub verdict: Verdict,
    /// CRC-32 over the reference run's final checkpoint bytes and outcome
    /// sequence — the workload fingerprint a deterministic replay must
    /// reproduce at any thread count.
    pub digest: u32,
    /// Crash/recover cycles the faulted run went through.
    pub recoveries: usize,
}

impl std::fmt::Display for PlanReport {
    /// `clean (digest 0x…, N recoveries)` — one line per plan in campaign
    /// and replay output alike.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (digest {:#010x}, {} recoveries)",
            self.verdict.label(),
            self.digest,
            self.recoveries
        )
    }
}

/// One campaign's totals.
#[derive(Debug)]
pub struct CampaignSummary {
    /// `(seed, report)` of every plan executed, in campaign order (stops
    /// at the first violation).
    pub plans: Vec<(u64, PlanReport)>,
    /// `(seed, detail)` of the violating plan, if any.
    pub violation: Option<(u64, String)>,
    /// The shrunk violating plan and where its JSON was written.
    pub minimized: Option<(FaultPlan, PathBuf)>,
}

impl CampaignSummary {
    /// Plans whose verdict carries `label` ([`Verdict::label`]).
    pub fn count(&self, label: &str) -> usize {
        self.plans
            .iter()
            .filter(|(_, rep)| rep.verdict.label() == label)
            .count()
    }
}

/// A fresh throwaway directory path under the system temp dir, unique per
/// process and call.
pub(crate) fn fresh_dir(tag: &str) -> PathBuf {
    static NONCE: AtomicUsize = AtomicUsize::new(0);
    let n = NONCE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gt_{}_{n}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Removes a throwaway durable-state directory on every exit path (the
/// shrinker runs hundreds of plans; leaked directories would pile up).
pub(crate) struct DirCleanup(pub(crate) PathBuf);

impl Drop for DirCleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `recover` with the plan's short-read faults armed: a short read is
/// transient, so the driver retries the recovery — bounded by the number
/// of armed faults (each attempt consumes at most one).
fn recover_with_retries(
    server: &mut Supervisor,
    data: &gt_core::data::GraphData,
    durability: &DurabilityConfig,
    short_reads: &mut Vec<(IoTarget, IoFault)>,
) -> Result<RecoveryReport, GtError> {
    let budget = short_reads.len() + 1;
    let _guard = chaosio::arm(&std::mem::take(short_reads));
    let mut attempt = 0;
    loop {
        match server.recover(data, durability.clone()) {
            Err(GtError::Io { detail }) if detail.contains("short read") && attempt < budget => {
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// Counter names keyed by the outcome label they must exactly track.
const OUTCOME_COUNTERS: &[(&str, &str)] = &[
    ("succeeded", "gt_serve_succeeded_total"),
    ("recovered", "gt_serve_recovered_total"),
    ("degraded", "gt_serve_degraded_total"),
    ("quarantined", "gt_serve_quarantined_total"),
    ("shed", "gt_serve_shed_total"),
];

/// Run one plan through the full fault/recover/verify cycle.
///
/// `Err` means the driver itself could not run (environment trouble);
/// every behavior of the system under test folds into the returned
/// [`Verdict`].
pub fn run_plan(
    cfg: &ExpConfig,
    plan: &FaultPlan,
    opts: &ChaosOpts,
) -> Result<PlanReport, GtError> {
    let spec = gt_datasets::by_name("reddit2").expect("known dataset");
    let data = cfg.build(&spec);
    let make_server = |plan: FaultPlan| {
        let model = ModelConfig::gcn(cfg.layers, PAPER_HIDDEN, spec.out_dim);
        Supervisor::new(cfg.graphtensor(GtVariant::Dynamic, model), plan)
    };
    // The faulted run (and only it) carries the flight recorder when
    // asked: every injected crash site freezes a dump to `flight_out`
    // before the error surfaces, so the last crash's context is on disk
    // for post-mortem even though the campaign keeps going.
    let arm_flight = |server: &mut Supervisor| {
        if let Some(path) = &opts.flight_out {
            server.enable_tracing(
                TracerConfig {
                    flight_path: Some(path.clone()),
                    ..TracerConfig::default()
                },
                None,
            );
        }
    };

    // The batch stream, materialized and permuted by the plan's
    // delivery-delay rules. Both runs serve the identical permuted order:
    // delayed delivery shapes the workload, it is not a durability fault.
    let stream: Vec<_> = cfg.batch_stream(&data, opts.batches).collect();
    let order = gt_sim::delivery_order(plan, opts.batches);

    // ---- reference run: same workload, durability faults neutralized --
    let ref_dir = fresh_dir("chaos_ref");
    let _ref_cleanup = DirCleanup(ref_dir.clone());
    let ref_durability = DurabilityConfig::new(&ref_dir);
    let mut reference = make_server(plan.without_durability_rules());
    reference.make_durable(ref_durability.clone())?;
    for &i in &order {
        reference.serve(&data, &stream[i], ServeCtx::default())?;
    }
    reference.checkpoint_now()?;
    let ref_outcomes =
        journaled_outcomes(&ref_durability, opts.batches)?.map_err(|d| GtError::Io {
            detail: format!("reference run journaled inconsistent outcomes: {d}"),
        })?;
    let ref_checkpoint = std::fs::read(ref_durability.checkpoint_path())?;
    let digest = {
        let mut bytes = ref_checkpoint.clone();
        bytes.extend(ref_outcomes.join(",").into_bytes());
        crc32(&bytes)
    };
    let report = |verdict: Verdict, recoveries: usize| {
        Ok(PlanReport {
            verdict,
            digest,
            recoveries,
        })
    };
    let journal_bitflip = plan.rules().iter().any(|r| {
        matches!(
            r.kind,
            FaultKind::Io {
                target: IoTarget::Journal,
                fault: IoFault::BitFlip { .. },
            }
        )
    });

    // A recovery that errors out: a bit-flip rule explains a typed
    // CorruptJournal; anything else is the system misbehaving.
    let failed_recovery = |what: &str, e: GtError| match e {
        GtError::CorruptJournal { offset, detail } if journal_bitflip => Verdict::Detected(
            format!("bit flip caught as CorruptJournal at offset {offset}: {detail}"),
        ),
        GtError::CorruptJournal { detail, .. } => {
            Verdict::Violation(format!("CorruptJournal without a bit-flip rule: {detail}"))
        }
        e => Verdict::Violation(format!("{what} failed: {e}")),
    };

    // ---- faulted run: serve, die, recover, repeat ----------------------
    let dir = fresh_dir("chaos_run");
    let _run_cleanup = DirCleanup(dir.clone());
    let durability = DurabilityConfig::new(&dir);
    let mut short_reads: Vec<(IoTarget, IoFault)> = plan
        .rules()
        .iter()
        .filter_map(|r| match r.kind {
            FaultKind::Io {
                target,
                fault: IoFault::ShortRead,
            } => Some((target, IoFault::ShortRead)),
            _ => None,
        })
        .collect();
    let mut server = make_server(plan.clone());
    arm_flight(&mut server);
    server.make_durable(durability.clone())?;
    let mut pos = 0usize; // position in the delivery order
    let mut recoveries = 0usize;
    let max_recoveries = plan.durability_rule_count() + 3;
    let mut sabotaged = false;
    while pos < opts.batches {
        match server.serve(&data, &stream[order[pos]], ServeCtx::default()) {
            Ok(_) => pos += 1,
            Err(e) => {
                // Any error out of the durable path models process death:
                // rebuild the supervisor and recover from disk, exactly
                // what a restarted process would do.
                recoveries += 1;
                if recoveries > max_recoveries {
                    return report(
                        Verdict::Violation(format!(
                            "recovery not bounded: cycle {recoveries} for a plan with {} \
                             durability rules (last error: {e})",
                            plan.durability_rule_count()
                        )),
                        recoveries,
                    );
                }
                // Crash-site kills surface as InjectedCrash, journal and
                // checkpoint write faults as Io. Both model process death;
                // anything else is the system misbehaving.
                if !matches!(e, GtError::InjectedCrash { .. } | GtError::Io { .. }) {
                    return report(
                        Verdict::Violation(format!("durable serve surfaced {e}")),
                        recoveries,
                    );
                }
                server = make_server(plan.clone());
                arm_flight(&mut server);
                match recover_with_retries(&mut server, &data, &durability, &mut short_reads) {
                    Ok(rec) => pos = rec.batches_replayed,
                    Err(e) => return report(failed_recovery("recovery", e), recoveries),
                }
                if opts.sabotage && !sabotaged {
                    // The planted bug: resume one batch past the replayed
                    // prefix, silently dropping a delivery.
                    sabotaged = true;
                    pos += 1;
                }
            }
        }
    }
    server.checkpoint_now()?;
    drop(server);

    // ---- final verification: a fresh process replays everything --------
    let telemetry = gt_telemetry::Telemetry::recording();
    let mut verifier = make_server(plan.clone());
    verifier.trainer.telemetry = telemetry.clone();
    let recovered = match recover_with_retries(&mut verifier, &data, &durability, &mut short_reads)
    {
        Ok(rec) => rec,
        Err(e) => return report(failed_recovery("verification recovery", e), recoveries),
    };
    if recovered.torn_tail_dropped {
        // The serving loop truncated every real torn tail before resuming
        // and all appends after the last fault were clean, so a torn tail
        // here can only be a flipped bit masquerading as a torn append —
        // the documented heal for trailing corruption.
        return report(
            if journal_bitflip {
                Verdict::Detected(
                    "bit flip healed by torn-tail truncation on verification".to_string(),
                )
            } else {
                Verdict::Violation(
                    "verification found a torn tail after a completed run".to_string(),
                )
            },
            recoveries,
        );
    }

    // Invariant: no committed outcome lost, none duplicated, each equal
    // to the reference outcome for its batch index.
    let outcomes = match journaled_outcomes(&durability, opts.batches)? {
        Ok(o) => o,
        Err(detail) => return report(Verdict::Violation(detail), recoveries),
    };
    if let Some(idx) = (0..opts.batches).find(|&i| outcomes[i] != ref_outcomes[i]) {
        return report(
            Verdict::Violation(format!(
                "outcome diverged at batch {idx}: journaled {}, reference {}",
                outcomes[idx], ref_outcomes[idx]
            )),
            recoveries,
        );
    }

    // Invariant: quarantine reconstructed bit-for-bit.
    if verifier.quarantine != reference.quarantine {
        return report(
            Verdict::Violation(format!(
                "quarantine diverged: {} records recovered, {} in reference",
                verifier.quarantine.len(),
                reference.quarantine.len()
            )),
            recoveries,
        );
    }

    // Invariant: replay telemetry counters exactly match the journaled
    // outcomes — the monitoring surface may never disagree with the
    // durable record.
    let snapshot = telemetry.snapshot();
    for &(label, counter) in OUTCOME_COUNTERS {
        let journaled = outcomes
            .iter()
            .filter(|o| outcome_label(o) == label)
            .count() as u64;
        let counted = snapshot.counter(counter);
        if counted != journaled {
            return report(
                Verdict::Violation(format!(
                    "counter {counter} = {counted} but the journal holds {journaled} \
                     '{label}' outcomes"
                )),
                recoveries,
            );
        }
    }

    // Invariant: the recovered checkpoint is bit-identical to the
    // fault-free reference (recovery re-exported it from replayed
    // parameters, healing any corrupted image on the way).
    let checkpoint = std::fs::read(durability.checkpoint_path())?;
    if checkpoint != ref_checkpoint {
        return report(
            Verdict::Violation(format!(
                "final checkpoint diverged from reference ({} vs {} bytes, crc {:#010x} vs \
                 {:#010x})",
                checkpoint.len(),
                ref_checkpoint.len(),
                crc32(&checkpoint),
                crc32(&ref_checkpoint)
            )),
            recoveries,
        );
    }

    report(Verdict::Clean, recoveries)
}

/// The journaled outcome JSON of batches `0..batches`, in order. Outer
/// `Err` is driver trouble; inner `Err` is an oracle violation (a batch
/// record missing, duplicated, reordered or out of range).
#[allow(clippy::type_complexity)]
fn journaled_outcomes(
    durability: &DurabilityConfig,
    batches: usize,
) -> Result<Result<Vec<String>, String>, GtError> {
    let scan = journal::read_journal(durability.journal_path())?;
    let (indices, outcomes): (Vec<usize>, Vec<String>) = scan.batch_outcomes().unzip();
    if !indices.iter().copied().eq(0..batches) {
        return Ok(Err(format!(
            "journaled batch indices {indices:?}, expected 0..{batches}"
        )));
    }
    Ok(Ok(outcomes))
}

fn outcome_label(outcome_json: &str) -> String {
    gt_telemetry::json::parse(outcome_json)
        .ok()
        .and_then(|j| j.get("outcome").and_then(|l| l.as_str().map(String::from)))
        .unwrap_or_default()
}

/// Run a whole campaign: sample a plan per seed, execute it, and stop at
/// the first violation — shrinking the guilty plan to a minimal
/// reproducer and serializing it to `opts.out`.
pub fn run_campaign(cfg: &ExpConfig, opts: &ChaosOpts) -> Result<CampaignSummary, GtError> {
    let seeds: Vec<u64> = match &opts.seeds_file {
        Some(path) => read_seeds(path)?,
        None => (0..opts.seeds as u64)
            .map(|i| cfg.seed.wrapping_add(i))
            .collect(),
    };
    let mut summary = CampaignSummary {
        plans: Vec::new(),
        violation: None,
        minimized: None,
    };
    for seed in seeds {
        let plan = gt_sim::sample_plan(seed, opts.batches);
        let rep = run_plan(cfg, &plan, opts)?;
        summary.plans.push((seed, rep.clone()));
        if let Verdict::Violation(detail) = rep.verdict {
            summary.violation = Some((seed, detail));
            summary.minimized = Some(shrink_and_write(cfg, &plan, opts));
            return Ok(summary);
        }
    }
    Ok(summary)
}

/// Delta-debug `plan` down to a minimal schedule that still violates the
/// oracle, and write it as JSON for `repro --chaos-replay`.
fn shrink_and_write(cfg: &ExpConfig, plan: &FaultPlan, opts: &ChaosOpts) -> (FaultPlan, PathBuf) {
    let minimized = gt_sim::shrink(
        plan,
        |candidate| {
            matches!(
                run_plan(cfg, candidate, opts),
                Ok(PlanReport {
                    verdict: Verdict::Violation(_),
                    ..
                })
            )
        },
        200,
    );
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("chaos-minimized.json"));
    let json = gt_sim::plan_to_json(&minimized).to_json_string();
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("failed to write minimized plan to {}: {e}", path.display());
    }
    (minimized, path)
}

/// Re-execute a serialized plan. Deterministic: the same file yields the
/// same verdict and digest on every run, at every `GT_THREADS` width.
pub fn run_replay(cfg: &ExpConfig, path: &Path, opts: &ChaosOpts) -> Result<PlanReport, GtError> {
    let text = std::fs::read_to_string(path)?;
    let parse_err = |detail: String| GtError::Io { detail };
    let json = gt_telemetry::json::parse(&text)
        .map_err(|e| parse_err(format!("{}: not JSON: {e:?}", path.display())))?;
    let plan = gt_sim::plan_from_json(&json)
        .map_err(|e| parse_err(format!("{}: not a fault plan: {e}", path.display())))?;
    run_plan(cfg, &plan, opts)
}

fn read_seeds(path: &Path) -> Result<Vec<u64>, GtError> {
    let text = std::fs::read_to_string(path)?;
    let mut seeds = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        seeds.push(line.parse().map_err(|_| GtError::Io {
            detail: format!("{}:{}: not a seed: {line:?}", path.display(), lineno + 1),
        })?);
    }
    if seeds.is_empty() {
        return Err(GtError::Io {
            detail: format!("{}: no seeds", path.display()),
        });
    }
    Ok(seeds)
}

/// Print a replay or campaign; exits 4 when the oracle is violated so CI
/// can tell an invariant break (4) from an injected crash (3).
pub fn print(cfg: &ExpConfig, opts: &ChaosOpts) {
    if let Some(path) = &opts.replay {
        let rep =
            run_replay(cfg, path, opts).unwrap_or_else(|e| panic!("chaos replay failed: {e}"));
        println!("chaos replay {}: {rep}", path.display());
        if let Verdict::Violation(detail) | Verdict::Detected(detail) = &rep.verdict {
            println!("  {detail}");
        }
        print_flight_out(opts);
        if matches!(rep.verdict, Verdict::Violation(_)) {
            std::process::exit(4);
        }
        return;
    }
    let summary = run_campaign(cfg, opts).unwrap_or_else(|e| panic!("chaos campaign failed: {e}"));
    print_table(
        &format!(
            "chaos: {} plans × {} batches (oracle: bit-identical recovery)",
            summary.plans.len(),
            opts.batches
        ),
        &["verdict", "plans"],
        &["clean", "detected", "violation"]
            .map(|label| vec![label.to_string(), summary.count(label).to_string()]),
    );
    // The per-plan digests are what the identity manifest pins.
    for (seed, rep) in &summary.plans {
        println!("seed {seed}: {rep}");
    }
    print_flight_out(opts);
    if let Some((seed, detail)) = &summary.violation {
        println!("  seed {seed} VIOLATED the oracle: {detail}");
        if let Some((plan, path)) = &summary.minimized {
            println!(
                "  minimized to {} rule(s), written to {} — reproduce with: \
                 repro chaos --chaos-replay {}",
                plan.len(),
                path.display(),
                path.display()
            );
        }
        std::process::exit(4);
    }
}

/// Where the last crash's flight dump landed, if the recorder was armed.
fn print_flight_out(opts: &ChaosOpts) {
    if let Some(path) = &opts.flight_out {
        if path.exists() {
            println!("  flight dump (last crash site): {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_sim::CrashSite;

    fn opts(batches: usize) -> ChaosOpts {
        ChaosOpts {
            batches,
            ..Default::default()
        }
    }

    /// Single-crash plans recover bit-identically — the durability
    /// contract restated through the chaos oracle.
    #[test]
    fn crash_plans_resolve_clean() {
        let cfg = ExpConfig::test();
        for site in [
            CrashSite::MidJournal,
            CrashSite::MidCheckpoint,
            CrashSite::AfterCommit,
        ] {
            let plan = FaultPlan::new(11)
                .with_transfer_failure(0.3)
                .with_crash_at(3, site);
            let rep = run_plan(&cfg, &plan, &opts(6)).unwrap();
            assert_eq!(rep.verdict, Verdict::Clean, "site {site:?}");
            assert_eq!(rep.recoveries, 1, "site {site:?}");
        }
    }

    /// With the flight recorder armed, every injected crash freezes its
    /// context to disk before the campaign recovers and moves on.
    #[test]
    fn crash_plans_write_flight_dumps_when_asked() {
        let cfg = ExpConfig::test();
        let dir = std::env::temp_dir().join("gt_chaos_flight");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut o = opts(6);
        o.flight_out = Some(dir.join("flight.json"));
        let plan = FaultPlan::new(11).with_crash_at(3, CrashSite::MidJournal);
        let rep = run_plan(&cfg, &plan, &o).unwrap();
        assert_eq!(
            rep.verdict,
            Verdict::Clean,
            "tracing must not perturb the oracle"
        );
        let text = std::fs::read_to_string(dir.join("flight.json")).unwrap();
        assert!(
            text.contains("crash:mid-journal"),
            "dump names the crash site"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Storage faults below the durability layer either stay invisible
    /// (write faults retried after recovery) or resolve as documented
    /// detections (journal bit flips).
    #[test]
    fn storage_fault_plans_satisfy_the_oracle() {
        let cfg = ExpConfig::test();
        for fault in [IoFault::TornWrite, IoFault::Enospc] {
            let plan = FaultPlan::new(5).with_io_fault(2, IoTarget::Journal, fault);
            let rep = run_plan(&cfg, &plan, &opts(6)).unwrap();
            assert_eq!(rep.verdict, Verdict::Clean, "fault {fault:?}");
            assert_eq!(rep.recoveries, 1, "fault {fault:?}");
        }
        // A checkpoint bit flip is healed by recovery's re-export: the
        // journal carries the CRC of the true image, not the lie on disk.
        let plan = FaultPlan::new(5)
            .with_crash_at(4, CrashSite::AfterCommit)
            .with_io_fault(3, IoTarget::Checkpoint, IoFault::BitFlip { bit: 17 });
        assert_eq!(
            run_plan(&cfg, &plan, &opts(6)).unwrap().verdict,
            Verdict::Clean
        );
        // A write fault on the *periodic* checkpoint (due every 8th
        // batch) is process death like a journal fault: the last good
        // checkpoint + journal must carry the run to a clean finish.
        let plan = FaultPlan::new(5).with_io_fault(7, IoTarget::Checkpoint, IoFault::Enospc);
        let rep = run_plan(&cfg, &plan, &opts(8)).unwrap();
        assert_eq!(rep.verdict, Verdict::Clean, "periodic checkpoint ENOSPC");
        assert_eq!(rep.recoveries, 1, "periodic checkpoint ENOSPC");
        // A journal bit flip may heal as a torn tail or surface as
        // CorruptJournal — but never pass silently corrupted.
        let plan = FaultPlan::new(5)
            .with_io_fault(2, IoTarget::Journal, IoFault::BitFlip { bit: 70 })
            .with_crash_at(4, CrashSite::AfterCommit);
        let rep = run_plan(&cfg, &plan, &opts(6)).unwrap();
        assert!(
            !matches!(rep.verdict, Verdict::Violation(_)),
            "journal bit flip must resolve clean or detected, got {:?}",
            rep.verdict
        );
    }

    /// A short campaign over sampled composite plans: every plan must
    /// satisfy the oracle.
    #[test]
    fn sampled_campaign_has_no_violations() {
        let cfg = ExpConfig::test();
        let mut o = opts(6);
        o.seeds = 5;
        let summary = run_campaign(&cfg, &o).unwrap();
        assert_eq!(summary.plans.len(), 5);
        assert_eq!(
            summary.violation, None,
            "minimized: {:?}",
            summary.minimized
        );
        assert_eq!(summary.count("clean") + summary.count("detected"), 5);
    }

    /// The acceptance scenario: a planted recovery bug (resume
    /// off-by-one) is caught by the oracle, shrunk to a minimal plan, and
    /// the serialized reproducer replays to the same violation.
    #[test]
    fn sabotaged_recovery_is_caught_shrunk_and_replayable() {
        let cfg = ExpConfig::test();
        let mut o = opts(6);
        o.sabotage = true;
        // A noisy composite plan; only the crash is needed to expose the
        // planted bug, and the shrinker must find that out by itself.
        let plan = FaultPlan::new(23)
            .with_transfer_failure(0.4)
            .with_transient_memory_pressure(1e-6, 0.2)
            .with_io_fault(4, IoTarget::Journal, IoFault::TornWrite)
            .with_crash_at(2, CrashSite::MidJournal);
        let rep = run_plan(&cfg, &plan, &o).unwrap();
        let Verdict::Violation(detail) = &rep.verdict else {
            panic!("sabotage not caught: {:?}", rep.verdict);
        };
        assert!(!detail.is_empty());

        let minimized = gt_sim::shrink(
            &plan,
            |p| {
                matches!(
                    run_plan(&cfg, p, &o),
                    Ok(PlanReport {
                        verdict: Verdict::Violation(_),
                        ..
                    })
                )
            },
            120,
        );
        assert_eq!(
            minimized.len(),
            1,
            "minimal cause is one rule: {minimized:?}"
        );
        let replay = run_plan(&cfg, &minimized, &o).unwrap();
        assert!(matches!(replay.verdict, Verdict::Violation(_)));

        // Round-trip through the JSON artifact and re-execute: verdict
        // and digest are deterministic.
        let json = gt_sim::plan_to_json(&minimized).to_json_string();
        let parsed = gt_sim::plan_from_json(&gt_telemetry::json::parse(&json).unwrap()).unwrap();
        let again = run_plan(&cfg, &parsed, &o).unwrap();
        assert_eq!(again.verdict, replay.verdict);
        assert_eq!(again.digest, replay.digest);

        // Without the sabotage the same minimized plan is clean — the
        // bug was in the (planted) recovery path, not the plan.
        o.sabotage = false;
        assert_eq!(run_plan(&cfg, &parsed, &o).unwrap().verdict, Verdict::Clean);
    }

    /// The committed CI corpus covers what its header promises: sampled
    /// at the campaign's batch count, its plans hit every category the
    /// sampler emits at least once, and every rule is one the single-node
    /// campaign acts on. A rule's category is read through the
    /// `ActiveFaults` accessors the serving stack consults; a rule none of
    /// them answers is inert here.
    #[test]
    fn smoke_corpus_covers_every_category_with_no_inert_rule() {
        let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("chaos-seeds/smoke.seeds");
        let batches = ChaosOpts::default().batches;
        let mut seen = std::collections::BTreeMap::new();
        let mut inert = Vec::new();
        for seed in read_seeds(&corpus).unwrap() {
            for rule in gt_sim::sample_plan(seed, batches).rules() {
                let f = gt_sim::ActiveFaults {
                    faults: vec![rule.kind],
                };
                let io = f.io_faults();
                let category = if let Some(site) = f.crash_site() {
                    site.label()
                } else if let Some(&(target, _)) = io.first() {
                    target.label()
                } else if f.fails_transfers() {
                    "transfer-failure"
                } else if f.memory_fraction().is_some() {
                    "memory-pressure"
                } else if f.pcie_slowdown().is_some() {
                    "stall"
                } else if f.lock_slowdown().is_some() {
                    "hash-contention"
                } else if f.delivery_delay().is_some() {
                    "delivery-delay"
                } else {
                    inert.push((seed, rule.kind));
                    continue;
                };
                *seen.entry(category).or_insert(0usize) += 1;
            }
        }
        assert!(inert.is_empty(), "rules the campaign ignores: {inert:?}");
        let want = [
            "mid-journal",
            "mid-checkpoint",
            "after-commit",
            "journal",
            "checkpoint",
            "transfer-failure",
            "memory-pressure",
            "stall",
            "hash-contention",
            "delivery-delay",
        ];
        let missing: Vec<_> = want.iter().filter(|c| !seen.contains_key(*c)).collect();
        assert!(missing.is_empty(), "corpus misses {missing:?}: {seen:?}");
    }

    /// Delivery reordering shapes the workload for both runs: a plan
    /// that only delays batches is clean with zero recoveries.
    #[test]
    fn delivery_delays_are_workload_not_faults() {
        let cfg = ExpConfig::test();
        let plan = FaultPlan::new(9).with_delivery_delay(1, 2);
        let rep = run_plan(&cfg, &plan, &opts(6)).unwrap();
        assert_eq!(rep.verdict, Verdict::Clean);
        assert_eq!(rep.recoveries, 0);
    }
}
