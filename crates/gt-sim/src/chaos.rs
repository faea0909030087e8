//! Deterministic fault-campaign machinery: a seeded generator that samples
//! composite [`FaultPlan`]s, a JSON wire form for replaying them, and a
//! delta-debugging shrinker that minimizes a failing fault schedule.
//!
//! This is the FoundationDB-style simulation-testing layer of the fault
//! model (docs/fault_model.md §Chaos campaigns). Hand-written crash-site
//! sweeps cover the faults someone thought of; [`sample_plan`] explores the
//! *composite* schedule space — a crash at any batch × any
//! [`CrashSite`], storage faults (torn write, short read, ENOSPC,
//! single-bit flip) against the journal or the checkpoint, schedule
//! stalls, memory pressure, and delayed-delivery reorderings — all from
//! one seed, so a failing campaign is exactly reproducible from one `u64`.
//!
//! When a campaign's invariant oracle (in `crates/bench`) rejects a plan,
//! [`shrink`] minimizes it: drop rules, lower batch indices, tighten
//! windows, weaken kinds — re-running the oracle after each step — until
//! the plan is 1-minimal. The shrunk plan serializes with [`plan_to_json`]
//! and replays with `repro --chaos-replay`.
//!
//! Everything here is pure: no clock, no filesystem, no global state.

use crate::fault::{CrashSite, FaultKind, FaultPlan, FaultRule, IoFault, IoTarget};
use crate::prop::Gen;
use gt_telemetry::json::obj;
use gt_telemetry::Json;

/// Most faults one sampled plan carries (at least one is always sampled).
const MAX_FAULTS: u64 = 4;

/// Keys [`sample_plan`]'s stream apart from `FaultPlan`'s probability
/// rolls, which hash the same seed.
const PLAN_STREAM_KEY: u64 = 0xC4A0_5CA0_DE7E_C7ED;

/// Sample one composite fault schedule for `seed` over a serving stream of
/// `batches` batches.
///
/// Every emitted rule is an *explicit* schedule entry — probability 1.0
/// over a concrete batch window — except transfer failures, which keep a
/// per-attempt probability so retry-then-succeed ladders are exercised.
/// Journal/checkpoint faults stay inside the recoverable-or-detectable
/// envelope documented on [`IoFault`].
pub fn sample_plan(seed: u64, batches: usize) -> FaultPlan {
    let mut rng = Gen::new(seed ^ PLAN_STREAM_KEY);
    let n_faults = 1 + rng.below(MAX_FAULTS);
    let mut plan = FaultPlan::new(seed);
    for _ in 0..n_faults {
        let b = rng.below(batches.max(1) as u64) as usize;
        plan = match rng.below(11) {
            0 => {
                let sites = [
                    CrashSite::MidJournal,
                    CrashSite::MidCheckpoint,
                    CrashSite::AfterCommit,
                ];
                plan.with_crash_at(b, sites[rng.below(3) as usize])
            }
            1 => {
                let fault = match rng.below(4) {
                    0 => IoFault::TornWrite,
                    1 => IoFault::ShortRead,
                    2 => IoFault::Enospc,
                    _ => IoFault::BitFlip {
                        bit: rng.below(1 << 14) as u32,
                    },
                };
                plan.with_io_fault(b, IoTarget::Journal, fault)
            }
            2 => {
                // Checkpoint loads are replaced by journal replay during
                // recovery, so short reads are a journal-side fault; the
                // checkpoint side exercises the write path.
                let fault = match rng.below(3) {
                    0 => IoFault::TornWrite,
                    1 => IoFault::Enospc,
                    _ => IoFault::BitFlip {
                        bit: rng.below(1 << 14) as u32,
                    },
                };
                plan.with_io_fault(b, IoTarget::Checkpoint, fault)
            }
            3 => {
                // Transient transfer failures over a short window: the
                // retry ladder either clears them or quarantines.
                let until = b + 1 + rng.below(2) as usize;
                let probability = [0.5, 0.8, 1.0][rng.below(3) as usize];
                plan.with_rule(FaultRule {
                    kind: FaultKind::TransferFailure,
                    probability,
                    from_batch: b,
                    until_batch: Some(until),
                    transient: true,
                })
            }
            4 => {
                // Memory pressure: moderate (halving recovers) or hard
                // (every attempt OOMs and the batch quarantines).
                let fraction = if rng.below(2) == 0 { 0.5 } else { 1e-6 };
                plan.with_rule(FaultRule::once(FaultKind::MemoryPressure { fraction }, b))
            }
            5 => {
                let factor = (1 + rng.below(4)) as f64 * 2.0;
                let until = b + 1 + rng.below(3) as usize;
                plan.with_rule(FaultRule::window(
                    FaultKind::TransferStall { factor },
                    b,
                    Some(until),
                ))
            }
            6 => {
                let factor = (1 + rng.below(3)) as f64 * 2.0;
                plan.with_rule(FaultRule::once(FaultKind::HashContention { factor }, b))
            }
            7 => plan.with_delivery_delay(b, 1 + rng.below(3) as u32),
            // Cluster faults. Worker indices are sampled over a nominal
            // 4-worker cluster; the cluster supervisor maps them modulo
            // its actual worker count, and single-node campaigns ignore
            // them entirely (they are inert outside the cluster layer).
            8 => plan.with_worker_kill(b, rng.below(4) as usize),
            9 => {
                let worker = rng.below(4) as usize;
                let factor = (1 + rng.below(4)) as f64 * 2.0;
                let until = b + 1 + rng.below(3) as usize;
                plan.with_link_degrade(worker, factor, b, Some(until))
            }
            _ => plan.with_heartbeat_drop(b, rng.below(4) as usize, 1 + rng.below(3) as u32),
        };
    }
    plan
}

/// The order batches actually reach the server in, after applying the
/// plan's [`FaultKind::DeliveryDelay`] rules to the submission order
/// `0..batches`. A batch delayed `d` slots sorts as if it arrived at
/// `index + d`; ties resolve by submission order (stable), so the result
/// is a deterministic permutation of `0..batches`.
pub fn delivery_order(plan: &FaultPlan, batches: usize) -> Vec<usize> {
    let mut keyed: Vec<(usize, usize)> = (0..batches)
        .map(|b| (b + plan.active(b, 0).delivery_delay().unwrap_or(0), b))
        .collect();
    keyed.sort_by_key(|&(slot, b)| (slot, b));
    keyed.into_iter().map(|(_, b)| b).collect()
}

// ---- JSON wire form -----------------------------------------------------

/// A kind's wire tag and its fields, in wire order.
fn kind_fields(kind: &FaultKind) -> (&'static str, Vec<(&'static str, Json)>) {
    match *kind {
        FaultKind::TransferStall { factor } => ("transfer-stall", vec![("factor", factor.into())]),
        FaultKind::TransferFailure => ("transfer-failure", vec![]),
        FaultKind::StragglerCore { core, factor } => (
            "straggler-core",
            vec![("core", core.into()), ("factor", factor.into())],
        ),
        FaultKind::MemoryPressure { fraction } => {
            ("memory-pressure", vec![("fraction", fraction.into())])
        }
        FaultKind::HashContention { factor } => {
            ("hash-contention", vec![("factor", factor.into())])
        }
        FaultKind::ServeDelay { extra_us } => ("serve-delay", vec![("extra_us", extra_us.into())]),
        FaultKind::Crash { site } => ("crash", vec![("site", site.label().into())]),
        FaultKind::Io { target, fault } => {
            let mut fields = vec![
                ("target", target.label().into()),
                ("fault", fault.label().into()),
            ];
            if let IoFault::BitFlip { bit } = fault {
                fields.push(("bit", (bit as u64).into()));
            }
            ("io", fields)
        }
        FaultKind::DeliveryDelay { slots } => {
            ("delivery-delay", vec![("slots", (slots as u64).into())])
        }
        FaultKind::WorkerKill { worker } => ("worker-kill", vec![("worker", worker.into())]),
        FaultKind::LinkDegrade { worker, factor } => (
            "link-degrade",
            vec![("worker", worker.into()), ("factor", factor.into())],
        ),
        FaultKind::HeartbeatDrop { worker, beats } => (
            "heartbeat-drop",
            vec![("worker", worker.into()), ("beats", (beats as u64).into())],
        ),
    }
}

fn kind_from_json(v: &Json) -> Result<FaultKind, String> {
    let kind = v
        .get("kind")
        .and_then(|k| k.as_str())
        .ok_or("rule without a kind tag")?;
    let num = |field: &str| -> Result<f64, String> {
        v.get(field)
            .and_then(|x| x.as_f64())
            .ok_or_else(|| format!("{kind} rule missing numeric {field:?}"))
    };
    match kind {
        "transfer-stall" => Ok(FaultKind::TransferStall {
            factor: num("factor")?,
        }),
        "transfer-failure" => Ok(FaultKind::TransferFailure),
        "straggler-core" => Ok(FaultKind::StragglerCore {
            core: num("core")? as usize,
            factor: num("factor")?,
        }),
        "memory-pressure" => Ok(FaultKind::MemoryPressure {
            fraction: num("fraction")?,
        }),
        "hash-contention" => Ok(FaultKind::HashContention {
            factor: num("factor")?,
        }),
        "serve-delay" => Ok(FaultKind::ServeDelay {
            extra_us: num("extra_us")?,
        }),
        "crash" => {
            let site = v
                .get("site")
                .and_then(|s| s.as_str())
                .and_then(CrashSite::parse)
                .ok_or("crash rule with unknown site")?;
            Ok(FaultKind::Crash { site })
        }
        "io" => {
            let target = v
                .get("target")
                .and_then(|s| s.as_str())
                .and_then(IoTarget::parse)
                .ok_or("io rule with unknown target")?;
            let name = v.get("fault").and_then(|s| s.as_str());
            let fault = match name.and_then(IoFault::parse) {
                Some(IoFault::BitFlip { .. }) => IoFault::BitFlip {
                    bit: num("bit")? as u32,
                },
                Some(fault) => fault,
                None => return Err(format!("io rule with unknown fault {name:?}")),
            };
            Ok(FaultKind::Io { target, fault })
        }
        "delivery-delay" => Ok(FaultKind::DeliveryDelay {
            slots: num("slots")? as u32,
        }),
        "worker-kill" => Ok(FaultKind::WorkerKill {
            worker: num("worker")? as usize,
        }),
        "link-degrade" => Ok(FaultKind::LinkDegrade {
            worker: num("worker")? as usize,
            factor: num("factor")?,
        }),
        "heartbeat-drop" => Ok(FaultKind::HeartbeatDrop {
            worker: num("worker")? as usize,
            beats: num("beats")? as u32,
        }),
        other => Err(format!("unknown fault kind {other:?}")),
    }
}

/// Serialize a plan (seed + rules) to its JSON wire form — the payload
/// `repro --chaos-replay` consumes and CI uploads on campaign failure.
pub fn plan_to_json(plan: &FaultPlan) -> Json {
    let rules = plan.rules().iter().map(|r| {
        let (tag, fields) = kind_fields(&r.kind);
        let window = [
            ("probability", r.probability.into()),
            ("from", r.from_batch.into()),
            ("until", r.until_batch.map_or(Json::Null, Json::from)),
            ("transient", r.transient.into()),
        ];
        obj([("kind", tag.into())]
            .into_iter()
            .chain(fields)
            .chain(window))
    });
    obj([
        ("seed", plan.seed().into()),
        ("rules", Json::Arr(rules.collect())),
    ])
}

/// Rebuild a plan from [`plan_to_json`]'s wire form.
pub fn plan_from_json(v: &Json) -> Result<FaultPlan, String> {
    let seed = v
        .get("seed")
        .and_then(|s| s.as_f64())
        .ok_or("plan without a seed")? as u64;
    let rules = v
        .get("rules")
        .and_then(|r| r.as_arr())
        .ok_or("plan without a rules array")?;
    let mut plan = FaultPlan::new(seed);
    for r in rules {
        let kind = kind_from_json(r)?;
        kind.check()?;
        let probability = r
            .get("probability")
            .and_then(|p| p.as_f64())
            .ok_or("rule without probability")?;
        let from_batch = r
            .get("from")
            .and_then(|f| f.as_f64())
            .ok_or("rule without from")? as usize;
        let until_batch = match r.get("until") {
            Some(Json::Null) | None => None,
            Some(u) => Some(u.as_f64().ok_or("non-numeric until")? as usize),
        };
        let transient = matches!(r.get("transient"), Some(Json::Bool(true)));
        plan = plan.with_rule(FaultRule {
            kind,
            probability,
            from_batch,
            until_batch,
            transient,
        });
    }
    Ok(plan)
}

// ---- shrinking ----------------------------------------------------------

/// Strictly-weaker replacements for a fault kind, strongest candidate
/// first. "Weaker" follows the recovery protocol's cost ordering: a crash
/// later in the protocol disturbs less state; an ENOSPC persists nothing
/// where a torn write leaves residue; smaller slowdown factors and delays
/// perturb less.
fn weaker_kinds(kind: &FaultKind) -> Vec<FaultKind> {
    use CrashSite::{AfterCommit, MidCheckpoint, MidJournal};
    use FaultKind::*;
    use IoFault::{BitFlip, Enospc, TornWrite};
    let half = |factor: f64| (factor / 2.0).max(2.0);
    match *kind {
        Crash { site: MidJournal } => vec![
            Crash {
                site: MidCheckpoint,
            },
            Crash { site: AfterCommit },
        ],
        Crash {
            site: MidCheckpoint,
        } => vec![Crash { site: AfterCommit }],
        Io {
            target,
            fault: BitFlip { .. },
        } => vec![
            Io {
                target,
                fault: TornWrite,
            },
            Io {
                target,
                fault: Enospc,
            },
        ],
        Io {
            target,
            fault: TornWrite,
        } => vec![Io {
            target,
            fault: Enospc,
        }],
        TransferStall { factor } if factor > 2.0 => vec![TransferStall {
            factor: half(factor),
        }],
        HashContention { factor } if factor > 2.0 => vec![HashContention {
            factor: half(factor),
        }],
        StragglerCore { core, factor } if factor > 2.0 => {
            vec![StragglerCore {
                core,
                factor: half(factor),
            }]
        }
        ServeDelay { extra_us } if extra_us > 1.0 => vec![ServeDelay {
            extra_us: extra_us / 2.0,
        }],
        DeliveryDelay { slots } if slots > 1 => vec![DeliveryDelay { slots: slots / 2 }],
        // A kill is the strongest cluster fault: try the faults that only
        // *look* like one (a silent-but-alive worker, a slow link) first.
        WorkerKill { worker } => vec![
            HeartbeatDrop { worker, beats: 2 },
            LinkDegrade {
                worker,
                factor: 2.0,
            },
        ],
        LinkDegrade { worker, factor } if factor > 2.0 => {
            vec![LinkDegrade {
                worker,
                factor: half(factor),
            }]
        }
        HeartbeatDrop { worker, beats } if beats > 1 => {
            vec![HeartbeatDrop {
                worker,
                beats: beats / 2,
            }]
        }
        _ => vec![],
    }
}

/// Delta-debug `plan` down to a schedule that still fails `still_fails`.
///
/// Greedy passes to a fixpoint, bounded by `max_evals` predicate runs:
///
/// 1. **drop** — remove each rule outright;
/// 2. **rebase** — shift each rule's window toward batch 0 (try 0, then
///    halve the distance);
/// 3. **tighten** — shrink open or multi-batch windows to one batch;
/// 4. **weaken** — substitute strictly weaker kinds (`weaker_kinds`).
///
/// The returned plan always fails the predicate (it is only replaced by
/// candidates that do). `still_fails` must be deterministic — it re-runs
/// the whole campaign, which the stack's determinism contract guarantees.
pub fn shrink<F: FnMut(&FaultPlan) -> bool>(
    plan: &FaultPlan,
    mut still_fails: F,
    max_evals: usize,
) -> FaultPlan {
    let seed = plan.seed();
    let mut best = plan.clone();
    let mut evals = 0usize;
    // One candidate: `best` with `edit` applied to its rules, adopted if it
    // still fails. `None` once the budget is spent.
    let mut attempt = |best: &mut FaultPlan, edit: &dyn Fn(&mut Vec<FaultRule>)| {
        if evals >= max_evals {
            return None;
        }
        let mut rules = best.rules().to_vec();
        edit(&mut rules);
        let cand = rules
            .into_iter()
            .fold(FaultPlan::new(seed), FaultPlan::with_rule);
        evals += 1;
        let fails = still_fails(&cand);
        if fails {
            *best = cand;
        }
        Some(fails)
    };
    let mut passes = || -> Option<()> {
        loop {
            let mut improved = false;

            // Pass 1: drop whole rules.
            let mut i = 0;
            while i < best.len() {
                if attempt(&mut best, &|r| {
                    r.remove(i);
                })? {
                    // Re-test the same index: it now holds the next rule.
                    improved = true;
                } else {
                    i += 1;
                }
            }

            // Passes 2-4: per-rule window rebasing, tightening, weakening.
            for i in 0..best.len() {
                // Rebase toward batch 0, preserving the window length.
                let mut target = 0usize;
                while target < best.rules()[i].from_batch {
                    let delta = best.rules()[i].from_batch - target;
                    if attempt(&mut best, &|r| {
                        r[i].from_batch = target;
                        r[i].until_batch = r[i].until_batch.map(|u| u.saturating_sub(delta));
                    })? {
                        improved = true;
                        break;
                    }
                    // Couldn't reach `target`; try halfway between it and
                    // the current position.
                    let cur = best.rules()[i].from_batch;
                    let next = cur - (cur - target) / 2;
                    if next == target || next >= cur {
                        break;
                    }
                    target = next;
                }

                // Tighten the window to a single batch.
                let cur = &best.rules()[i];
                if cur.until_batch != Some(cur.from_batch + 1) {
                    improved |= attempt(&mut best, &|r| {
                        r[i].until_batch = Some(r[i].from_batch + 1);
                    })?;
                }

                // Weaken the kind.
                for weaker in weaker_kinds(&best.rules()[i].kind) {
                    if attempt(&mut best, &|r| r[i].kind = weaker)? {
                        improved = true;
                        break;
                    }
                }
            }

            if !improved {
                return Some(());
            }
        }
    };
    // Ends at a fixpoint (`Some`) or when the budget runs out (`None`).
    passes();
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_plan_is_deterministic_and_nonempty() {
        for seed in 0..64 {
            let a = sample_plan(seed, 8);
            let b = sample_plan(seed, 8);
            assert_eq!(a, b, "seed {seed}");
            assert!(!a.is_empty());
            assert!(a.len() <= MAX_FAULTS as usize);
        }
    }

    #[test]
    fn sampled_space_covers_every_category() {
        let mut seen_crash = false;
        let mut seen_io = false;
        let mut seen_delay = false;
        let mut seen_schedule = false;
        let mut seen_kill = false;
        let mut seen_link = false;
        let mut seen_beats = false;
        for seed in 0..256 {
            for r in sample_plan(seed, 8).rules() {
                match r.kind {
                    FaultKind::Crash { .. } => seen_crash = true,
                    FaultKind::Io { .. } => seen_io = true,
                    FaultKind::DeliveryDelay { .. } => seen_delay = true,
                    FaultKind::TransferStall { .. }
                    | FaultKind::HashContention { .. }
                    | FaultKind::MemoryPressure { .. }
                    | FaultKind::TransferFailure => seen_schedule = true,
                    FaultKind::WorkerKill { .. } => seen_kill = true,
                    FaultKind::LinkDegrade { .. } => seen_link = true,
                    FaultKind::HeartbeatDrop { .. } => seen_beats = true,
                    _ => {}
                }
            }
        }
        assert!(seen_crash && seen_io && seen_delay && seen_schedule);
        assert!(
            seen_kill && seen_link && seen_beats,
            "cluster fault kinds must be reachable from the sampler"
        );
    }

    #[test]
    fn plan_json_round_trips() {
        for seed in 0..64 {
            let plan = sample_plan(seed, 8);
            let text = plan_to_json(&plan).to_json_string();
            let parsed = gt_telemetry::json::parse(&text).expect("self-produced JSON parses");
            let back = plan_from_json(&parsed).expect("wire form rebuilds");
            assert_eq!(back, plan, "seed {seed}");
        }
    }

    #[test]
    fn cluster_rules_round_trip_through_json() {
        let plan = FaultPlan::new(77)
            .with_worker_kill(3, 2)
            .with_link_degrade(1, 4.0, 2, Some(6))
            .with_heartbeat_drop(5, 0, 3);
        let text = plan_to_json(&plan).to_json_string();
        let parsed = gt_telemetry::json::parse(&text).unwrap();
        assert_eq!(plan_from_json(&parsed).unwrap(), plan);
    }

    #[test]
    fn shrunk_worker_kill_repro_is_single_rule_and_replayable() {
        // A noisy campaign plan whose only real trigger is the worker
        // kill: the shrinker must isolate it, and the minimized plan must
        // survive the JSON wire form (the exact bytes CI uploads and
        // `repro --chaos-replay` consumes) still failing the oracle.
        let plan = FaultPlan::new(41)
            .with_transfer_stall(8.0, 1.0)
            .with_worker_kill(6, 3)
            .with_heartbeat_drop(2, 1, 2)
            .with_delivery_delay(4, 2);
        let fails = |p: &FaultPlan| (0..10).any(|b| !p.active(b, 0).worker_kills().is_empty());
        let min = shrink(&plan, fails, 300);
        assert_eq!(min.len(), 1, "{min:?}");
        assert!(matches!(min.rules()[0].kind, FaultKind::WorkerKill { .. }));
        assert_eq!(min.rules()[0].from_batch, 0, "rebased to batch 0");
        let text = plan_to_json(&min).to_json_string();
        let replayed = plan_from_json(&gt_telemetry::json::parse(&text).unwrap()).unwrap();
        assert_eq!(replayed, min);
        assert!(fails(&replayed), "replayable repro still fails the oracle");
    }

    #[test]
    fn plan_from_json_rejects_garbage() {
        let bad = gt_telemetry::json::parse(r#"{"rules": []}"#).unwrap();
        assert!(plan_from_json(&bad).is_err());
        let bad =
            gt_telemetry::json::parse(r#"{"seed": 1, "rules": [{"kind": "warp-core"}]}"#).unwrap();
        assert!(plan_from_json(&bad).is_err());
        // Kinds every builder rejects are rejected on the wire too.
        for kind in [
            r#""kind": "transfer-stall", "factor": 0.5"#,
            r#""kind": "memory-pressure", "fraction": 0"#,
            r#""kind": "memory-pressure", "fraction": 1.5"#,
            r#""kind": "serve-delay", "extra_us": -1"#,
            r#""kind": "heartbeat-drop", "worker": 0, "beats": 0"#,
        ] {
            let text = format!(
                r#"{{"seed": 1, "rules": [{{{kind}, "probability": 1, "from": 0, "until": null}}]}}"#
            );
            let err = plan_from_json(&gt_telemetry::json::parse(&text).unwrap()).unwrap_err();
            assert!(err.contains("out of range"), "{kind}: {err}");
        }
    }

    #[test]
    fn delivery_order_is_identity_without_delays() {
        let plan = FaultPlan::new(0).with_crash_at(3, CrashSite::MidJournal);
        assert_eq!(delivery_order(&plan, 5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn delivery_order_is_a_permutation_that_delays_the_target() {
        let plan = FaultPlan::new(0).with_delivery_delay(1, 2);
        let order = delivery_order(&plan, 5);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        // Batch 1 sorts at slot 3: after batches 2 and 3, tied-but-stable
        // before the batch submitted at 3.
        assert_eq!(order, vec![0, 2, 1, 3, 4]);
    }

    #[test]
    fn shrink_finds_the_single_guilty_rule() {
        // Oracle: fails iff a crash rule exists anywhere.
        let plan = FaultPlan::new(5)
            .with_transfer_stall(4.0, 1.0)
            .with_crash_at(6, CrashSite::MidJournal)
            .with_delivery_delay(3, 2)
            .with_io_fault(2, IoTarget::Journal, IoFault::TornWrite);
        let fails = |p: &FaultPlan| (0..10).any(|b| p.active(b, 0).crash_site().is_some());
        let min = shrink(&plan, fails, 200);
        assert_eq!(min.len(), 1, "one rule suffices: {min:?}");
        let rule = &min.rules()[0];
        assert!(matches!(rule.kind, FaultKind::Crash { .. }));
        // Rebased to batch 0 and weakened to the cheapest site that still
        // fails the (site-insensitive) oracle.
        assert_eq!(rule.from_batch, 0);
        assert_eq!(
            rule.kind,
            FaultKind::Crash {
                site: CrashSite::AfterCommit
            }
        );
        assert!(fails(&min));
    }

    #[test]
    fn shrink_keeps_conjunctive_causes() {
        // Oracle: fails only when BOTH a journal io fault AND a crash are
        // scheduled — the shrinker must not drop either.
        let plan = FaultPlan::new(9)
            .with_io_fault(4, IoTarget::Journal, IoFault::BitFlip { bit: 77 })
            .with_transfer_failure(0.5)
            .with_crash_at(5, CrashSite::MidCheckpoint)
            .with_transfer_stall(8.0, 1.0);
        let fails = |p: &FaultPlan| {
            let io = (0..10).any(|b| !p.active(b, 0).io_faults().is_empty());
            let crash = (0..10).any(|b| p.active(b, 0).crash_site().is_some());
            io && crash
        };
        let min = shrink(&plan, fails, 400);
        assert_eq!(min.len(), 2, "{min:?}");
        assert!(fails(&min));
        assert!(min
            .rules()
            .iter()
            .all(|r| matches!(r.kind, FaultKind::Crash { .. } | FaultKind::Io { .. })));
        assert!(min.rules().iter().all(|r| r.from_batch == 0));
    }

    #[test]
    fn shrink_respects_the_eval_budget() {
        let plan = sample_plan(3, 8);
        let mut evals = 0usize;
        let _ = shrink(
            &plan,
            |_| {
                evals += 1;
                true
            },
            7,
        );
        assert!(evals <= 7, "{evals} evals");
    }

    #[test]
    fn shrink_is_deterministic() {
        let plan = sample_plan(17, 8);
        let fails = |p: &FaultPlan| p.durability_rule_count() > 0 || p.len() > 2;
        let a = shrink(&plan, fails, 300);
        let b = shrink(&plan, fails, 300);
        assert_eq!(a, b);
    }

    /// Pins the wire bytes of sampled plans and every `ActiveFaults` answer
    /// they give (plus one plan built from every builder), so a refactor of
    /// the fault model can prove it moved nothing.
    #[test]
    fn sampled_plans_and_their_faults_are_pinned() {
        use gt_telemetry::fnv1a;
        use std::fmt::Write;
        let wire = fnv1a((0..1000u64).flat_map(|seed| {
            plan_to_json(&sample_plan(seed, 16))
                .to_json_string()
                .into_bytes()
        }));
        let built = FaultPlan::new(99)
            .with_transfer_failure(0.3)
            .with_transfer_stall(2.5, 0.4)
            .with_straggler(5, 3.0)
            .with_straggler(5, 2.0)
            .with_straggler(1, 4.0)
            .with_transient_memory_pressure(0.5, 0.5)
            .with_serve_delay_window(120.0, 3, Some(9))
            .with_serve_delay_window(30.0, 5, None)
            .with_crash_at(4, CrashSite::MidCheckpoint)
            .with_io_fault(6, IoTarget::Checkpoint, IoFault::ShortRead)
            .with_delivery_delay(2, 5)
            .with_worker_kill(7, 6)
            .with_link_degrade(3, 2.0, 1, None)
            .with_heartbeat_drop(8, 2, 4)
            .with_rule(FaultRule {
                kind: FaultKind::MemoryPressure { fraction: 0.25 },
                probability: 1.0,
                from_batch: 10,
                until_batch: Some(12),
                transient: false,
            })
            .with_rule(FaultRule {
                kind: FaultKind::HashContention { factor: 3.0 },
                probability: 0.6,
                from_batch: 0,
                until_batch: None,
                transient: true,
            });
        let mut plans: Vec<FaultPlan> = (0..200).map(|seed| sample_plan(seed, 16)).collect();
        plans.push(built);
        let mut out = String::new();
        for plan in &plans {
            let stripped = plan.without_durability_rules();
            let counts = (
                plan.durability_rule_count(),
                stripped.durability_rule_count(),
            );
            writeln!(
                out,
                "{stripped:?} {counts:?} {:?}",
                delivery_order(plan, 16)
            )
            .unwrap();
            for b in 0..16 {
                for a in 0..3 {
                    let f = plan.active(b, a);
                    write!(
                        out,
                        "{:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?}",
                        f.is_empty(),
                        f.pcie_slowdown(),
                        f.lock_slowdown(),
                        f.fails_transfers(),
                        f.memory_fraction(),
                        f.serve_delay_us(),
                        f.crash_site(),
                        f.io_faults(),
                        f.worker_kills(),
                        f.delivery_delay(),
                        f.des_relevant(),
                    )
                    .unwrap();
                    for c in 0..8 {
                        write!(out, " {:?}", f.straggler(c)).unwrap();
                    }
                    for w in 0..4 {
                        write!(out, " {:?} {:?}", f.link_degrade(w), f.heartbeat_drops(w)).unwrap();
                    }
                    out.push('\n');
                }
            }
        }
        assert_eq!(
            (wire, fnv1a(out.into_bytes())),
            (0xf056_4c8a_efc4_d445, 0x84d5_b95b_a2e5_72ff)
        );
    }
}
