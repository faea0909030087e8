//! End-to-end durability tests: crash-consistent checkpoints, the
//! write-ahead outcome journal, and replay-based recovery.
//!
//! The load-bearing property is **kill-at-any-point bit-identity**: for a
//! crash injected at every site of the durability protocol, on every batch
//! index, rebuilding a fresh supervisor and recovering from the journal —
//! then serving the remaining batches — must produce the exact final
//! parameters and outcome sequence of a run that never crashed.

use gt_core::journal::{self, Record};
use gt_core::{DurabilityConfig, GtError, ServeCtx, Supervisor};
use gt_sim::{CrashSite, FaultPlan, IoFault, IoTarget};
use gt_telemetry::{json::parse, Json, ToJson};
use gt_tensor::{checkpoint, crc32::crc32};
use std::path::{Path, PathBuf};

mod common;
use common::{batches_with_poison as batches, data, trainer};

/// A serving workload that exercises the whole outcome alphabet comes from
/// `common`: mostly clean batches, transfer faults that force retries (the
/// plan below), and one poison batch that gets quarantined and journaled.
fn tmp_dir(name: &str) -> PathBuf {
    common::tmp_dir("durability", name)
}

/// The base fault plan shared by crashed and uncrashed runs. The crash
/// rule is appended LAST so that (per-rule hashing) the transfer-failure
/// rolls are identical with and without it.
fn base_plan() -> FaultPlan {
    FaultPlan::new(42).with_transfer_failure(0.25)
}

fn cfg(dir: &std::path::Path) -> DurabilityConfig {
    DurabilityConfig {
        dir: dir.to_path_buf(),
        checkpoint_every: 2,
    }
}

/// Serve the whole workload without any crash; return (outcome JSON
/// sequence, final params image).
fn reference_run(n: usize) -> (Vec<String>, Vec<u8>) {
    let d = data();
    let mut sup = Supervisor::new(trainer(), base_plan());
    let mut outcomes = Vec::new();
    for b in batches(n) {
        let r = sup.serve(&d, &b, ServeCtx::default()).unwrap().report;
        outcomes.push(r.outcome.to_json().to_json_string());
    }
    (outcomes, checkpoint::to_bytes(sup.trainer.params()))
}

#[test]
fn durable_serving_is_bit_identical_to_plain() {
    let n = 6;
    let (ref_outcomes, ref_params) = reference_run(n);
    let dir = tmp_dir("bitident");
    let d = data();
    let mut t = trainer();
    t.telemetry = gt_telemetry::Telemetry::recording();
    let mut sup = Supervisor::new(t, base_plan());
    sup.make_durable(cfg(&dir)).unwrap();
    let mut outcomes = Vec::new();
    for b in batches(n) {
        let r = sup.serve(&d, &b, ServeCtx::default()).unwrap().report;
        outcomes.push(r.outcome.to_json().to_json_string());
    }
    assert_eq!(outcomes, ref_outcomes);
    assert_eq!(checkpoint::to_bytes(sup.trainer.params()), ref_params);

    // The on-disk checkpoint (periodic cadence: every 2 batches, so batch 5
    // committed one) is a valid artifact of some replayed prefix; after an
    // explicit final checkpoint it equals the final params exactly.
    sup.checkpoint_now().unwrap();
    let on_disk = checkpoint::load_file(cfg(&dir).checkpoint_path()).unwrap();
    assert_eq!(checkpoint::to_bytes(&on_disk), ref_params);

    // The journal holds one batch record per batch (plus quarantine and
    // checkpoint records), outcomes matching what the caller saw.
    let scan = journal::read_journal(cfg(&dir).journal_path()).unwrap();
    assert!(!scan.torn_tail);
    assert_eq!(
        scan.batch_outcomes().map(|(_, o)| o).collect::<Vec<_>>(),
        ref_outcomes
    );
    let quarantines = scan
        .records
        .iter()
        .filter(|r| matches!(r, Record::Quarantine(_)))
        .count();
    assert_eq!(quarantines, 1, "the poison batch must be journaled");
    // Every record on disk — batch, quarantine, and checkpoint markers
    // alike — went through the one counted append.
    assert_eq!(
        sup.trainer
            .telemetry
            .snapshot()
            .counter("gt_journal_records_total"),
        scan.records.len() as u64
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// THE tentpole property: inject a crash at every durability-protocol site
/// on every batch index; recover a fresh supervisor from the journal and
/// finish the workload. Final parameters and the full outcome sequence
/// must be bit-identical to the never-crashed reference.
#[test]
fn kill_at_any_point_recovers_bit_identically() {
    let n = 6;
    let (ref_outcomes, ref_params) = reference_run(n);
    let d = data();
    for site in [
        CrashSite::MidJournal,
        CrashSite::MidCheckpoint,
        CrashSite::AfterCommit,
    ] {
        for crash_batch in 0..n {
            let dir = tmp_dir(&format!("kill_{}_{crash_batch}", site.label()));
            let plan = base_plan().with_crash_at(crash_batch, site);
            let mut sup = Supervisor::new(trainer(), plan.clone());
            sup.make_durable(cfg(&dir)).unwrap();
            let all = batches(n);

            // Serve until the injected crash kills the "process".
            let mut next = 0usize;
            let mut crashed = false;
            while next < n {
                match sup.serve(&d, &all[next], ServeCtx::default()) {
                    Ok(_) => next += 1,
                    Err(GtError::InjectedCrash { site: s }) => {
                        assert_eq!(s, site);
                        crashed = true;
                        break;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            assert!(crashed, "crash at batch {crash_batch} never fired");
            drop(sup); // the process is dead; all in-memory state is gone

            // Restart: fresh supervisor, same configuration, recover.
            let mut sup = Supervisor::new(trainer(), plan);
            let report = sup.recover(&d, cfg(&dir)).unwrap_or_else(|e| {
                panic!("recovery failed ({} @ {crash_batch}): {e}", site.label())
            });
            let expect_replayed = match site {
                // The torn record was dropped: the crashed batch re-serves.
                CrashSite::MidJournal => crash_batch,
                // The batch committed before the crash.
                CrashSite::MidCheckpoint | CrashSite::AfterCommit => crash_batch + 1,
            };
            assert_eq!(
                report.batches_replayed,
                expect_replayed,
                "{} @ {crash_batch}",
                site.label()
            );
            assert_eq!(report.torn_tail_dropped, site == CrashSite::MidJournal);

            // Resume at the exact batch index and finish the workload.
            for b in &all[report.batches_replayed..] {
                sup.serve(&d, b, ServeCtx::default()).unwrap_or_else(|e| {
                    panic!(
                        "post-recovery serve failed ({} @ {crash_batch}): {e}",
                        site.label()
                    )
                });
            }

            // Bit-identity of the final parameters...
            assert_eq!(
                checkpoint::to_bytes(sup.trainer.params()),
                ref_params,
                "params diverged ({} @ {crash_batch})",
                site.label()
            );
            // ...and of the complete journaled outcome sequence.
            let scan = journal::read_journal(cfg(&dir).journal_path()).unwrap();
            assert_eq!(
                scan.batch_outcomes().map(|(_, o)| o).collect::<Vec<_>>(),
                ref_outcomes,
                "outcomes diverged ({} @ {crash_batch})",
                site.label()
            );
            // The recovered run's checkpoint loads and reflects real state.
            let on_disk = checkpoint::load_file(cfg(&dir).checkpoint_path()).unwrap();
            assert!(on_disk.names().count() > 0);
            // No torn staging file is left behind.
            assert!(!checkpoint::tmp_path(&cfg(&dir).checkpoint_path()).exists());
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Truncate the journal at (and just past) every record boundary: recovery
/// must replay exactly the surviving whole records, never panic, and leave
/// a clean appendable journal.
#[test]
fn journal_truncation_at_record_boundaries_recovers() {
    let n = 4;
    let dir = tmp_dir("trunc_source");
    let d = data();
    let mut sup = Supervisor::new(trainer(), base_plan());
    sup.make_durable(cfg(&dir)).unwrap();
    for b in batches(n) {
        sup.serve(&d, &b, ServeCtx::default()).unwrap();
    }
    let bytes = std::fs::read(cfg(&dir).journal_path()).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // Record boundaries, recomputed by a raw scan of the frame headers.
    let mut boundaries = vec![8usize];
    boundaries.extend(frames(&bytes).iter().map(|&(_, end, _)| end));
    assert_eq!(*boundaries.last().unwrap(), bytes.len());

    for (bi, &cut) in boundaries.iter().enumerate() {
        // Exact boundary, and a torn cut 5 bytes into the next record.
        for cut in [cut, (cut + 5).min(bytes.len())] {
            let dir = tmp_dir(&format!("trunc_{bi}_{cut}"));
            std::fs::write(cfg(&dir).journal_path(), &bytes[..cut]).unwrap();
            let mut sup = Supervisor::new(trainer(), base_plan());
            let report = sup
                .recover(&d, cfg(&dir))
                .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            // Replayed batches = batch records wholly inside the prefix.
            let scan = journal::read_journal(cfg(&dir).journal_path()).unwrap();
            let whole_batches = scan.batch_outcomes().count();
            assert_eq!(report.batches_replayed, whole_batches, "cut at {cut}");
            assert!(!scan.torn_tail, "recovery must truncate the torn tail");
            // The recovered supervisor keeps serving durably.
            sup.serve(&d, &[100, 101, 102], ServeCtx::default())
                .unwrap();
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Mid-file corruption (not a torn tail) is a typed error, not a panic and
/// not a silent partial recovery.
#[test]
fn midfile_journal_corruption_is_surfaced() {
    let dir = tmp_dir("midfile");
    let d = data();
    let mut sup = Supervisor::new(trainer(), base_plan());
    sup.make_durable(cfg(&dir)).unwrap();
    for b in batches(3) {
        sup.serve(&d, &b, ServeCtx::default()).unwrap();
    }
    let path = cfg(&dir).journal_path();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[20] ^= 0x01; // inside the first record's payload
    std::fs::write(&path, &bytes).unwrap();
    let mut fresh = Supervisor::new(trainer(), base_plan());
    match fresh.recover(&d, cfg(&dir)) {
        Err(GtError::CorruptJournal { .. }) => {}
        other => panic!("expected CorruptJournal, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every frame of a journal image: `(start, end, payload)`, read from the
/// raw frame headers.
fn frames(bytes: &[u8]) -> Vec<(usize, usize, Json)> {
    let mut out = Vec::new();
    let mut pos = 8usize;
    while pos + 8 <= bytes.len() {
        let end = pos + 8 + u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let payload = std::str::from_utf8(&bytes[pos + 8..end]).unwrap();
        out.push((pos, end, parse(payload).unwrap()));
        pos = end;
    }
    out
}

/// A CRC-valid record whose field is not an exact non-negative integer
/// in range is corruption at that record's frame, naming the field —
/// never a lossy cast that replays something else. So is a record of a
/// type this reader does not know: the straggler-hedge record older
/// cluster journals carry fails at its own frame, naming `type`, instead
/// of being skipped.
#[test]
fn inexact_integer_fields_are_corrupt_journal() {
    let dir = tmp_dir("inexact_source");
    let d = data();
    let mut sup = Supervisor::new(trainer(), base_plan());
    sup.make_durable(cfg(&dir)).unwrap();
    for b in batches(3) {
        sup.serve(&d, &b, ServeCtx::default()).unwrap();
    }
    let bytes = std::fs::read(cfg(&dir).journal_path()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let frames = frames(&bytes);
    let cases = [
        ("batch", "batch_index", Json::Num(0.5)),
        ("batch", "fanout", Json::Num(3.7)),
        ("batch", "batch", Json::Arr(vec![Json::Num(-1.0)])),
        ("batch", "batch", Json::Arr(vec![Json::Num(4294967296.0)])),
        ("batch", "batch_index", Json::from("x")),
        ("checkpoint", "image_crc", Json::Num(4294967296.0)),
    ];
    // `(frame bytes replaced, CRC-valid payload framed in their place,
    // the field the error names)`.
    let mut edits: Vec<(std::ops::Range<usize>, String, &str)> = cases
        .into_iter()
        .map(|(tag, field, value)| {
            // Re-frame the first `tag` record with `field` replaced.
            let (start, end, rec) = frames
                .iter()
                .find(|(_, _, rec)| rec.get("type").and_then(Json::as_str) == Some(tag))
                .unwrap();
            let Json::Obj(mut pairs) = rec.clone() else {
                panic!("record is an object")
            };
            pairs.iter_mut().find(|(k, _)| k == field).unwrap().1 = value;
            (*start..*end, Json::Obj(pairs).to_json_string(), field)
        })
        .collect();
    // A hedge record as older cluster journals wrote it, after batch 0.
    let hedge = r#"{"type":"hedge","batch_index":0,"victim":3,"backup":0,"backup_won":true}"#;
    edits.push((frames[0].1..frames[0].1, hedge.to_string(), "type"));
    for (i, (range, payload, field)) in edits.into_iter().enumerate() {
        let start = range.start;
        let mut image = bytes[..start].to_vec();
        image.extend((payload.len() as u32).to_le_bytes());
        image.extend(crc32(payload.as_bytes()).to_le_bytes());
        image.extend(payload.as_bytes());
        image.extend(&bytes[range.end..]);

        let dir = tmp_dir(&format!("inexact_{i}"));
        std::fs::write(cfg(&dir).journal_path(), &image).unwrap();
        match Supervisor::new(trainer(), base_plan()).recover(&d, cfg(&dir)) {
            Err(GtError::CorruptJournal { offset, detail }) => {
                assert_eq!(offset, start as u64, "{payload}");
                assert!(detail.contains(&format!("`{field}`")), "{detail}");
            }
            other => panic!("{payload}: expected CorruptJournal, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Recovery under a DIFFERENT trainer configuration diverges from the
/// journal and says so — the journal's outcomes double as a cross-check.
#[test]
fn replay_divergence_is_detected() {
    let dir = tmp_dir("diverge");
    let d = data();
    let mut sup = Supervisor::new(trainer(), base_plan());
    sup.make_durable(cfg(&dir)).unwrap();
    for b in batches(4) {
        sup.serve(&d, &b, ServeCtx::default()).unwrap();
    }
    // Same plan, different sampler seed: replayed losses (and eventually
    // outcomes or checkpoint CRCs) cannot match the journal.
    let mut other = trainer();
    other.sampler.seed = 999;
    let mut fresh = Supervisor::new(other, base_plan());
    match fresh.recover(&d, cfg(&dir)) {
        Err(GtError::ReplayDiverged { .. }) => {}
        // A different seed can by chance reproduce every outcome label —
        // but then the checkpoint CRC check must catch it instead.
        Ok(_) => panic!("divergent replay accepted"),
        Err(e) => panic!("unexpected error: {e}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Without make_durable/recover, `serve` simply does not journal; the
/// durable-only calls are typed errors.
#[test]
fn durable_calls_require_setup() {
    let d = data();
    let mut sup = Supervisor::new(trainer(), FaultPlan::new(0));
    assert!(sup.serve(&d, &[0, 1], ServeCtx::default()).is_ok());
    assert!(!sup.is_durable());
    assert!(matches!(sup.checkpoint_now(), Err(GtError::Io { .. })));
}

/// Serve `n` batches durably under `plan` the way a deployment does: a
/// crash or storage fault comes back as the supervisor's typed error and
/// is answered by a restart (a fresh supervisor recovers from the journal
/// and resumes at the recovered index). Returns the last supervisor and
/// the errors that forced a restart.
fn serve_with_restarts(plan: &FaultPlan, dir: &Path, n: usize) -> (Supervisor, Vec<GtError>) {
    let d = data();
    let all = batches(n);
    let mut sup = Supervisor::new(trainer(), plan.clone());
    sup.make_durable(cfg(dir)).unwrap();
    let mut restarts = Vec::new();
    while sup.batches_served() < n {
        match sup.serve(&d, &all[sup.batches_served()], ServeCtx::default()) {
            Ok(_) => {}
            Err(e @ (GtError::InjectedCrash { .. } | GtError::Io { .. })) => {
                restarts.push(e);
                assert!(restarts.len() <= 8, "restart loop: {restarts:?}");
                sup = Supervisor::new(trainer(), plan.clone());
                sup.recover(&d, cfg(dir)).unwrap();
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    (sup, restarts)
}

/// Rewrite the journal file from scratch with `records`.
fn rewrite(cfg: &DurabilityConfig, records: &[Record]) {
    let mut j = journal::Journal::create(cfg.journal_path()).unwrap();
    for r in records {
        j.append(r).unwrap();
    }
}

/// Recover a fresh supervisor from `cfg`'s journal, which must fail
/// replay's sequential-index check.
fn assert_replay_out_of_order(cfg: DurabilityConfig) {
    let mut fresh = Supervisor::new(trainer(), FaultPlan::new(42));
    match fresh.recover(&data(), cfg) {
        Err(GtError::ReplayDiverged { detail, .. }) => {
            assert!(
                detail.contains("out of order"),
                "unexpected detail: {detail}"
            );
        }
        other => panic!("reordered journal must diverge, got {other:?}"),
    }
}

#[test]
fn shuffled_journal_is_rejected_not_silently_reordered() {
    let dir = tmp_dir("shuffled");
    serve_with_restarts(&FaultPlan::new(42), &dir, 4);
    let cfg = DurabilityConfig::new(&dir);
    let scan = journal::read_journal(cfg.journal_path()).unwrap();

    // Swap the first two batch records and rewrite the journal.
    let mut records = scan.records.clone();
    let batch_pos: Vec<usize> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r, Record::Batch { .. }))
        .map(|(i, _)| i)
        .collect();
    records.swap(batch_pos[0], batch_pos[1]);
    rewrite(&cfg, &records);
    assert_replay_out_of_order(cfg);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_batch_record_is_rejected_out_of_order() {
    let dir = tmp_dir("dup_record");
    serve_with_restarts(&FaultPlan::new(42), &dir, 4);
    let cfg = DurabilityConfig::new(&dir);
    let scan = journal::read_journal(cfg.journal_path()).unwrap();

    // Re-append a copy of the first batch record at the tail: replay
    // expects batch 4 there, so the sequential-index check must fire.
    let mut records = scan.records.clone();
    let first_batch = records
        .iter()
        .find(|r| matches!(r, Record::Batch { .. }))
        .unwrap()
        .clone();
    records.push(first_batch);
    rewrite(&cfg, &records);
    assert_replay_out_of_order(cfg);
    std::fs::remove_dir_all(&dir).ok();
}

/// A failed checkpoint write is the same process death as a failed
/// journal append: restart + recover heals either, at any batch, and
/// lands on the fault-free outcome stream and checkpoint.
#[test]
fn storage_faults_on_journal_and_checkpoint_recover_alike() {
    let n = 4;
    let run = |plan: FaultPlan, name: &str| {
        let dir = tmp_dir(name);
        let (mut sup, restarts) = serve_with_restarts(&plan, &dir, n);
        sup.checkpoint_now().unwrap();
        let scan = journal::read_journal(cfg(&dir).journal_path()).unwrap();
        let stream: Vec<(usize, String)> = scan.batch_outcomes().collect();
        let params = std::fs::read(cfg(&dir).checkpoint_path()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (stream, params, restarts)
    };
    let (ref_stream, ref_params, _) = run(FaultPlan::new(42), "io_ref");
    for target in [IoTarget::Journal, IoTarget::Checkpoint] {
        for fault in [IoFault::Enospc, IoFault::TornWrite] {
            for batch in [1, 3] {
                let plan = FaultPlan::new(42).with_io_fault(batch, target, fault);
                let name = format!("io_{target:?}_{fault:?}_{batch}");
                let (stream, params, restarts) = run(plan, &name);
                assert!(
                    matches!(restarts[..], [GtError::Io { .. }]),
                    "{name}: the fault must fire once: {restarts:?}"
                );
                assert_eq!(stream, ref_stream, "{name}: outcome stream");
                assert!(params == ref_params, "{name}: final checkpoint diverged");
            }
        }
    }
}
