//! Write-ahead outcome journal for durable serving.
//!
//! Every [`BatchOutcome`](crate::framework::BatchOutcome) the supervisor
//! resolves — and every [`QuarantineRecord`](crate::serve::QuarantineRecord)
//! it files — is appended here *before* the outcome is returned to the
//! caller, so a crash can never lose an acknowledged result. Recovery
//! ([`Supervisor::recover`](crate::serve::Supervisor::recover)) replays the
//! journal against a fresh trainer; because the whole pipeline is
//! deterministic (docs/parallelism.md), the replayed run is bit-identical
//! to the uninterrupted one, and the journal doubles as a cross-check: any
//! divergence between recorded and replayed outcomes is a typed error.
//!
//! # On-disk format
//!
//! ```text
//! "GTJRNL01"                                   8-byte magic
//! repeat:  [u32 len][u32 crc32(payload)][payload]   one record
//! ```
//!
//! Payloads are JSON documents produced by the same
//! [`ToJson`](gt_telemetry::ToJson) impls the telemetry exporters use —
//! one serializer, two sinks. Each record is framed with its byte length
//! and a CRC-32 of the payload.
//!
//! # Torn-tail policy
//!
//! An append interrupted by a crash leaves a partial record at the tail.
//! [`scan`] distinguishes the two failure shapes:
//!
//! * a record that **extends past end-of-file**, or whose CRC mismatches
//!   **at the very tail**, is a torn append — the valid prefix is returned
//!   with `torn_tail: true` and recovery truncates it away (the in-flight
//!   outcome was never acknowledged, so dropping it is correct);
//! * a CRC mismatch **mid-file** (valid records follow) cannot be a torn
//!   append — that is bit rot or tampering, surfaced as
//!   [`GtError::CorruptJournal`].
//!
//! The scanner parses from a fully-read buffer and validates every length
//! field against the bytes actually present, so a corrupt length cannot
//! drive an allocation larger than the file itself.

use crate::error::GtError;
use crate::framework::BatchOutcome;
use crate::serve::QuarantineRecord;
use gt_graph::VId;
use gt_sim::IoTarget;
use gt_telemetry::json::obj;
use gt_telemetry::{Json, ToJson};
use gt_tensor::{chaosio, crc32::crc32};
use std::io::Write;
use std::path::Path;

/// Journal file magic (version 01).
pub const MAGIC: &[u8; 8] = b"GTJRNL01";

/// Hard ceiling on one record's payload length (16 MiB). A journal record
/// is a small JSON document — a few KiB at most — so a length field past
/// this bound cannot be real. It also cannot be a torn append: a torn
/// write leaves a *prefix* of a valid frame, so the length field is either
/// incomplete (handled as a torn header) or intact and plausible. An
/// absurd length is therefore corruption, rejected before any reader could
/// size an allocation from it.
pub const MAX_RECORD_LEN: usize = 16 << 20;

/// An open, append-only journal. Every append is framed, written, and
/// fsynced before returning — the write-ahead guarantee.
pub struct Journal {
    file: std::fs::File,
}

impl Journal {
    /// Create (or truncate) the journal at `path` and write the header.
    pub fn create(path: impl AsRef<Path>) -> Result<Journal, GtError> {
        let mut file = std::fs::File::create(path.as_ref())?;
        file.write_all(MAGIC)?;
        file.sync_all()?;
        Ok(Journal { file })
    }

    /// Open an existing journal for appending (after recovery has scanned
    /// it and truncated any torn tail).
    pub fn open_append(path: impl AsRef<Path>) -> Result<Journal, GtError> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path.as_ref())?;
        Ok(Journal { file })
    }

    fn frame(payload: &str) -> Vec<u8> {
        let bytes = payload.as_bytes();
        let mut out = Vec::with_capacity(8 + bytes.len());
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(bytes).to_le_bytes());
        out.extend_from_slice(bytes);
        out
    }

    /// Append one record durably: frame, write, fsync. The write goes
    /// through the chaos IO shim — identity in production, the injection
    /// point for torn-write/ENOSPC/bit-flip campaigns.
    pub fn append(&mut self, record: &Json) -> Result<(), GtError> {
        let frame = Self::frame(&record.to_json_string());
        chaosio::append(IoTarget::Journal, &mut self.file, &frame)?;
        Ok(())
    }

    /// Simulate a crash mid-append: write the frame header plus half the
    /// payload, fsync, and stop — exactly the torn tail a process killed
    /// inside `write_all` leaves behind. Used by crash injection
    /// ([`gt_sim::CrashSite::MidJournal`]).
    pub fn append_torn(&mut self, record: &Json) -> Result<(), GtError> {
        let frame = Self::frame(&record.to_json_string());
        let keep = 8 + (frame.len() - 8) / 2;
        self.file.write_all(&frame[..keep])?;
        self.file.sync_data()?;
        Ok(())
    }
}

/// Result of scanning a journal: the parsed valid prefix, how many bytes
/// it spans, and whether a torn tail was dropped.
#[derive(Debug)]
pub struct JournalScan {
    /// Every valid record, in append order.
    pub records: Vec<Json>,
    /// Bytes of the valid prefix (magic + whole records). Recovery
    /// truncates the file to this length before appending again.
    pub valid_len: u64,
    /// True when bytes past `valid_len` were dropped as a torn append.
    pub torn_tail: bool,
}

/// Read and scan the journal at `path`.
///
/// The read is validated against file metadata: fewer bytes than the file
/// holds (an interrupted syscall, a flaky network filesystem — or an
/// injected [`gt_sim::IoFault::ShortRead`]) is a retryable [`GtError::Io`],
/// never silently scanned as if the missing tail were a torn append. A
/// short read that truncated a committed record would otherwise replay as
/// data loss.
pub fn read_journal(path: impl AsRef<Path>) -> Result<JournalScan, GtError> {
    let path = path.as_ref();
    let bytes = chaosio::read_file(IoTarget::Journal, path)?;
    let expected = std::fs::metadata(path)?.len();
    if (bytes.len() as u64) < expected {
        return Err(GtError::Io {
            detail: format!(
                "short read on {}: got {} of {expected} bytes; retry",
                path.display(),
                bytes.len()
            ),
        });
    }
    scan(&bytes)
}

/// Scan a journal image (see the module docs for the torn-tail policy).
pub fn scan(bytes: &[u8]) -> Result<JournalScan, GtError> {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC[..] {
        return Err(GtError::CorruptJournal {
            offset: 0,
            detail: "missing GTJRNL01 magic".to_string(),
        });
    }
    let mut records = Vec::new();
    let mut pos = MAGIC.len();
    let mut torn_tail = false;
    while pos < bytes.len() {
        if pos + 8 > bytes.len() {
            torn_tail = true; // header torn mid-write
            break;
        }
        let len =
            u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4-byte slice")) as usize;
        // A fully-present length field past the record ceiling cannot come
        // from a torn append (torn writes leave prefixes of valid frames);
        // reject it as corruption before any size could be trusted.
        if len > MAX_RECORD_LEN {
            return Err(GtError::CorruptJournal {
                offset: pos as u64,
                detail: format!("record length {len} exceeds the {MAX_RECORD_LEN}-byte ceiling"),
            });
        }
        let stored = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4-byte slice"));
        let end = pos + 8 + len;
        if end > bytes.len() {
            torn_tail = true; // payload torn mid-write (or a corrupt length
            break; // field — indistinguishable, and both drop only the tail)
        }
        let payload = &bytes[pos + 8..end];
        if crc32(payload) != stored {
            if end == bytes.len() {
                torn_tail = true; // last record: torn payload bytes
                break;
            }
            return Err(GtError::CorruptJournal {
                offset: pos as u64,
                detail: format!("CRC mismatch in {len}-byte record"),
            });
        }
        let text = std::str::from_utf8(payload).map_err(|e| GtError::CorruptJournal {
            offset: pos as u64,
            detail: format!("non-UTF-8 payload: {e}"),
        })?;
        let json = gt_telemetry::json::parse(text).map_err(|e| GtError::CorruptJournal {
            offset: pos as u64,
            detail: format!("unparseable payload: {e}"),
        })?;
        records.push(json);
        pos = end;
    }
    Ok(JournalScan {
        records,
        valid_len: pos as u64,
        torn_tail,
    })
}

/// Truncate the journal at `path` to its valid prefix (drop a torn tail).
pub fn truncate_to(path: impl AsRef<Path>, valid_len: u64) -> Result<(), GtError> {
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path.as_ref())?;
    file.set_len(valid_len)?;
    file.sync_all()?;
    Ok(())
}

/// The record appended for every resolved batch: its serving index, the
/// vertex ids as submitted (what replay re-serves), the sampling fanout
/// the batch was actually served with (the gateway reduces it under
/// load, and replay must match), and the outcome in its canonical
/// telemetry JSON form.
pub fn batch_record(
    batch_index: usize,
    batch: &[VId],
    outcome: &BatchOutcome,
    fanout: usize,
) -> Json {
    batch_record_tagged(batch_index, batch, outcome, fanout, None)
}

/// [`batch_record`] with an optional owning-worker tag. The cluster
/// supervisor tags every batch with the worker whose partition owned it,
/// so recovery can enforce the per-worker batch-index ordering invariant;
/// single-node journals omit the field (and old journals never had it).
pub fn batch_record_tagged(
    batch_index: usize,
    batch: &[VId],
    outcome: &BatchOutcome,
    fanout: usize,
    worker: Option<usize>,
) -> Json {
    let mut pairs = vec![
        ("type", "batch".into()),
        ("batch_index", batch_index.into()),
        (
            "batch",
            Json::Arr(batch.iter().map(|&v| Json::from(v as u64)).collect()),
        ),
        ("fanout", fanout.into()),
        ("outcome", outcome.to_json()),
    ];
    if let Some(w) = worker {
        pairs.push(("worker", w.into()));
    }
    obj(pairs)
}

/// The record the cluster supervisor appends when a straggler hedge
/// resolves: which batch was hedged, the slow worker, the backup that ran
/// the duplicate, and which copy won. Replay skips these (they annotate
/// the schedule, not the outcome stream), but the hedge counters must
/// reconcile exactly against them.
pub fn hedge_record(batch_index: usize, victim: usize, backup: usize, backup_won: bool) -> Json {
    obj([
        ("type", "hedge".into()),
        ("batch_index", batch_index.into()),
        ("victim", victim.into()),
        ("backup", backup.into()),
        ("backup_won", Json::Bool(backup_won)),
    ])
}

/// The record appended when a batch is quarantined — the
/// [`QuarantineRecord`]'s own `ToJson` form, wrapped with a type tag.
pub fn quarantine_record(rec: &QuarantineRecord) -> Json {
    obj([("type", "quarantine".into()), ("record", rec.to_json())])
}

/// The marker appended after a checkpoint save commits: which batch the
/// parameters reflect and the CRC-32 of the full checkpoint image, so
/// replay can verify the recovered parameters byte-for-byte.
pub fn checkpoint_record(batch_index: usize, image_crc: u32) -> Json {
    obj([
        ("type", "checkpoint".into()),
        ("batch_index", batch_index.into()),
        ("image_crc", (image_crc as u64).into()),
    ])
}

/// A record's `"type"` tag.
pub fn record_type(rec: &Json) -> Option<&str> {
    rec.get("type").and_then(|t| t.as_str())
}

/// A batch record's vertex ids.
pub fn batch_ids(rec: &Json) -> Option<Vec<VId>> {
    let arr = rec.get("batch")?.as_arr()?;
    arr.iter()
        .map(|v| v.as_f64().map(|f| f as VId))
        .collect::<Option<Vec<VId>>>()
}

fn usize_field(rec: &Json, key: &str) -> Option<usize> {
    rec.get(key).and_then(|v| v.as_f64()).map(|f| f as usize)
}

/// A record's `"batch_index"` field.
pub fn record_batch_index(rec: &Json) -> Option<usize> {
    usize_field(rec, "batch_index")
}

/// A batch record's `"fanout"` field (absent in journals written before
/// the field existed; replay then uses the configured fanout).
pub fn record_fanout(rec: &Json) -> Option<usize> {
    usize_field(rec, "fanout")
}

/// A batch record's owning-worker tag (absent for single-node journals).
pub fn record_worker(rec: &Json) -> Option<usize> {
    usize_field(rec, "worker")
}

/// A hedge record's `(victim, backup, backup_won)` triple.
pub fn hedge_fields(rec: &Json) -> Option<(usize, usize, bool)> {
    let won = matches!(rec.get("backup_won")?, Json::Bool(true));
    Some((
        usize_field(rec, "victim")?,
        usize_field(rec, "backup")?,
        won,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FailReason;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gt_journal_{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<Json> {
        vec![
            batch_record(0, &[1, 2, 3], &BatchOutcome::Succeeded, 4),
            batch_record(1, &[4, 5], &BatchOutcome::Recovered { retries: 2 }, 4),
            quarantine_record(&QuarantineRecord {
                batch_index: 2,
                batch: vec![9, 9],
                reason: FailReason::InvalidBatch,
                attempts: 0,
            }),
            checkpoint_record(2, 0xDEAD_BEEF),
        ]
    }

    #[test]
    fn roundtrip_preserves_records() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("outcomes.gtj");
        let mut j = Journal::create(&path).unwrap();
        let recs = sample_records();
        for r in &recs {
            j.append(r).unwrap();
        }
        drop(j);
        let s = read_journal(&path).unwrap();
        assert!(!s.torn_tail);
        assert_eq!(s.records, recs);
        assert_eq!(s.valid_len, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_accessors() {
        let r = batch_record(7, &[10, 20], &BatchOutcome::Succeeded, 6);
        assert_eq!(record_type(&r), Some("batch"));
        assert_eq!(record_batch_index(&r), Some(7));
        assert_eq!(batch_ids(&r), Some(vec![10, 20]));
        assert_eq!(record_fanout(&r), Some(6));
        assert_eq!(record_worker(&r), None, "untagged batch has no worker");
        let c = checkpoint_record(3, 42);
        assert_eq!(record_type(&c), Some("checkpoint"));
        assert_eq!(batch_ids(&c), None);
        assert_eq!(record_fanout(&c), None);
    }

    #[test]
    fn worker_tagged_and_hedge_records_round_trip() {
        let r = batch_record_tagged(5, &[8, 9], &BatchOutcome::Succeeded, 6, Some(2));
        assert_eq!(record_type(&r), Some("batch"));
        assert_eq!(record_worker(&r), Some(2));
        assert_eq!(record_batch_index(&r), Some(5));
        // The tag is additive: every untagged accessor still works.
        assert_eq!(batch_ids(&r), Some(vec![8, 9]));
        assert_eq!(record_fanout(&r), Some(6));

        let h = hedge_record(5, 1, 3, true);
        assert_eq!(record_type(&h), Some("hedge"));
        assert_eq!(record_batch_index(&h), Some(5));
        assert_eq!(hedge_fields(&h), Some((1, 3, true)));
        assert_eq!(hedge_fields(&r), None);

        // Both survive the framed on-disk round trip.
        let dir = tmp_dir("tagged");
        let path = dir.join("outcomes.gtj");
        let mut j = Journal::create(&path).unwrap();
        j.append(&r).unwrap();
        j.append(&h).unwrap();
        drop(j);
        let s = read_journal(&path).unwrap();
        assert_eq!(s.records, vec![r, h]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncate a journal at EVERY byte length: the scan must never panic,
    /// never error (the damage is at the tail), and always return the
    /// longest prefix of whole records.
    #[test]
    fn truncation_sweep_recovers_valid_prefix() {
        let mut bytes = MAGIC.to_vec();
        let recs = sample_records();
        let mut boundaries = vec![bytes.len()];
        for r in &recs {
            let frame = Journal::frame(&r.to_json_string());
            bytes.extend_from_slice(&frame);
            boundaries.push(bytes.len());
        }
        for cut in MAGIC.len()..=bytes.len() {
            let s = scan(&bytes[..cut]).unwrap();
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(s.records.len(), whole, "cut at {cut}");
            assert_eq!(s.records[..], recs[..whole], "cut at {cut}");
            assert_eq!(s.valid_len, boundaries[whole] as u64, "cut at {cut}");
            assert_eq!(s.torn_tail, cut != boundaries[whole], "cut at {cut}");
        }
        // Cutting into the magic itself is unrecoverable corruption.
        for cut in 0..MAGIC.len() {
            assert!(matches!(
                scan(&bytes[..cut]),
                Err(GtError::CorruptJournal { .. })
            ));
        }
    }

    /// Flip a byte at every offset: either the valid prefix survives (tail
    /// damage) or a typed CorruptJournal comes back — never a panic, never
    /// a wrong record.
    #[test]
    fn corruption_sweep_typed_errors_only() {
        let mut bytes = MAGIC.to_vec();
        let recs = sample_records();
        for r in &recs {
            bytes.extend_from_slice(&Journal::frame(&r.to_json_string()));
        }
        for i in 0..bytes.len() {
            let mut copy = bytes.clone();
            copy[i] ^= 0x40;
            match scan(&copy) {
                Ok(s) => {
                    for (got, want) in s.records.iter().zip(&recs) {
                        assert_eq!(got, want, "flip at {i} produced a wrong record");
                    }
                    assert!(
                        s.records.len() < recs.len() || i >= bytes.len() - 1,
                        "flip at {i} went unnoticed"
                    );
                }
                Err(GtError::CorruptJournal { .. }) => {}
                Err(e) => panic!("flip at {i}: unexpected error {e:?}"),
            }
        }
    }

    #[test]
    fn torn_append_is_dropped_and_truncated() {
        let dir = tmp_dir("torn");
        let path = dir.join("outcomes.gtj");
        let mut j = Journal::create(&path).unwrap();
        let full = batch_record(0, &[1], &BatchOutcome::Succeeded, 4);
        j.append(&full).unwrap();
        j.append_torn(&batch_record(1, &[2], &BatchOutcome::Succeeded, 4))
            .unwrap();
        drop(j);
        let s = read_journal(&path).unwrap();
        assert!(s.torn_tail);
        assert_eq!(s.records, vec![full.clone()]);
        truncate_to(&path, s.valid_len).unwrap();
        // After truncation the journal is clean and appendable again.
        let mut j = Journal::open_append(&path).unwrap();
        let next = batch_record(1, &[2], &BatchOutcome::Succeeded, 4);
        j.append(&next).unwrap();
        drop(j);
        let s = read_journal(&path).unwrap();
        assert!(!s.torn_tail);
        assert_eq!(s.records, vec![full, next]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn midfile_corruption_is_a_typed_error() {
        let mut bytes = MAGIC.to_vec();
        let recs = sample_records();
        for r in &recs {
            bytes.extend_from_slice(&Journal::frame(&r.to_json_string()));
        }
        // Flip one payload byte of the FIRST record (offset 16 is inside
        // its payload); valid records follow, so this is not a torn tail.
        bytes[20] ^= 0x01;
        match scan(&bytes) {
            Err(GtError::CorruptJournal { offset, .. }) => assert_eq!(offset, 8),
            other => panic!("expected CorruptJournal, got {other:?}"),
        }
    }

    /// A corrupt length field past the record ceiling is typed corruption,
    /// rejected before any reader could size an allocation from it. It is
    /// NOT a torn tail: a torn append leaves a prefix of a valid frame, so
    /// a fully-present absurd length can only be bit rot or tampering.
    #[test]
    fn huge_length_claim_is_corruption_not_torn_tail() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // len: 4 GiB
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"tiny");
        match scan(&bytes) {
            Err(GtError::CorruptJournal { offset, detail }) => {
                assert_eq!(offset, MAGIC.len() as u64);
                assert!(detail.contains("ceiling"), "{detail}");
            }
            other => panic!("expected CorruptJournal, got {other:?}"),
        }
        // Just under the ceiling the length is plausible, so a record that
        // extends past end-of-file is still handled as a torn tail.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&(MAX_RECORD_LEN as u32).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"tiny");
        let s = scan(&bytes).unwrap();
        assert!(s.torn_tail);
        assert!(s.records.is_empty());
        assert_eq!(s.valid_len, MAGIC.len() as u64);
    }

    /// Journal reads validate byte counts against metadata: a short read
    /// must surface as a retryable I/O error, not scan the truncated
    /// buffer (which would silently drop committed records as a "torn
    /// tail" and replay as data loss).
    #[test]
    fn short_read_is_retryable_not_data_loss() {
        let dir = tmp_dir("short_read");
        let path = dir.join("outcomes.gtj");
        let mut j = Journal::create(&path).unwrap();
        for r in &sample_records() {
            j.append(r).unwrap();
        }
        drop(j);
        let _g = gt_tensor::chaosio::arm(&[(IoTarget::Journal, gt_sim::IoFault::ShortRead)]);
        match read_journal(&path) {
            Err(GtError::Io { detail }) => assert!(detail.contains("short read"), "{detail}"),
            other => panic!("expected retryable Io error, got {other:?}"),
        }
        // The fault was consumed; the retry sees every record.
        let s = read_journal(&path).unwrap();
        assert_eq!(s.records.len(), sample_records().len());
        assert!(!s.torn_tail);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Injected journal append faults leave exactly the residue recovery
    /// is built for: a torn half-frame (truncatable tail), nothing at all
    /// (ENOSPC), or a CRC-detectable flipped record.
    #[test]
    fn injected_append_faults_leave_recoverable_residue() {
        use gt_sim::IoFault;
        let dir = tmp_dir("inject");
        let path = dir.join("outcomes.gtj");
        let rec = batch_record(0, &[1], &BatchOutcome::Succeeded, 4);

        // Torn write: valid prefix survives, tail truncates away.
        let mut j = Journal::create(&path).unwrap();
        j.append(&rec).unwrap();
        let g = gt_tensor::chaosio::arm(&[(IoTarget::Journal, IoFault::TornWrite)]);
        assert!(j.append(&rec).is_err());
        drop(g);
        let s = read_journal(&path).unwrap();
        assert!(s.torn_tail);
        assert_eq!(s.records, vec![rec.clone()]);

        // ENOSPC: nothing persisted, journal still clean after truncation.
        truncate_to(&path, s.valid_len).unwrap();
        let mut j = Journal::open_append(&path).unwrap();
        let g = gt_tensor::chaosio::arm(&[(IoTarget::Journal, IoFault::Enospc)]);
        assert!(j.append(&rec).is_err());
        drop(g);
        let s = read_journal(&path).unwrap();
        assert!(!s.torn_tail);
        assert_eq!(s.records, vec![rec.clone()]);

        // Bit flip: append "succeeds" but the CRC framing catches it —
        // either a droppable tail or typed corruption, never a wrong
        // record (the corruption-sweep test covers every flip position).
        let g = gt_tensor::chaosio::arm(&[(IoTarget::Journal, IoFault::BitFlip { bit: 70 })]);
        j.append(&rec).unwrap();
        drop(g);
        match read_journal(&path) {
            Ok(s) => assert_eq!(s.records, vec![rec.clone()], "flip must not alter records"),
            Err(GtError::CorruptJournal { .. }) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
