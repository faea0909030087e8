//! Write-ahead outcome journal for durable serving.
//!
//! Every [`BatchOutcome`] the supervisor resolves — and every
//! [`QuarantineRecord`] it files — is appended here *before* the outcome
//! is returned to the caller, so a crash can never lose an acknowledged
//! result. Recovery
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
//! Each payload is one [`Record`] as a JSON object whose `"type"` names
//! the variant (`batch`, `quarantine`, `checkpoint`; the fields
//! are tabulated in docs/fault_model.md). [`Record`]'s [`ToJson`] impl is
//! the one encoder and [`scan`] the one decoder. Every number decodes only
//! as an exact non-negative integer in its field's range, and a batch
//! record without `fanout` replays at the configured fanout. A CRC-valid
//! payload that does not decode is [`GtError::CorruptJournal`] at its
//! frame's offset, naming the field.
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
use crate::framework::{BatchOutcome, FailReason};
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

/// One journal record: the journal's whole wire format (module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A resolved batch: its serving index, the vertex ids as submitted
    /// (what replay re-serves), the fanout it was sampled with (`None`
    /// replays at the configured fanout), and its outcome's telemetry
    /// JSON.
    Batch {
        index: usize,
        ids: Vec<VId>,
        fanout: Option<usize>,
        outcome: Json,
    },
    /// A quarantined batch, appended right after its batch record.
    Quarantine(QuarantineRecord),
    /// A committed checkpoint: the last batch it reflects and its
    /// [`image_crc`](gt_tensor::checkpoint::image_crc), which replay
    /// verifies against the replayed parameters.
    Checkpoint { index: usize, image_crc: u32 },
}

impl Record {
    /// The `"type"` tag naming the variant on disk.
    fn tag(&self) -> &'static str {
        match self {
            Record::Batch { .. } => "batch",
            Record::Quarantine(_) => "quarantine",
            Record::Checkpoint { .. } => "checkpoint",
        }
    }

    /// The encoded payload, as [`Journal::append`] frames it.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_json_string()
    }

    /// Decode one payload; `Err` names the first missing or invalid field.
    fn decode(rec: &Json) -> Result<Record, &'static str> {
        Ok(match rec.get("type").and_then(Json::as_str) {
            Some("batch") => Record::Batch {
                index: int(rec, "batch_index")?,
                ids: vids(rec, "batch")?,
                fanout: optional(rec, "fanout")?,
                outcome: rec.get("outcome").ok_or("outcome")?.clone(),
            },
            Some("quarantine") => {
                let q = rec.get("record").ok_or("record")?;
                let reason = q.get("reason").and_then(Json::as_str);
                Record::Quarantine(QuarantineRecord {
                    batch_index: int(q, "batch_index")?,
                    batch: vids(q, "batch")?,
                    reason: [
                        FailReason::TransferFailure,
                        FailReason::OutOfMemory,
                        FailReason::InvalidBatch,
                    ]
                    .into_iter()
                    .find(|r| reason == Some(r.label()))
                    .ok_or("reason")?,
                    attempts: int(q, "attempts")?,
                })
            }
            Some("checkpoint") => Record::Checkpoint {
                index: int(rec, "batch_index")?,
                image_crc: int(rec, "image_crc")?,
            },
            _ => return Err("type"),
        })
    }
}

impl ToJson for Record {
    fn to_json(&self) -> Json {
        let ids = |ids: &[VId]| Json::Arr(ids.iter().map(|&v| Json::from(u64::from(v))).collect());
        let mut pairs = vec![("type", Json::from(self.tag()))];
        match self {
            Record::Batch {
                index,
                ids: batch,
                fanout,
                outcome,
            } => {
                pairs.extend([("batch_index", (*index).into()), ("batch", ids(batch))]);
                pairs.extend(fanout.map(|f| ("fanout", f.into())));
                pairs.push(("outcome", outcome.clone()));
            }
            Record::Quarantine(q) => pairs.push((
                "record",
                obj([
                    ("batch_index", q.batch_index.into()),
                    ("batch", ids(&q.batch)),
                    ("reason", q.reason.to_json()),
                    ("attempts", q.attempts.into()),
                ]),
            )),
            Record::Checkpoint { index, image_crc } => pairs.extend([
                ("batch_index", (*index).into()),
                ("image_crc", u64::from(*image_crc).into()),
            ]),
        }
        obj(pairs)
    }
}

/// Field `key` of `rec` as a `T`: an exact non-negative integer in range.
fn int<T: TryFrom<u64>>(rec: &Json, key: &'static str) -> Result<T, &'static str> {
    rec.get(key).and_then(uint).ok_or(key)
}

/// [`int`] for a field that may be absent.
fn optional(rec: &Json, key: &'static str) -> Result<Option<usize>, &'static str> {
    rec.get(key).map(|v| uint(v).ok_or(key)).transpose()
}

/// Field `key` of `rec` as vertex ids.
fn vids(rec: &Json, key: &'static str) -> Result<Vec<VId>, &'static str> {
    let arr = rec.get(key).and_then(Json::as_arr).ok_or(key)?;
    arr.iter().map(|v| uint(v).ok_or(key)).collect()
}

/// `v` as a `T`, when it is an exact non-negative integer in range.
fn uint<T: TryFrom<u64>>(v: &Json) -> Option<T> {
    match *v {
        // `u64::MAX as f64` is 2^64: every integral f64 below it fits.
        Json::Num(f) if f >= 0.0 && f < u64::MAX as f64 && f.fract() == 0.0 => {
            T::try_from(f as u64).ok()
        }
        _ => None,
    }
}

/// The record appended for a resolved batch served at `fanout`.
pub fn batch_record(index: usize, batch: &[VId], outcome: &BatchOutcome, fanout: usize) -> Record {
    Record::Batch {
        index,
        ids: batch.to_vec(),
        fanout: Some(fanout),
        outcome: outcome.to_json(),
    }
}

/// A record's `"type"` tag.
pub fn record_type(rec: &Record) -> Option<&'static str> {
    Some(rec.tag())
}

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
    pub fn append(&mut self, record: &Record) -> Result<(), GtError> {
        let frame = Self::frame(&record.to_json_string());
        chaosio::append(IoTarget::Journal, &mut self.file, &frame)?;
        Ok(())
    }

    /// Simulate a crash mid-append: write the frame header plus half the
    /// payload, fsync, and stop — exactly the torn tail a process killed
    /// inside `write_all` leaves behind. Used by crash injection
    /// ([`gt_sim::CrashSite::MidJournal`]).
    pub fn append_torn(&mut self, record: &Record) -> Result<(), GtError> {
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
    pub records: Vec<Record>,
    /// Bytes of the valid prefix (magic + whole records). Recovery
    /// truncates the file to this length before appending again.
    pub valid_len: u64,
    /// True when bytes past `valid_len` were dropped as a torn append.
    pub torn_tail: bool,
}

impl JournalScan {
    /// The outcome stream: `(index, outcome JSON)` of every batch record,
    /// in append order.
    pub fn batch_outcomes(&self) -> impl Iterator<Item = (usize, String)> + '_ {
        self.records.iter().filter_map(|r| match r {
            Record::Batch { index, outcome, .. } => Some((*index, outcome.to_json_string())),
            _ => None,
        })
    }
}

/// Read and scan the journal at `path`. A short read
/// ([`chaosio::read_whole`]) is a retryable [`GtError::Io`], never scanned
/// as if the missing tail were a torn append: a short read that truncated
/// a committed record would otherwise replay as data loss.
pub fn read_journal(path: impl AsRef<Path>) -> Result<JournalScan, GtError> {
    scan(&chaosio::read_whole(IoTarget::Journal, path.as_ref())?)
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
        let corrupt = |detail: String| GtError::CorruptJournal {
            offset: pos as u64,
            detail,
        };
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
            return Err(corrupt(format!(
                "record length {len} exceeds the {MAX_RECORD_LEN}-byte ceiling"
            )));
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
            return Err(corrupt(format!("CRC mismatch in {len}-byte record")));
        }
        let text =
            std::str::from_utf8(payload).map_err(|e| corrupt(format!("non-UTF-8 payload: {e}")))?;
        let json = gt_telemetry::json::parse(text)
            .map_err(|e| corrupt(format!("unparseable payload: {e}")))?;
        let record = Record::decode(&json)
            .map_err(|field| corrupt(format!("missing or invalid `{field}`")))?;
        records.push(record);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FailReason;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gt_journal_{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<Record> {
        vec![
            batch_record(0, &[1, 2, 3], &BatchOutcome::Succeeded, 4),
            batch_record(1, &[4, 5], &BatchOutcome::Recovered { retries: 2 }, 4),
            Record::Quarantine(QuarantineRecord {
                batch_index: 2,
                batch: vec![9, 9],
                reason: FailReason::InvalidBatch,
                attempts: 0,
            }),
            Record::Checkpoint {
                index: 2,
                image_crc: 0xDEAD_BEEF,
            },
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
        assert_eq!(
            r,
            Record::Batch {
                index: 7,
                ids: vec![10, 20],
                fanout: Some(6),
                outcome: BatchOutcome::Succeeded.to_json(),
            }
        );
        // The on-disk field names (docs/fault_model.md).
        let j = r.to_json();
        assert_eq!(j.get("type").and_then(Json::as_str), Some("batch"));
        assert_eq!(j.get("batch_index").and_then(uint::<usize>), Some(7));
        assert_eq!(vids(&j, "batch"), Ok(vec![10, 20]));
        assert_eq!(optional(&j, "fanout"), Ok(Some(6)));
        // Batch records once carried a cluster `"worker"` key; a journal
        // written then still decodes, to the untagged record.
        let payload = r.to_json_string();
        let tagged = format!("{},\"worker\":2}}", &payload[..payload.len() - 1]);
        let mut bytes = MAGIC.to_vec();
        bytes.extend(Journal::frame(&tagged));
        assert_eq!(scan(&bytes).unwrap().records, vec![r.clone()]);
        let c = Record::Checkpoint {
            index: 3,
            image_crc: 42,
        };
        assert_eq!(record_type(&c), Some("checkpoint"));
        let j = c.to_json();
        assert!(j.get("batch").is_none());
        assert!(j.get("fanout").is_none());
        assert_eq!(j.get("image_crc").and_then(uint::<u32>), Some(42));
    }

    /// Every variant, with `fanout` both present and absent, survives encode → frame → scan unchanged.
    #[test]
    fn records_round_trip_through_scan() {
        use gt_sim::prop::{self, Gen};
        // Integers up to 2^53 are exact in the JSON number form.
        let int = |g: &mut Gen| {
            let bits = g.range(0..54);
            g.below(1 << bits) as usize
        };
        let maybe = |g: &mut Gen| (g.below(2) == 0).then(|| int(g));
        let ids = |g: &mut Gen| g.vec(0..12, |g| g.next_u64() as VId);
        let reasons = [
            FailReason::TransferFailure,
            FailReason::OutOfMemory,
            FailReason::InvalidBatch,
        ];
        prop::check("journal_record_round_trip", prop::CASES, |g| {
            let rec = match g.below(3) {
                0 => {
                    let outcome = match g.below(3) {
                        0 => BatchOutcome::Succeeded,
                        1 => BatchOutcome::Recovered { retries: int(g) },
                        _ => BatchOutcome::Quarantined {
                            reason: *g.pick(&reasons),
                            attempts: int(g),
                        },
                    };
                    Record::Batch {
                        index: int(g),
                        ids: ids(g),
                        fanout: maybe(g),
                        outcome: outcome.to_json(),
                    }
                }
                1 => Record::Quarantine(QuarantineRecord {
                    batch_index: int(g),
                    batch: ids(g),
                    reason: *g.pick(&reasons),
                    attempts: int(g),
                }),
                _ => Record::Checkpoint {
                    index: int(g),
                    image_crc: g.next_u64() as u32,
                },
            };
            let mut bytes = MAGIC.to_vec();
            bytes.extend(Journal::frame(&rec.to_json_string()));
            let s = scan(&bytes).unwrap();
            assert_eq!(s.records, vec![rec]);
        });
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
        // A CRC-valid record of a type this reader does not know — the
        // straggler-hedge record older cluster journals carry — is typed
        // corruption at its own frame, never skipped.
        let hedge = r#"{"type":"hedge","batch_index":0,"victim":3,"backup":0,"backup_won":true}"#;
        let mut bytes = MAGIC.to_vec();
        bytes.extend(Journal::frame(&recs[0].to_json_string()));
        let at = bytes.len() as u64;
        bytes.extend(Journal::frame(hedge));
        bytes.extend(Journal::frame(&recs[1].to_json_string()));
        match scan(&bytes) {
            Err(GtError::CorruptJournal { offset, detail }) => {
                assert_eq!(offset, at);
                assert!(detail.contains("`type`"), "{detail}");
            }
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
