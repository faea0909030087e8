//! Parameter checkpointing: save/load a [`ParamStore`] to a compact,
//! self-describing binary format (magic + version + per-tensor records +
//! CRC-32 trailer).
//!
//! Enables the standard train → checkpoint → resume/serve workflow a
//! downstream user of the framework expects, and is hardened for the
//! durability layer (docs/fault_model.md §Durability & recovery):
//!
//! * every file ends in a CRC-32 of all preceding bytes, so torn writes
//!   and bit rot are detected instead of loading garbage parameters;
//! * [`save_file`] writes to a temporary sibling, fsyncs, and atomically
//!   renames over the destination — a crash mid-save never destroys the
//!   last good checkpoint;
//! * [`load`] parses from a buffer bounded by the *actual* input size and
//!   validates every claimed length against the bytes remaining, so a
//!   corrupt header cannot drive a multi-gigabyte allocation;
//! * all failure paths return a typed [`TensorError`] (`Corrupt` / `Io`) —
//!   never a panic.

use crate::chaosio;
use crate::crc32::crc32;
use crate::dense::Matrix;
use crate::dfg::ParamStore;
use crate::error::TensorError;
use gt_sim::IoTarget;
use std::io::{Read, Write};
use std::path::Path;

/// Format magic. `02` adds the CRC-32 trailer; `01` files (no trailer) are
/// rejected with a descriptive error rather than silently trusted.
const MAGIC: &[u8; 8] = b"GTCKPT02";
const V1_MAGIC: &[u8; 8] = b"GTCKPT01";

/// Serialized byte image of a store: magic, count, sorted tensor records,
/// CRC-32 trailer. Deterministic for a given store.
pub fn to_bytes(params: &ParamStore) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    let mut names: Vec<&str> = params.names().collect();
    names.sort_unstable(); // deterministic file layout
    out.extend_from_slice(&(names.len() as u64).to_le_bytes());
    for name in names {
        let m = params.get(name);
        let bytes = name.as_bytes();
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
        out.extend_from_slice(&(m.rows() as u64).to_le_bytes());
        out.extend_from_slice(&(m.cols() as u64).to_le_bytes());
        for &v in m.data() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Fingerprint of a serialized image: the CRC-32 its trailer carries
/// (recomputed from the body, so a torn or tampered trailer changes it).
///
/// Never fingerprint a self-checksummed image by CRC-ing **all** of it:
/// the CRC-32 of any message with its own little-endian CRC appended is
/// the constant residue `0x2144DF1C`, identical for every valid image.
pub fn image_crc(bytes: &[u8]) -> u32 {
    crc32(&bytes[..bytes.len().saturating_sub(4)])
}

/// Serialize every parameter to `writer`.
pub fn save<W: Write>(params: &ParamStore, mut writer: W) -> Result<(), TensorError> {
    writer.write_all(&to_bytes(params))?;
    Ok(())
}

/// Parse a checkpoint image. Every length field is validated against the
/// bytes remaining before any allocation sized from it.
pub fn from_bytes(bytes: &[u8]) -> Result<ParamStore, TensorError> {
    let corrupt = |detail: &str| TensorError::Corrupt {
        detail: detail.to_string(),
    };
    if bytes.len() < MAGIC.len() + 4 {
        return Err(corrupt("file shorter than magic + checksum"));
    }
    if &bytes[..8] == V1_MAGIC {
        return Err(corrupt(
            "legacy GTCKPT01 file (no checksum trailer); re-save with this version",
        ));
    }
    if &bytes[..8] != MAGIC {
        return Err(corrupt("not a GraphTensor checkpoint (bad magic)"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte slice"));
    let computed = crc32(body);
    if stored != computed {
        return Err(TensorError::Corrupt {
            detail: format!("CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"),
        });
    }

    struct Cursor<'a>(&'a [u8]);
    impl<'a> Cursor<'a> {
        fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], TensorError> {
            if self.0.len() < n {
                return Err(TensorError::Corrupt {
                    detail: format!("truncated {what}: need {n} bytes, {} remain", self.0.len()),
                });
            }
            let (head, rest) = self.0.split_at(n);
            self.0 = rest;
            Ok(head)
        }
        fn remaining(&self) -> usize {
            self.0.len()
        }
    }
    let mut cur = Cursor(&body[8..]);

    let count = u64::from_le_bytes(cur.take(8, "tensor count")?.try_into().expect("8"));
    // Each record is at least 4 (name len) + 16 (dims) + 4 (one f32? no —
    // zero-element tensors are legal) = 20 bytes; bound the claimed count
    // so a lying header cannot spin a huge loop.
    if count > (body.len() as u64) / 20 {
        return Err(TensorError::Corrupt {
            detail: format!(
                "implausible tensor count {count} for {}-byte file",
                body.len()
            ),
        });
    }
    let mut params = ParamStore::new();
    for i in 0..count {
        let name_len =
            u32::from_le_bytes(cur.take(4, "name length")?.try_into().expect("4")) as usize;
        if name_len > 4096 || name_len > cur.remaining() {
            return Err(TensorError::Corrupt {
                detail: format!("tensor {i}: unreasonable name length {name_len}"),
            });
        }
        let name = std::str::from_utf8(cur.take(name_len, "name")?)
            .map_err(|e| TensorError::Corrupt {
                detail: format!("tensor {i}: non-UTF-8 name: {e}"),
            })?
            .to_string();
        let rows = u64::from_le_bytes(cur.take(8, "rows")?.try_into().expect("8")) as usize;
        let cols = u64::from_le_bytes(cur.take(8, "cols")?.try_into().expect("8")) as usize;
        let len = rows
            .checked_mul(cols)
            .ok_or_else(|| corrupt("rows*cols overflows"))?;
        let byte_len = len
            .checked_mul(4)
            .ok_or_else(|| corrupt("tensor byte size overflows"))?;
        // The allocation-bomb guard: the claimed payload must fit in the
        // bytes that are actually present.
        if byte_len > cur.remaining() {
            return Err(TensorError::Corrupt {
                detail: format!(
                    "tensor {name:?} claims {rows}x{cols} ({byte_len} bytes) but only {} remain",
                    cur.remaining()
                ),
            });
        }
        let raw = cur.take(byte_len, "tensor data")?;
        let data: Vec<f32> = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4")))
            .collect();
        params.register(name, Matrix::from_vec(rows, cols, data));
    }
    if cur.remaining() != 0 {
        return Err(TensorError::Corrupt {
            detail: format!("{} trailing bytes after last tensor", cur.remaining()),
        });
    }
    Ok(params)
}

/// Deserialize parameters from `reader` into a fresh store. The stream is
/// read to its real end first, so allocations are bounded by the actual
/// input size — a corrupt header claiming huge dimensions fails validation
/// instead of reserving memory.
pub fn load<R: Read>(mut reader: R) -> Result<ParamStore, TensorError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    from_bytes(&bytes)
}

/// Save to `path` crash-consistently: write a temporary sibling, fsync it,
/// rename it over `path`, then fsync the directory. A crash at any point
/// leaves either the old checkpoint or the new one — never a torn file at
/// `path` (the stray `.tmp` sibling is ignored by loads and overwritten by
/// the next save). Returns the saved image's [`image_crc`].
pub fn save_file(params: &ParamStore, path: impl AsRef<Path>) -> Result<u32, TensorError> {
    let path = path.as_ref();
    let tmp = tmp_path(path);
    let bytes = to_bytes(params);
    // Staged through the chaos IO shim: identity in production, and the
    // injection point for torn-write/ENOSPC/bit-flip campaigns. A fault
    // here damages only the staging sibling — `path` is untouched.
    chaosio::write_file(IoTarget::Checkpoint, &tmp, &bytes)?;
    std::fs::rename(&tmp, path)?;
    // Durability of the rename itself requires the directory entry to hit
    // disk; best-effort (some filesystems refuse to open directories).
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    // The trailer `to_bytes` just wrote is the body's CRC: the image_crc.
    Ok(u32::from_le_bytes(
        bytes[bytes.len() - 4..].try_into().expect("4-byte trailer"),
    ))
}

/// The temporary sibling `save_file` stages into before the atomic rename.
pub fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Delete a stale staging sibling of `path`, if one exists — the residue a
/// crash between tmp-write and atomic rename leaves behind forever
/// otherwise. Returns true when a file was removed. Called on durable
/// startup and recovery; always safe, since a live `save_file` holds the
/// sibling only within one call on the same thread.
pub fn remove_stale_tmp(path: impl AsRef<Path>) -> bool {
    std::fs::remove_file(tmp_path(path.as_ref())).is_ok()
}

/// Load from a file path. A short read ([`chaosio::read_whole`]) comes
/// back as a retryable [`TensorError::Io`] — never misdiagnosed as a
/// truncated/corrupt checkpoint.
pub fn load_file(path: impl AsRef<Path>) -> Result<ParamStore, TensorError> {
    from_bytes(&chaosio::read_whole(IoTarget::Checkpoint, path.as_ref())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::xavier;

    fn store() -> ParamStore {
        let mut p = ParamStore::new();
        p.register("layer0/w", xavier(8, 4, 1));
        p.register("layer0/b", Matrix::zeros(1, 4));
        p.register("layer1/w", xavier(4, 2, 2));
        p
    }

    fn tiny_store() -> ParamStore {
        let mut p = ParamStore::new();
        p.register("w", xavier(2, 2, 9));
        p.register("b", Matrix::zeros(1, 2));
        p
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let original = store();
        let mut buf = Vec::new();
        save(&original, &mut buf).unwrap();
        let loaded = load(buf.as_slice()).unwrap();
        let mut names: Vec<&str> = loaded.names().collect();
        names.sort_unstable();
        assert_eq!(names, vec!["layer0/b", "layer0/w", "layer1/w"]);
        for name in names {
            assert_eq!(loaded.get(name), original.get(name), "{name}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = load(&b"NOTACKPTxxxxxxxxxxxx"[..]).unwrap_err();
        assert!(matches!(err, TensorError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn v1_files_rejected_with_explanation() {
        let mut buf = b"GTCKPT01".to_vec();
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = load(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("GTCKPT01"), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("gt_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("params.gt");
        let original = store();
        let crc = save_file(&original, &path).unwrap();
        assert_eq!(crc, image_crc(&std::fs::read(&path).unwrap()));
        let loaded = load_file(&path).unwrap();
        assert_eq!(loaded.get("layer1/w"), original.get("layer1/w"));
        assert!(
            !tmp_path(&path).exists(),
            "temporary staging file left behind"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deterministic_bytes() {
        assert_eq!(to_bytes(&store()), to_bytes(&store()));
    }

    /// The trap `image_crc` exists to avoid: CRC-32 of a full
    /// self-checksummed image is the same residue constant for EVERY image,
    /// so it distinguishes nothing. The body fingerprint does.
    #[test]
    fn image_crc_distinguishes_images_where_whole_file_crc_cannot() {
        let (a, b) = (to_bytes(&store()), to_bytes(&tiny_store()));
        assert_eq!(crc32(&a), 0x2144_DF1C, "CRC-32 residue");
        assert_eq!(crc32(&a), crc32(&b), "whole-file CRC is constant");
        assert_ne!(image_crc(&a), image_crc(&b));
        assert_eq!(image_crc(&a), image_crc(&to_bytes(&store())));
    }

    /// The byte-level corruption sweep: truncate at every length and flip a
    /// bit at every offset of a small checkpoint; `load` must return a typed
    /// error every time — never panic, never over-allocate, never return
    /// wrong parameters (the CRC catches every single-byte change).
    #[test]
    fn corruption_sweep_truncate_and_flip_every_byte() {
        let bytes = to_bytes(&tiny_store());
        for len in 0..bytes.len() {
            let err = from_bytes(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, TensorError::Corrupt { .. }),
                "truncation at {len}: {err:?}"
            );
        }
        for i in 0..bytes.len() {
            let mut copy = bytes.clone();
            copy[i] ^= 0x40;
            let err = from_bytes(&copy).unwrap_err();
            assert!(
                matches!(err, TensorError::Corrupt { .. }),
                "flip at {i}: {err:?}"
            );
        }
    }

    /// A header that claims astronomically large dimensions on a tiny file
    /// must be rejected by the remaining-bytes bound, not drive a huge
    /// `Vec` reservation (the original code's allocation bomb).
    #[test]
    fn allocation_bomb_header_is_rejected_cheaply() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u64.to_le_bytes()); // one tensor
        buf.extend_from_slice(&1u32.to_le_bytes()); // name "w"
        buf.push(b'w');
        buf.extend_from_slice(&(1u64 << 40).to_le_bytes()); // rows: 1 TiB-ish
        buf.extend_from_slice(&8u64.to_le_bytes()); // cols
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        let err = from_bytes(&buf).unwrap_err();
        assert!(matches!(err, TensorError::Corrupt { .. }), "{err:?}");
        // And with an overflowing rows*cols product:
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(b'w');
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        assert!(from_bytes(&buf).is_err());
    }

    /// Regression for the pre-atomic `save_file`, which `File::create`d the
    /// destination (truncating it) before writing: simulate a writer killed
    /// at every point while saving checkpoint B — the staged temp file holds
    /// the torn bytes, the destination still holds checkpoint A, and A loads.
    #[test]
    fn killed_mid_save_preserves_previous_checkpoint() {
        let dir = std::env::temp_dir().join("gt_ckpt_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("params.gt");
        let a = tiny_store();
        save_file(&a, &path).unwrap();
        let a_bytes = to_bytes(&a);

        let mut b = store();
        b.register("extra", xavier(3, 3, 5));
        let b_bytes = to_bytes(&b);
        for cut in 0..b_bytes.len() {
            // A crash mid-save leaves a torn temp sibling and nothing else.
            std::fs::write(tmp_path(&path), &b_bytes[..cut]).unwrap();
            let loaded = load_file(&path).expect("old checkpoint must survive");
            assert_eq!(to_bytes(&loaded), a_bytes, "cut at {cut}");
        }
        // The torn temp never parses as a checkpoint either.
        assert!(load_file(tmp_path(&path)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
