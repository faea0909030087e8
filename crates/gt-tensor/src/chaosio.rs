//! Fault-injectable file IO for the durability layer.
//!
//! The chaos campaigns (docs/fault_model.md §Chaos campaigns) need storage
//! faults — torn writes, short reads, ENOSPC, single-bit flips — injected
//! *below* the checkpoint and journal code, so the recovery protocol is
//! exercised against exactly the byte-level residue a failing disk leaves,
//! not against a hand-simulated approximation of it. This module is that
//! injection point: [`checkpoint::save_file`](crate::checkpoint::save_file)
//! stages its bytes through [`write_file`], journal appends go through
//! [`append`], and recovery reads come back through [`read_file`].
//!
//! With nothing armed (the production state), every function is the plain
//! `std::fs` operation — same syscalls, same fsync placement. A campaign
//! arms faults per batch with [`arm`]; each armed fault is consumed by the
//! first matching operation and [`ArmGuard`] disarms whatever is left when
//! the batch ends, so faults can never leak across batches or tests
//! (state is thread-local: parallel `cargo test` threads are isolated).
//!
//! Fault semantics, chosen to mirror the real failure they model:
//!
//! * **torn write** — a prefix of the bytes persists, then the write
//!   errors: `write(2)` interrupted by a power cut;
//! * **ENOSPC** — nothing persists, the write errors: a full disk;
//! * **bit flip** — one bit of the in-flight buffer is flipped and the
//!   write *succeeds*: firmware that lied about what it wrote. Detection
//!   belongs to the CRC framing of the artifact, not to this layer;
//! * **short read** — the read returns fewer bytes than the file holds:
//!   an interrupted syscall or flaky network filesystem. Callers must
//!   validate lengths against file metadata, never trust EOF.

use gt_sim::{IoFault, IoTarget};
use std::cell::RefCell;
use std::io::{self, Write};
use std::path::Path;

thread_local! {
    static ARMED: RefCell<Vec<(IoTarget, IoFault)>> = const { RefCell::new(Vec::new()) };
}

/// Arm `faults` for this thread, replacing whatever was armed before.
/// Each fault fires on the first matching operation and is consumed; the
/// returned guard disarms the remainder when dropped.
#[must_use = "dropping the guard immediately disarms the faults"]
pub fn arm(faults: &[(IoTarget, IoFault)]) -> ArmGuard {
    ARMED.with(|a| *a.borrow_mut() = faults.to_vec());
    ArmGuard { _private: () }
}

/// Disarm every pending fault on this thread.
pub fn disarm() {
    ARMED.with(|a| a.borrow_mut().clear());
}

/// Number of armed faults not yet consumed (this thread).
pub fn armed_len() -> usize {
    ARMED.with(|a| a.borrow().len())
}

/// RAII scope for [`arm`]: disarms all remaining faults on drop.
pub struct ArmGuard {
    _private: (),
}

impl Drop for ArmGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// Consume the first armed fault for `target` that applies to a write
/// (torn write, ENOSPC, bit flip — short reads stay armed).
fn take_write(target: IoTarget) -> Option<IoFault> {
    take_matching(target, |f| !matches!(f, IoFault::ShortRead))
}

/// Consume the first armed [`IoFault::ShortRead`] for `target`.
fn take_read(target: IoTarget) -> Option<IoFault> {
    take_matching(target, |f| matches!(f, IoFault::ShortRead))
}

fn take_matching(target: IoTarget, applies: impl Fn(&IoFault) -> bool) -> Option<IoFault> {
    ARMED.with(|a| {
        let mut armed = a.borrow_mut();
        let idx = armed.iter().position(|(t, f)| *t == target && applies(f))?;
        Some(armed.remove(idx).1)
    })
}

fn injected(detail: String) -> io::Error {
    io::Error::other(detail)
}

fn flip_bit(bytes: &[u8], bit: u32) -> Vec<u8> {
    let mut copy = bytes.to_vec();
    if !copy.is_empty() {
        let pos = bit as usize % (copy.len() * 8);
        copy[pos / 8] ^= 1 << (pos % 8);
    }
    copy
}

/// Create `path` and durably write `bytes` to it (write_all + fsync),
/// honoring any armed write fault for `target`.
pub fn write_file(target: IoTarget, path: &Path, bytes: &[u8]) -> io::Result<()> {
    match take_write(target) {
        None => {
            let mut f = std::fs::File::create(path)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            Ok(())
        }
        Some(IoFault::TornWrite) => {
            let mut f = std::fs::File::create(path)?;
            f.write_all(&bytes[..bytes.len() / 2])?;
            f.sync_all()?;
            Err(injected(format!(
                "injected torn write: {} of {} bytes persisted to {}",
                bytes.len() / 2,
                bytes.len(),
                path.display()
            )))
        }
        Some(IoFault::Enospc) => {
            // A full disk can still create the (empty) inode.
            let f = std::fs::File::create(path)?;
            f.sync_all()?;
            Err(injected(format!(
                "injected ENOSPC: no space left writing {}",
                path.display()
            )))
        }
        Some(IoFault::BitFlip { bit }) => {
            let corrupt = flip_bit(bytes, bit);
            let mut f = std::fs::File::create(path)?;
            f.write_all(&corrupt)?;
            f.sync_all()?;
            Ok(()) // the firmware lied: success reported, bytes wrong
        }
        Some(IoFault::ShortRead) => unreachable!("take_write filters read faults"),
    }
}

/// Durably append `bytes` to an open `file` (write_all + fdatasync),
/// honoring any armed write fault for `target`.
pub fn append(target: IoTarget, file: &mut std::fs::File, bytes: &[u8]) -> io::Result<()> {
    match take_write(target) {
        None => {
            file.write_all(bytes)?;
            file.sync_data()?;
            Ok(())
        }
        Some(IoFault::TornWrite) => {
            file.write_all(&bytes[..bytes.len() / 2])?;
            file.sync_data()?;
            Err(injected(format!(
                "injected torn write: {} of {} bytes appended",
                bytes.len() / 2,
                bytes.len()
            )))
        }
        Some(IoFault::Enospc) => Err(injected(
            "injected ENOSPC: no space left for append".to_string(),
        )),
        Some(IoFault::BitFlip { bit }) => {
            let corrupt = flip_bit(bytes, bit);
            file.write_all(&corrupt)?;
            file.sync_data()?;
            Ok(())
        }
        Some(IoFault::ShortRead) => unreachable!("take_write filters read faults"),
    }
}

/// Read all of `path`, honoring an armed [`IoFault::ShortRead`] for
/// `target` by returning only a prefix of the file, which [`read_whole`]
/// catches.
fn read_file(target: IoTarget, path: &Path) -> io::Result<Vec<u8>> {
    let bytes = std::fs::read(path)?;
    match take_read(target) {
        None => Ok(bytes),
        Some(_) => {
            let keep = bytes.len() / 2;
            Ok(bytes[..keep].to_vec())
        }
    }
}

/// [`read_file`], validated against file metadata: fewer bytes than the
/// file holds (an interrupted syscall, a flaky network filesystem, an
/// injected [`IoFault::ShortRead`]) is a retryable "short read" error,
/// never a prefix a caller could misread as truncation or a torn tail.
pub fn read_whole(target: IoTarget, path: &Path) -> io::Result<Vec<u8>> {
    let bytes = read_file(target, path)?;
    let expected = std::fs::metadata(path)?.len();
    if (bytes.len() as u64) < expected {
        return Err(io::Error::other(format!(
            "short read on {}: got {} of {expected} bytes; retry",
            path.display(),
            bytes.len()
        )));
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("gt_chaosio_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn identity_when_disarmed() {
        let path = tmp("identity.bin");
        write_file(IoTarget::Checkpoint, &path, b"hello world").unwrap();
        assert_eq!(
            read_file(IoTarget::Checkpoint, &path).unwrap(),
            b"hello world"
        );
        assert_eq!(armed_len(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_write_persists_half_and_errors() {
        let path = tmp("torn.bin");
        let _g = arm(&[(IoTarget::Checkpoint, IoFault::TornWrite)]);
        let err = write_file(IoTarget::Checkpoint, &path, b"0123456789").unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"01234");
        // Consumed: the retry goes through clean.
        write_file(IoTarget::Checkpoint, &path, b"0123456789").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"0123456789");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn enospc_persists_nothing_and_errors() {
        let path = tmp("enospc.bin");
        let _g = arm(&[(IoTarget::Journal, IoFault::Enospc)]);
        let err = write_file(IoTarget::Journal, &path, b"payload").unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_reports_success_with_wrong_bytes() {
        let path = tmp("flip.bin");
        let _g = arm(&[(IoTarget::Checkpoint, IoFault::BitFlip { bit: 1 })]);
        write_file(IoTarget::Checkpoint, &path, &[0u8, 0, 0]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), vec![2u8, 0, 0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_read_returns_prefix_once() {
        let path = tmp("short.bin");
        write_file(IoTarget::Journal, &path, b"0123456789").unwrap();
        let _g = arm(&[(IoTarget::Journal, IoFault::ShortRead)]);
        assert_eq!(read_file(IoTarget::Journal, &path).unwrap(), b"01234");
        assert_eq!(read_file(IoTarget::Journal, &path).unwrap(), b"0123456789");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn faults_only_fire_on_their_target() {
        let path = tmp("target.bin");
        let _g = arm(&[(IoTarget::Journal, IoFault::TornWrite)]);
        // Checkpoint write unaffected; the journal fault stays armed.
        write_file(IoTarget::Checkpoint, &path, b"safe").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"safe");
        assert_eq!(armed_len(), 1);
        // Reads never consume write faults.
        assert_eq!(read_file(IoTarget::Journal, &path).unwrap(), b"safe");
        assert_eq!(armed_len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn guard_disarms_on_drop() {
        {
            let _g = arm(&[
                (IoTarget::Journal, IoFault::Enospc),
                (IoTarget::Checkpoint, IoFault::TornWrite),
            ]);
            assert_eq!(armed_len(), 2);
        }
        assert_eq!(armed_len(), 0);
    }

    #[test]
    fn append_faults_mirror_write_faults() {
        let path = tmp("append.bin");
        std::fs::write(&path, b"base").unwrap();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();

        let _g = arm(&[(IoTarget::Journal, IoFault::TornWrite)]);
        let err = append(IoTarget::Journal, &mut f, b"0123456789").unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"base01234");
        drop(_g);

        let _g = arm(&[(IoTarget::Journal, IoFault::Enospc)]);
        append(IoTarget::Journal, &mut f, b"XYZ").unwrap_err();
        assert_eq!(std::fs::read(&path).unwrap(), b"base01234");
        drop(_g);

        append(IoTarget::Journal, &mut f, b"!").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"base01234!");
        std::fs::remove_file(&path).ok();
    }
}
