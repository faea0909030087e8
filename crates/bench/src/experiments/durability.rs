//! Durable serving — crash-consistent checkpoints and the write-ahead
//! outcome journal under an unkind fault plan (docs/fault_model.md
//! §Durability & recovery).
//!
//! Not a paper figure: this experiment exercises the robustness layer the
//! serving stack adds on top of the paper's pipeline. It serves a batch
//! stream durably, optionally killing the process at an injected crash
//! site (`--crash-at N`, `--crash-site mid-journal|mid-checkpoint|
//! after-commit`); re-running with the same `--checkpoint-dir` recovers
//! from the journal, resumes at the exact batch index, and finishes with
//! parameters bit-identical to an uninterrupted run.

use crate::runner::{print_table, ExpConfig};
use gt_core::config::{ModelConfig, PAPER_HIDDEN};
use gt_core::error::GtError;
use gt_core::journal::{self, Record};
use gt_core::serve::{DurabilityConfig, ServeCtx, Supervisor};
use gt_core::trainer::GtVariant;
use gt_sim::{CrashSite, FaultPlan};
use gt_tensor::checkpoint;
use std::path::PathBuf;

/// Durability knobs (separate from the `Copy` [`ExpConfig`]).
#[derive(Debug, Clone)]
pub struct DurabilityOpts {
    /// Where the journal and checkpoint live. `None`: a throwaway
    /// directory under the system temp dir (fresh each run).
    pub dir: Option<PathBuf>,
    /// Inject a crash while serving this batch index.
    pub crash_at: Option<usize>,
    /// Which durability-protocol site the crash hits.
    pub crash_site: CrashSite,
    /// Batches in the serving stream.
    pub batches: usize,
}

impl Default for DurabilityOpts {
    fn default() -> Self {
        DurabilityOpts {
            dir: None,
            crash_at: None,
            crash_site: CrashSite::MidJournal,
            batches: 12,
        }
    }
}

/// What one durable serving run did.
#[derive(Debug)]
pub struct Summary {
    /// Batches replayed from the journal before serving new work.
    pub replayed: usize,
    /// Batches served by this process (after any replay).
    pub served: usize,
    /// `(outcome label, count)` over the whole journaled history.
    pub outcomes: Vec<(String, usize)>,
    /// Records in the journal after the run.
    pub journal_records: usize,
    /// Journal size in bytes.
    pub journal_bytes: u64,
    /// Final checkpoint size in bytes.
    pub checkpoint_bytes: u64,
    /// Final checkpoint fingerprint ([`checkpoint::image_crc`]).
    pub image_crc: u32,
}

/// Serve `opts.batches` batches durably (recovering first if the journal
/// already exists). An injected crash surfaces as
/// [`GtError::InjectedCrash`] with the on-disk state a killed process
/// leaves behind.
pub fn run(cfg: &ExpConfig, opts: &DurabilityOpts) -> Result<Summary, GtError> {
    let spec = gt_datasets::by_name("reddit2").expect("known dataset");
    let data = cfg.build(&spec);
    let model = ModelConfig::gcn(cfg.layers, PAPER_HIDDEN, spec.out_dim);

    let mut plan = FaultPlan::new(cfg.seed)
        .with_transfer_failure(0.3)
        .with_transient_memory_pressure(1e-6, 0.15);
    // Appended last so the other rules roll identically without it —
    // that is what makes crashed+recovered comparable to uncrashed.
    if let Some(batch) = opts.crash_at {
        plan = plan.with_crash_at(batch, opts.crash_site);
    }
    let mut server = Supervisor::new(cfg.graphtensor(GtVariant::Dynamic, model), plan);

    let dir = opts.dir.clone().unwrap_or_else(|| {
        let d = std::env::temp_dir().join("gt_repro_durability");
        let _ = std::fs::remove_dir_all(&d);
        d
    });
    let durability = DurabilityConfig::new(&dir);
    let mut start = 0usize;
    if durability.journal_path().exists() {
        start = server.recover(&data, durability.clone())?.batches_replayed;
    } else {
        server.make_durable(durability.clone())?;
    }

    let mut served = 0usize;
    for batch in cfg.batch_stream(&data, opts.batches).skip(start) {
        server.serve(&data, &batch, ServeCtx::default())?;
        served += 1;
    }
    server.checkpoint_now()?;

    let scan = journal::read_journal(durability.journal_path())?;
    let mut outcomes: Vec<(String, usize)> = Vec::new();
    for rec in &scan.records {
        if let Record::Batch { outcome, .. } = rec {
            let label = outcome
                .get("outcome")
                .and_then(|l| l.as_str())
                .unwrap_or("?");
            match outcomes.iter_mut().find(|(l, _)| l == label) {
                Some((_, c)) => *c += 1,
                None => outcomes.push((label.to_string(), 1)),
            }
        }
    }
    let image = std::fs::read(durability.checkpoint_path())?;
    Ok(Summary {
        replayed: start,
        served,
        outcomes,
        journal_records: scan.records.len(),
        journal_bytes: scan.valid_len,
        checkpoint_bytes: image.len() as u64,
        image_crc: checkpoint::image_crc(&image),
    })
}

/// Print the run; an injected crash exits with code 3 so drivers (CI) can
/// assert it fired, then re-invoke to recover.
pub fn print(cfg: &ExpConfig, opts: &DurabilityOpts) {
    match run(cfg, opts) {
        Ok(s) => {
            let rows: Vec<Vec<String>> = s
                .outcomes
                .iter()
                .map(|(label, count)| vec![label.clone(), count.to_string()])
                .collect();
            print_table(
                &format!(
                    "durability: {} replayed + {} served batches (journal {} records / {} B)",
                    s.replayed, s.served, s.journal_records, s.journal_bytes
                ),
                &["outcome", "batches"],
                &rows,
            );
            println!(
                "  final checkpoint: {} B, fingerprint {:#010x}",
                s.checkpoint_bytes, s.image_crc
            );
        }
        Err(GtError::InjectedCrash { site }) => {
            println!(
                "durability: KILLED by injected {} crash — re-run with the same \
                 --checkpoint-dir to recover",
                site.label()
            );
            std::process::exit(3);
        }
        Err(e) => panic!("durability experiment failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(dir: &std::path::Path, batches: usize) -> DurabilityOpts {
        DurabilityOpts {
            dir: Some(dir.to_path_buf()),
            batches,
            ..Default::default()
        }
    }

    /// The repro-level crash/recover cycle: crash mid-stream, re-run with
    /// the same dir, and land on the exact final checkpoint an uncrashed
    /// run produces.
    #[test]
    fn crash_and_recover_matches_uncrashed() {
        let cfg = ExpConfig::test();
        let base = std::env::temp_dir().join("gt_bench_durability");
        let _ = std::fs::remove_dir_all(&base);
        let (clean_dir, crash_dir) = (base.join("clean"), base.join("crash"));

        let clean = run(&cfg, &opts(&clean_dir, 6)).unwrap();
        assert_eq!(clean.served, 6);
        assert!(clean.journal_records >= 6);

        let mut crashing = opts(&crash_dir, 6);
        crashing.crash_at = Some(3);
        crashing.crash_site = CrashSite::AfterCommit;
        match run(&cfg, &crashing) {
            Err(GtError::InjectedCrash { site }) => assert_eq!(site, CrashSite::AfterCommit),
            other => panic!("expected injected crash, got {other:?}"),
        }
        let recovered = run(&cfg, &crashing).unwrap();
        assert_eq!(recovered.replayed, 4);
        assert_eq!(recovered.served, 2);
        assert_eq!(recovered.image_crc, clean.image_crc);
        assert_eq!(recovered.outcomes, clean.outcomes);
        let clean_img = std::fs::read(DurabilityConfig::new(&clean_dir).checkpoint_path()).unwrap();
        let rec_img = std::fs::read(DurabilityConfig::new(&crash_dir).checkpoint_path()).unwrap();
        assert_eq!(
            clean_img, rec_img,
            "final checkpoints must be bit-identical"
        );
        std::fs::remove_dir_all(&base).ok();
    }
}
