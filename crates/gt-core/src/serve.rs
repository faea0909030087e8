//! Self-healing serving supervisor.
//!
//! Production GNN serving cannot afford a panic per flaky DMA. The
//! [`Supervisor`] wraps a [`GraphTensor`] trainer in a retry/degrade ladder:
//!
//! * **Transient faults** (failed transfers, transient memory pressure) are
//!   retried with exponential backoff, up to three times.
//! * **Persistent memory pressure** degrades gracefully: after two
//!   consecutive OOM attempts the batch is halved (down to one vertex) so
//!   *some* progress is made.
//! * **Poison batches** (invalid ids, or exhausted retries) are quarantined
//!   with a structured [`QuarantineRecord`] instead of being retried forever.
//!
//! Faults come from a seeded [`FaultPlan`], so every run is reproducible:
//! the same plan and seed produce the same retries, degradations, and
//! quarantines. With an empty plan the supervisor is a pass-through — the
//! trainer takes its exact unsupervised code path and numerics are
//! bit-identical.
//!
//! Everything else a serving deployment adds is an armed layer of the one
//! supervisor, skipped while unarmed: serving caches
//! ([`Supervisor::enable_caches`]), the request tracer
//! ([`Supervisor::enable_tracing`]) and the write-ahead journal
//! ([`Supervisor::make_durable`], [`Supervisor::recover`]). Admission
//! control ([`Gateway`](crate::overload::Gateway)) sits in front of it.

use crate::cache::{CacheConfig, CacheStats, ServingCaches};
use crate::data::GraphData;
use crate::error::GtError;
use crate::framework::{BatchOutcome, BatchReport, DegradeAction, FailReason, Framework};
use crate::journal::{self, batch_record, Journal, Record};
use crate::tracing::{RequestTracer, TracerConfig};
use crate::trainer::GraphTensor;
use gt_graph::VId;
use gt_sample::validate_batch;
use gt_sim::{CrashSite, FaultPlan, SimContext};
use gt_telemetry::{Telemetry, ToJson};
use gt_tensor::{chaosio, checkpoint};
use std::path::PathBuf;

/// Retries after the first failed attempt before quarantining.
const MAX_RETRIES: usize = 3;

/// First retry waits this long; attempt `k` waits `BACKOFF_BASE_US · 2ᵏ` µs.
const BACKOFF_BASE_US: f64 = 50.0;

/// A batch the supervisor gave up on, with enough context to replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Serving index of the batch (the fault plan's batch coordinate).
    pub batch_index: usize,
    /// The vertex ids as submitted.
    pub batch: Vec<VId>,
    /// The final failure.
    pub reason: FailReason,
    /// Attempts spent before giving up (0 = rejected before any attempt).
    pub attempts: usize,
}

/// Where durable state lives and how often parameters are checkpointed.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the journal and checkpoint (created on demand).
    pub dir: PathBuf,
    /// Checkpoint the parameters every N served batches (0 = only the
    /// final/explicit checkpoints).
    pub checkpoint_every: usize,
}

impl DurabilityConfig {
    /// Durable state under `dir`, checkpointing every 8 batches.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            checkpoint_every: 8,
        }
    }

    /// Path of the write-ahead outcome journal.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("outcomes.gtj")
    }

    /// Path of the parameter checkpoint.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join("params.gt")
    }
}

/// What [`Supervisor::recover`] did.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Journaled batches replayed (the next batch's serving index).
    pub batches_replayed: usize,
    /// Quarantine records restored from the journal.
    pub quarantine_restored: usize,
    /// Checkpoint markers whose image CRC matched the replayed parameters.
    pub checkpoints_verified: usize,
    /// True when a torn tail (an append interrupted by the crash) was
    /// dropped and truncated away.
    pub torn_tail_dropped: bool,
}

/// Gateway-side identity of the request a batch serves, on the virtual
/// clock — what the tracer roots the request's span tree in.
#[derive(Debug, Clone, Copy)]
pub struct RequestCtx {
    /// Submission index of the request.
    pub index: usize,
    /// Tenant the request belongs to (`None` without tenancy).
    pub tenant: Option<usize>,
    /// When the request arrived, virtual µs.
    pub arrival_us: f64,
    /// When service starts (or the request was refused), virtual µs.
    pub start_us: f64,
}

/// What the caller of [`Supervisor::serve`] knows about the batch. The
/// default is plain single-node serving at the configured fanout.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCtx {
    /// Sample with this fanout instead of the configured one (a gateway
    /// degrading under load; journal replay of such a batch).
    pub fanout: Option<usize>,
    /// The request being served; without one the batch index doubles as
    /// the request index and service is back-to-back on the tracer's clock.
    pub request: Option<RequestCtx>,
}

/// One served batch plus what the serving layers charged around it.
#[derive(Debug)]
pub struct Served {
    /// How the batch resolved and everything measured while training it.
    pub report: BatchReport,
    /// Injected [`gt_sim::FaultKind::ServeDelay`] stall, virtual µs. It
    /// never reaches the trainer, so numerics stay on the fault-free path.
    pub stall_us: f64,
    /// Retry backoff the ladder paid for this batch, virtual µs.
    pub backoff_us: f64,
    /// Modeled preprocessing µs cache hits saved (0 with caches off).
    pub saved_us: f64,
}

impl Served {
    /// The batch's modeled latency: cache hits shave preprocessing off the
    /// critical path before the prepro/GPU overlap max, so with nothing
    /// saved this is exactly `report.e2e_us(true)`.
    pub fn modeled_us(&self) -> f64 {
        (self.report.prepro_us() - self.saved_us)
            .max(0.0)
            .max(self.report.gpu_us())
    }

    /// Virtual service time: what the gateway charges the server for and
    /// what the request's trace spans add up to.
    pub fn service_us(&self) -> f64 {
        self.modeled_us() + self.stall_us + self.backoff_us
    }
}

struct DurabilityState {
    journal: Journal,
    cfg: DurabilityConfig,
    /// Durability faults (crash rules, storage-fault rules) at batch
    /// indices below this are suppressed: the fault already hit the
    /// previous process, and the recovered one has outlived it (a real
    /// kill -9 or torn write does not re-fire on the restarted process
    /// either). Without this, a persistent fault rule would re-kill every
    /// recovery at the same batch — a livelock.
    suppress_faults_below: usize,
}

/// The typed error for durable-only calls on a supervisor with no journal.
fn not_durable(what: &str) -> GtError {
    GtError::Io {
        detail: format!("{what} before make_durable/recover"),
    }
}

impl DurabilityState {
    /// The one way a record reaches the journal, so
    /// `gt_journal_records_total` counts every record on disk.
    fn append(&mut self, telemetry: &Telemetry, record: &Record) -> Result<(), GtError> {
        self.journal.append(record)?;
        telemetry
            .counter(
                "gt_journal_records_total",
                "Records appended to the outcome journal",
            )
            .inc();
        Ok(())
    }
}

/// Wraps a trainer in the retry/degrade/quarantine ladder described in the
/// module docs.
pub struct Supervisor {
    /// The supervised trainer (fail-fast mode is forced on).
    pub trainer: GraphTensor,
    /// Faults injected per (batch, attempt); empty = pass-through.
    pub plan: FaultPlan,
    /// Batches the supervisor gave up on.
    pub quarantine: Vec<QuarantineRecord>,
    /// Total virtual time spent in retry backoff, µs.
    pub backoff_paid_us: f64,
    /// Per-request causal tracer + flight recorder + SLO engine; `None`
    /// (the default) keeps serving exactly as before tracing existed.
    pub tracer: Option<RequestTracer>,
    batches_served: usize,
    durability: Option<DurabilityState>,
    /// Skew-exploiting serving caches; `None` (the default) keeps serving
    /// exactly as before caching existed.
    caches: Option<ServingCaches>,
}

impl Supervisor {
    /// Supervise `trainer` under `plan`. Forces the trainer into fail-fast
    /// mode so failed transfers and OOMs come back as reports, not panics
    /// or silently-degraded training steps.
    pub fn new(mut trainer: GraphTensor, plan: FaultPlan) -> Self {
        trainer.fail_fast = true;
        Supervisor {
            trainer,
            plan,
            quarantine: Vec::new(),
            backoff_paid_us: 0.0,
            tracer: None,
            batches_served: 0,
            durability: None,
            caches: None,
        }
    }

    /// Batches served so far (the next batch's fault-plan coordinate).
    pub fn batches_served(&self) -> usize {
        self.batches_served
    }

    /// Attach a [`RequestTracer`] with `config`, evaluating `slo` when
    /// given, exporting through the trainer's telemetry handle. From now
    /// on every resolved batch yields a span tree in the flight recorder.
    pub fn enable_tracing(
        &mut self,
        config: TracerConfig,
        slo: Option<gt_telemetry::SloSpec>,
    ) -> &mut RequestTracer {
        self.tracer.insert(RequestTracer::new(
            config,
            slo,
            self.trainer.telemetry.clone(),
        ))
    }

    /// Attach the skew-exploiting serving caches (see [`crate::cache`]).
    /// From now on every trained batch consults the historical-embedding
    /// and sampled-subgraph caches; hits shrink the *modeled* service
    /// time ([`Served::service_us`]), while the numerics (parameters,
    /// journal, checkpoints) stay byte-identical to an uncached run.
    pub fn enable_caches(&mut self, config: CacheConfig) {
        self.caches = Some(ServingCaches::new(config));
    }

    /// Running cache totals, when caching is enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.caches.as_ref().map(|c| c.stats())
    }

    /// Train one batch under supervision — the one way a batch reaches the
    /// trainer. Never panics on injected faults; the report's
    /// [`BatchOutcome`] says how the batch resolved. Around the
    /// retry/degrade ladder, each armed layer runs in order and an unarmed
    /// one is skipped: caches price their hits, the tracer files the
    /// request's span tree, and — once [`make_durable`](Self::make_durable)
    /// or [`recover`](Self::recover) armed the journal — the outcome (and
    /// any quarantine record) is journaled and fsynced *before* this
    /// returns, so an acknowledged result can never be lost to a crash.
    ///
    /// `Err` only comes out of the durable path. An active
    /// [`gt_sim::FaultKind::Crash`] rule is honored there: the call leaves
    /// exactly the on-disk state a process killed at that site would leave
    /// (a torn journal record, a torn checkpoint staging file, or a fully
    /// committed batch whose report was never delivered) and returns
    /// [`GtError::InjectedCrash`]. The supervisor must then be rebuilt and
    /// [`recover`](Self::recover)ed, as after a real `kill -9`.
    pub fn serve(
        &mut self,
        data: &GraphData,
        batch: &[VId],
        ctx: ServeCtx,
    ) -> Result<Served, GtError> {
        let batch_index = self.batches_served;
        // Serving-layer rules are persistent: attempt 0 decides.
        let active = self.plan.active(batch_index, 0);
        let armed = self
            .durability
            .as_ref()
            .is_some_and(|d| batch_index >= d.suppress_faults_below);
        let (crash, io_faults) = if armed {
            (active.crash_site(), active.io_faults())
        } else {
            (None, Vec::new())
        };
        // Arm this batch's storage faults below the durability layer; the
        // guard disarms whatever is left on every exit path, so a fault
        // can never leak into the next batch.
        let _io_guard = chaosio::arm(&io_faults);

        // The one place the configured fanout is overridden and restored.
        let configured = self.trainer.sampler.fanout;
        let fanout = ctx.fanout.unwrap_or(configured);
        self.trainer.sampler.fanout = fanout;
        let backoff_before = self.backoff_paid_us;
        let report = self.run_ladder(data, batch);
        self.trainer.sampler.fanout = configured;

        // Quarantined batches never reached the preprocessing pipeline, so
        // they neither consult nor populate the caches.
        let saved_us = match self.caches.as_mut() {
            Some(caches) if report.outcome.trained() => {
                let (lookup, saved) = caches.consult_priced(batch, fanout, &report);
                let misses = lookup.batch_len - lookup.embedding_hits;
                for (name, help, n) in [
                    (
                        "gt_cache_embedding_hits_total",
                        "Embedding-cache hits (batch vertices)",
                        lookup.embedding_hits as u64,
                    ),
                    (
                        "gt_cache_embedding_misses_total",
                        "Embedding-cache misses (batch vertices)",
                        misses as u64,
                    ),
                    (
                        "gt_cache_subgraph_hits_total",
                        "Sampled-subgraph cache hits (batches)",
                        lookup.subgraph_hit as u64,
                    ),
                    (
                        "gt_cache_subgraph_misses_total",
                        "Sampled-subgraph cache misses (batches)",
                        !lookup.subgraph_hit as u64,
                    ),
                    (
                        "gt_cache_saved_us_total",
                        "Modeled preprocessing µs saved by cache hits",
                        saved as u64,
                    ),
                ] {
                    self.trainer.telemetry.counter(name, help).add(n);
                }
                saved
            }
            _ => 0.0,
        };
        let served = Served {
            report,
            stall_us: active.serve_delay_us().unwrap_or(0.0),
            backoff_us: self.backoff_paid_us - backoff_before,
            saved_us,
        };
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.finish_batch(batch_index, &served, ctx.request);
        }
        let Some(d) = self.durability.as_mut() else {
            return Ok(served);
        };

        // The record carries the fanout the batch was actually sampled
        // with: a replay at the configured fanout would diverge.
        let rec = batch_record(batch_index, batch, &served.report.outcome, fanout);
        if crash == Some(CrashSite::MidJournal) {
            d.journal.append_torn(&rec)?;
            return Err(self.crash(batch_index, CrashSite::MidJournal));
        }
        let telemetry = &self.trainer.telemetry;
        d.append(telemetry, &rec)?;
        if let BatchOutcome::Quarantined { .. } = served.report.outcome {
            let filed = self.quarantine.last().expect("quarantine just filed");
            d.append(telemetry, &Record::Quarantine(filed.clone()))?;
        }
        if crash == Some(CrashSite::MidCheckpoint) {
            // The batch committed to the journal, but the process dies
            // while staging the checkpoint: a torn temporary sibling is
            // left behind and the previous checkpoint stays intact
            // (save_file's atomicity is what makes this survivable).
            let bytes = checkpoint::to_bytes(self.trainer.params());
            let tmp = checkpoint::tmp_path(&d.cfg.checkpoint_path());
            std::fs::write(tmp, &bytes[..bytes.len() / 2])?;
            return Err(self.crash(batch_index, CrashSite::MidCheckpoint));
        }
        let every = d.cfg.checkpoint_every;
        if every > 0 && (batch_index + 1).is_multiple_of(every) {
            self.write_checkpoint(batch_index)?;
        }
        if crash == Some(CrashSite::AfterCommit) {
            return Err(self.crash(batch_index, CrashSite::AfterCommit));
        }
        Ok(served)
    }

    /// Die at an injected crash site: one event, one flight dump, and the
    /// error the caller sees instead of the batch's result.
    fn crash(&mut self, batch_index: usize, site: CrashSite) -> GtError {
        self.trainer.telemetry.event(
            "serve",
            "crash_injected",
            &[("batch", &batch_index), ("site", &site.label())],
        );
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.dump_now(&format!("crash:{}", site.label()));
        }
        GtError::InjectedCrash { site }
    }

    /// The retry/degrade ladder itself (see [`Supervisor::serve`]).
    fn run_ladder(&mut self, data: &GraphData, batch: &[VId]) -> BatchReport {
        let batch_index = self.batches_served;
        self.batches_served += 1;
        let telemetry = self.trainer.telemetry.clone();
        let _span = telemetry
            .span("serve", "serve_batch")
            .arg("batch", batch_index)
            .arg("batch_size", batch.len());
        telemetry
            .counter(
                "gt_serve_batches_total",
                "Batches submitted to the supervisor",
            )
            .inc();

        // Poison batches are rejected before they can touch the trainer.
        // Repeated ids are valid for the sampler (a BPR user may recur
        // across triples) but not for supervised training, where labels are
        // gathered per batch entry and rows per unique vertex.
        let has_dup = {
            let mut seen = std::collections::HashSet::with_capacity(batch.len());
            !batch.iter().all(|v| seen.insert(v))
        };
        if has_dup || validate_batch(&data.graph, batch, &self.trainer.sampler).is_err() {
            let outcome = self.give_up(batch_index, batch, FailReason::InvalidBatch, 0);
            return BatchReport {
                loss: f32::NAN,
                sim: SimContext::new(self.trainer.sys.gpu.clone()),
                prepro: None,
                num_nodes: 0,
                num_edges: 0,
                oom: None,
                outcome,
                telemetry: telemetry.clone(),
            };
        }

        let mut cur: Vec<VId> = batch.to_vec();
        let mut halved: Option<DegradeAction> = None;
        let mut consecutive_oom = 0usize;
        let mut attempt = 0usize;
        loop {
            // Serving-layer faults (crashes, serve stalls) are filtered
            // out: the trainer and DES must take the exact fault-free path
            // for them, or replay-based recovery loses its bit-identity
            // contract.
            self.trainer.injected = Some(self.plan.active(batch_index, attempt).des_relevant());
            let mut report = self.trainer.train_batch(data, &cur);

            let reason = match report.outcome {
                BatchOutcome::Failed { reason } => reason,
                _ => {
                    report.outcome = if let Some(action) = halved {
                        BatchOutcome::Degraded {
                            action,
                            retries: attempt,
                        }
                    } else if attempt > 0 {
                        BatchOutcome::Recovered { retries: attempt }
                    } else {
                        BatchOutcome::Succeeded
                    };
                    self.note_outcome(batch_index, &report.outcome);
                    return report;
                }
            };

            if attempt >= MAX_RETRIES {
                report.outcome = self.give_up(batch_index, batch, reason, attempt + 1);
                return report;
            }

            match reason {
                FailReason::TransferFailure => {
                    // Transient by assumption: back off and re-roll.
                    let wait_us = BACKOFF_BASE_US * (1u64 << attempt) as f64;
                    self.backoff_paid_us += wait_us;
                    telemetry
                        .counter(
                            "gt_serve_backoff_us_total",
                            "Virtual µs spent in retry backoff",
                        )
                        .add(wait_us as u64);
                    consecutive_oom = 0;
                }
                FailReason::OutOfMemory => {
                    consecutive_oom += 1;
                    // One plain retry first (transient pressure clears);
                    // a second OOM in a row means the batch must shrink.
                    if consecutive_oom >= 2 && cur.len() > 1 {
                        let from = cur.len();
                        let to = (from / 2).max(1);
                        halved = Some(match halved {
                            Some(DegradeAction::HalvedBatch { from, .. }) => {
                                DegradeAction::HalvedBatch { from, to }
                            }
                            _ => DegradeAction::HalvedBatch {
                                from: batch.len(),
                                to,
                            },
                        });
                        cur.truncate(to);
                        consecutive_oom = 0;
                        telemetry
                            .counter("gt_serve_halvings_total", "OOM batch halvings")
                            .inc();
                        telemetry.event(
                            "serve",
                            "oom_halving",
                            &[("batch", &batch_index), ("from", &from), ("to", &to)],
                        );
                    }
                }
                FailReason::InvalidBatch => {}
            }
            telemetry
                .counter("gt_serve_retries_total", "Retry attempts after a failure")
                .inc();
            telemetry.event(
                "serve",
                "retry",
                &[
                    ("batch", &batch_index),
                    ("attempt", &attempt),
                    ("reason", &reason.label()),
                ],
            );
            attempt += 1;
        }
    }

    /// Quarantine `batch` after `attempts` attempts: file the record and
    /// resolve the outcome.
    fn give_up(
        &mut self,
        batch_index: usize,
        batch: &[VId],
        reason: FailReason,
        attempts: usize,
    ) -> BatchOutcome {
        self.quarantine.push(QuarantineRecord {
            batch_index,
            batch: batch.to_vec(),
            reason,
            attempts,
        });
        let outcome = BatchOutcome::Quarantined { reason, attempts };
        self.note_outcome(batch_index, &outcome);
        outcome
    }

    /// Funnel every resolved [`BatchOutcome`] into one structured event and
    /// the per-outcome counters — the supervisor's externally visible
    /// transition record.
    fn note_outcome(&self, batch_index: usize, outcome: &BatchOutcome) {
        let telemetry = &self.trainer.telemetry;
        let (name, help) = match outcome {
            BatchOutcome::Succeeded => ("gt_serve_succeeded_total", "Batches trained first try"),
            BatchOutcome::Recovered { .. } => {
                ("gt_serve_recovered_total", "Batches trained after retries")
            }
            BatchOutcome::Degraded { .. } => {
                ("gt_serve_degraded_total", "Batches trained degraded")
            }
            BatchOutcome::Failed { .. } => ("gt_serve_failed_total", "Single failed attempts"),
            BatchOutcome::Quarantined { .. } => {
                ("gt_serve_quarantined_total", "Batches quarantined")
            }
            BatchOutcome::Shed { .. } => ("gt_serve_shed_total", "Batches shed by the gateway"),
        };
        telemetry.counter(name, help).inc();
        telemetry.event(
            "serve",
            "outcome",
            &[("batch", &batch_index), ("outcome", &outcome.label())],
        );
    }

    // ---- durable serving -------------------------------------------------

    /// Turn on durability: create `cfg.dir`, start a fresh write-ahead
    /// journal, and journal every [`serve`](Self::serve) from now on. For
    /// restarting over existing durable state use [`Supervisor::recover`]
    /// instead.
    pub fn make_durable(&mut self, cfg: DurabilityConfig) -> Result<(), GtError> {
        std::fs::create_dir_all(&cfg.dir)?;
        // A fresh journal is a fresh serving history; caches warmed before
        // it opened cannot be replayed, so they must start cold too.
        if let Some(caches) = self.caches.as_mut() {
            caches.reset();
        }
        // A crash between tmp-write and atomic rename in a *previous*
        // process leaks its staging sibling forever; sweep it on startup.
        checkpoint::remove_stale_tmp(cfg.checkpoint_path());
        let journal = Journal::create(cfg.journal_path())?;
        self.durability = Some(DurabilityState {
            journal,
            cfg,
            suppress_faults_below: 0,
        });
        Ok(())
    }

    /// True when outcomes are being journaled.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Checkpoint the current parameters now (e.g. at end of serving),
    /// regardless of the periodic cadence.
    pub fn checkpoint_now(&mut self) -> Result<(), GtError> {
        self.write_checkpoint(self.batches_served.saturating_sub(1))
    }

    /// Atomically save the checkpoint, then journal a marker carrying the
    /// image fingerprint so replay can verify it byte-for-byte.
    fn write_checkpoint(&mut self, batch_index: usize) -> Result<(), GtError> {
        let d = self
            .durability
            .as_mut()
            .ok_or_else(|| not_durable("checkpoint"))?;
        let telemetry = &self.trainer.telemetry;
        let image_crc = checkpoint::save_file(self.trainer.params(), d.cfg.checkpoint_path())?;
        let marker = Record::Checkpoint {
            index: batch_index,
            image_crc,
        };
        d.append(telemetry, &marker)?;
        telemetry
            .counter("gt_checkpoints_total", "Parameter checkpoints committed")
            .inc();
        // Cached subgraphs were sampled against the pre-checkpoint
        // parameter epoch; advancing it retires them deterministically.
        if let Some(caches) = self.caches.as_mut() {
            caches.bump_epoch();
        }
        Ok(())
    }

    /// Rebuild serving state after a crash by replaying the journal.
    ///
    /// `self` must be a freshly-constructed supervisor configured exactly
    /// like the one that crashed (same trainer settings, same fault plan):
    /// the whole pipeline is deterministic, so re-serving the journaled
    /// batches reproduces the crashed process's parameters and outcomes
    /// bit for bit. The journal is simultaneously a cross-check — any
    /// divergence between a recorded outcome (or checkpoint CRC) and its
    /// replay is surfaced as [`GtError::ReplayDiverged`].
    ///
    /// Recovery also self-heals the on-disk state: a torn journal tail is
    /// truncated away, a torn checkpoint staging file is deleted, and the
    /// checkpoint is re-exported from the replayed parameters. Afterwards
    /// the supervisor is durable again and resumes at the exact batch index
    /// where the crash hit.
    pub fn recover(
        &mut self,
        data: &GraphData,
        cfg: DurabilityConfig,
    ) -> Result<RecoveryReport, GtError> {
        let telemetry = self.trainer.telemetry.clone();
        // Replay rebuilds state; it must not journal what it replays.
        self.durability = None;
        // Checkpoint restore invalidates the serving caches outright; the
        // deterministic replay below rebuilds the exact cache state (and
        // hit counters) the crashed process had at the crash instant.
        if let Some(caches) = self.caches.as_mut() {
            caches.reset();
        }
        let scan = journal::read_journal(cfg.journal_path())?;
        if scan.torn_tail {
            journal::truncate_to(cfg.journal_path(), scan.valid_len)?;
        }
        // A crash mid-checkpoint leaves a torn staging sibling; drop it.
        checkpoint::remove_stale_tmp(cfg.checkpoint_path());

        let mut replayed = 0usize;
        let mut quarantine_restored = 0usize;
        let mut checkpoints_verified = 0usize;
        for rec in &scan.records {
            match rec {
                &Record::Batch {
                    index,
                    ref ids,
                    fanout,
                    ref outcome,
                } => {
                    // Batch records are appended with strictly sequential
                    // indices; a gap, swap or duplicate means the journal
                    // was reordered and must not replay silently (most
                    // outcomes are plain "succeeded", so outcome comparison
                    // alone would not catch it).
                    if index != replayed {
                        return Err(GtError::ReplayDiverged {
                            batch_index: index,
                            detail: format!(
                                "batch records out of order: expected index {replayed}, \
                                 found {index}"
                            ),
                        });
                    }
                    // Replay with the fanout the batch was served at (a
                    // gateway may have reduced it under load).
                    let ctx = ServeCtx {
                        fanout,
                        ..ServeCtx::default()
                    };
                    let served = self.serve(data, ids, ctx)?;
                    let recorded = outcome.to_json_string();
                    let got = served.report.outcome.to_json().to_json_string();
                    if got != recorded {
                        return Err(GtError::ReplayDiverged {
                            batch_index: index,
                            detail: format!("recorded {recorded}, replayed {got}"),
                        });
                    }
                    replayed += 1;
                }
                Record::Quarantine(filed) => {
                    // The replay re-quarantined deterministically; the
                    // journaled record must match the one just re-filed.
                    if self.quarantine.last() != Some(filed) {
                        return Err(GtError::ReplayDiverged {
                            batch_index: replayed.saturating_sub(1),
                            detail: "journaled quarantine record does not match replay".to_string(),
                        });
                    }
                    quarantine_restored += 1;
                }
                &Record::Checkpoint { image_crc, .. } => {
                    let computed =
                        checkpoint::image_crc(&checkpoint::to_bytes(self.trainer.params()));
                    if computed != image_crc {
                        return Err(GtError::ReplayDiverged {
                            batch_index: replayed.saturating_sub(1),
                            detail: format!(
                                "checkpoint CRC mismatch: recorded {image_crc:#010x}, \
                                 replayed {computed:#010x}"
                            ),
                        });
                    }
                    checkpoints_verified += 1;
                    // The live run bumped the cache epoch when this
                    // checkpoint committed; replay must too, or subgraph
                    // keys (and thus hit counters) would diverge.
                    if let Some(caches) = self.caches.as_mut() {
                        caches.bump_epoch();
                    }
                }
            }
        }
        // Self-heal the checkpoint: after replay the freshest parameters
        // are in memory; re-export them so the on-disk artifact is current
        // regardless of where the crash hit.
        if replayed > 0 {
            checkpoint::save_file(self.trainer.params(), cfg.checkpoint_path())?;
        }
        let journal = Journal::open_append(cfg.journal_path())?;
        self.durability = Some(DurabilityState {
            journal,
            cfg,
            // The fault that felled the previous process must not re-fire
            // on this one — suppress durability rules up to and including
            // the resume index.
            suppress_faults_below: replayed + 1,
        });
        telemetry.event(
            "serve",
            "recovered",
            &[
                ("batches_replayed", &replayed),
                ("quarantine_restored", &quarantine_restored),
                ("checkpoints_verified", &checkpoints_verified),
                ("torn_tail_dropped", &scan.torn_tail),
            ],
        );
        Ok(RecoveryReport {
            batches_replayed: replayed,
            quarantine_restored,
            checkpoints_verified,
            torn_tail_dropped: scan.torn_tail,
        })
    }
}
