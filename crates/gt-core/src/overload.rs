//! Deadline watchdog, multi-tenant admission, and overload shedding in
//! front of the supervisor.
//!
//! The [`Supervisor`] keeps individual batches
//! alive through faults; this module keeps the *service* alive through
//! load. A [`Gateway`] owns a bounded admission queue driven by a virtual
//! clock (the same simulated-µs timeline the DES prices batches in) and
//! applies a shed/degrade ladder ordered by queue pressure:
//!
//! 1. **Quota** — with [`TenancyConfig`] enabled, each tenant spends one
//!    token per submission from a token bucket refilled at
//!    [`TenantQuota::rate_per_s`] on the virtual clock; an empty bucket
//!    sheds the arrival ([`ShedCause::QuotaExceeded`]) before it can take
//!    queue space from other tenants.
//! 2. **Deadline watchdog** — a queued request that has waited, *or
//!    provably will wait* (the server is busy until `busy_until_us`), at
//!    least [`OverloadConfig::deadline_us`] is shed
//!    ([`ShedCause::DeadlineExpired`]): serving it would burn capacity on
//!    an answer nobody is waiting for, which is how overload spirals. The
//!    bound is inclusive — a wait of exactly the deadline is already late.
//! 3. **Reduced fanout** — at queue depth ≥
//!    [`OverloadConfig::degrade_watermark`], batches are sampled with
//!    [`OverloadConfig::reduced_fanout`] instead of the configured fanout,
//!    shrinking per-batch preprocessing and GPU work while the queue
//!    drains ([`DegradeAction::ReducedFanout`]).
//! 4. **Halved batch** — at depth ≥ [`OverloadConfig::halve_watermark`],
//!    batches are additionally cut in half. When both rungs engage the
//!    completion reports the composed
//!    [`DegradeAction::HalvedBatchReducedFanout`], never just one of them.
//! 5. **Reject newest** — when the queue is full, the arriving request is
//!    refused outright ([`ShedCause::QueueFull`]); the queue can never
//!    grow past [`OverloadConfig::queue_capacity`].
//!
//! With tenancy enabled, admitted requests are dequeued by deficit round
//! robin: each tenant accrues [`TenancyConfig::quantum`] deficit (in batch
//! vertices) per round-robin visit and serves from its FIFO while the
//! deficit covers the head's cost, so a flooding tenant cannot starve the
//! others regardless of arrival interleaving. Without tenancy the gateway
//! is the single global FIFO it always was.
//!
//! Every resolution — served, degraded, or shed — produces exactly one
//! [`Completion`] and one structured telemetry event on the `gateway`
//! track, so an exported trace reconciles 1:1 against the outcomes the
//! caller saw. With tenancy enabled, labeled per-tenant
//! `gt_gateway_tenant_{submitted,served,shed,degraded}_total{tenant="t"}`
//! series break the same stream down by tenant.
//!
//! Service time for a batch is [`Served::service_us`](crate::serve::Served):
//! its overlapped end-to-end latency
//! ([`BatchReport::e2e_us`](crate::framework::BatchReport::e2e_us)) plus any injected
//! [`gt_sim::FaultKind::ServeDelay`] stall and any retry backoff the
//! supervisor paid — so a fault plan with a sustained stall window is
//! exactly how tests (and capacity planners) push the gateway into
//! overload, deterministically. When serving caches are enabled on the
//! supervisor ([`Supervisor::enable_caches`]), the preprocessing µs a
//! cache hit saved are subtracted from the critical path before the
//! overlap max — warm caches raise effective capacity.

use crate::data::GraphData;
use crate::framework::{BatchOutcome, DegradeAction, ShedCause};
use crate::serve::{RequestCtx, ServeCtx, Supervisor};
use gt_graph::VId;
use gt_telemetry::Telemetry;
use std::collections::VecDeque;

/// Admission-control policy of the gateway.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Hard bound on queued requests; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// A request that has waited — or provably will wait — at least this
    /// long when it would start is shed instead of served (∞ = no
    /// deadline). The bound is inclusive.
    pub deadline_us: f64,
    /// Queue depth at which batches are served with reduced fanout.
    pub degrade_watermark: usize,
    /// Queue depth at which batches are additionally halved.
    pub halve_watermark: usize,
    /// Fanout used while degraded (clamped to the configured fanout).
    pub reduced_fanout: usize,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            queue_capacity: 8,
            deadline_us: f64::INFINITY,
            degrade_watermark: 4,
            halve_watermark: 6,
            reduced_fanout: 2,
        }
    }
}

/// Token-bucket admission quota for one tenant.
#[derive(Debug, Clone)]
pub struct TenantQuota {
    /// Sustained admission rate, requests per virtual second.
    pub rate_per_s: f64,
    /// Bucket capacity: how many requests may burst above the rate.
    pub burst: f64,
}

impl TenantQuota {
    /// A quota admitting `rate_per_s` sustained with `burst` headroom.
    pub fn new(rate_per_s: f64, burst: f64) -> Self {
        TenantQuota { rate_per_s, burst }
    }

    /// No quota: the bucket never empties.
    pub fn unlimited() -> Self {
        TenantQuota {
            rate_per_s: f64::INFINITY,
            burst: f64::INFINITY,
        }
    }
}

/// Multi-tenant admission policy: one quota per tenant plus the deficit
/// round-robin quantum (in batch vertices) used to share the server.
#[derive(Debug, Clone)]
pub struct TenancyConfig {
    /// Per-tenant token-bucket quotas; the vector length fixes the tenant
    /// count and tenant ids are indices into it.
    pub quotas: Vec<TenantQuota>,
    /// Deficit round-robin quantum, in batch vertices, accrued per visit.
    pub quantum: usize,
}

/// One admitted request waiting for service.
#[derive(Debug)]
struct Pending {
    request_index: usize,
    tenant: usize,
    arrival_us: f64,
    batch: Vec<VId>,
}

/// Per-tenant admission state: FIFO, token bucket, and DRR deficit.
#[derive(Debug)]
struct Tenant {
    queue: VecDeque<Pending>,
    tokens: f64,
    refilled_us: f64,
    deficit: usize,
}

impl Tenant {
    fn new(tokens: f64) -> Self {
        Tenant {
            queue: VecDeque::new(),
            tokens,
            refilled_us: 0.0,
            deficit: 0,
        }
    }
}

/// How one submitted request resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Submission index of the request (0-based, in arrival order).
    pub request_index: usize,
    /// Tenant the request was submitted for (0 without tenancy).
    pub tenant: usize,
    /// The resolution: a served outcome, or [`BatchOutcome::Shed`].
    pub outcome: BatchOutcome,
    /// Virtual µs the request waited in the admission queue.
    pub queued_us: f64,
    /// Virtual µs of service (0 for shed requests).
    pub service_us: f64,
    /// Virtual timestamp at which the request left the system.
    pub done_us: f64,
}

/// Bounded admission queue + deadline watchdog + shed/degrade ladder in
/// front of a [`Supervisor`], whatever layers it has armed. See the
/// module docs for the ladder.
///
/// The gateway has no recovery protocol of its own: a supervisor error (an
/// injected crash while durable) panics the submission. Serving through a
/// crash is a restart: [`Supervisor::recover`] from the journal, then a
/// fresh gateway in front of the recovered supervisor.
pub struct Gateway {
    /// The supervisor behind the queue.
    pub supervisor: Supervisor,
    /// Admission-control policy.
    pub config: OverloadConfig,
    tenancy: Option<TenancyConfig>,
    tenants: Vec<Tenant>,
    rr_cursor: usize,
    busy_until_us: f64,
    last_arrival_us: f64,
    submitted: usize,
}

impl Gateway {
    /// Put `supervisor` behind an admission queue with `config`.
    pub fn new(supervisor: Supervisor, config: OverloadConfig) -> Self {
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        Gateway {
            supervisor,
            config,
            tenancy: None,
            tenants: vec![Tenant::new(f64::INFINITY)],
            rr_cursor: 0,
            busy_until_us: 0.0,
            last_arrival_us: 0.0,
            submitted: 0,
        }
    }

    /// Switch the gateway to multi-tenant admission. Must be called before
    /// the first submission; tenant ids are indices into `cfg.quotas`.
    pub fn enable_tenancy(&mut self, cfg: TenancyConfig) {
        assert_eq!(
            self.submitted, 0,
            "tenancy must be configured before any submission"
        );
        assert!(!cfg.quotas.is_empty(), "tenancy needs at least one tenant");
        assert!(cfg.quantum > 0, "DRR quantum must be positive");
        self.tenants = cfg.quotas.iter().map(|q| Tenant::new(q.burst)).collect();
        self.rr_cursor = 0;
        self.tenancy = Some(cfg);
    }

    /// Requests currently waiting (never exceeds the configured capacity).
    pub fn queue_depth(&self) -> usize {
        self.tenants.iter().map(|t| t.queue.len()).sum()
    }

    /// Requests submitted so far.
    pub fn submitted(&self) -> usize {
        self.submitted
    }

    /// Submit a single-tenant request (tenant 0); see [`Gateway::submit_from`].
    pub fn submit(&mut self, data: &GraphData, arrival_us: f64, batch: &[VId]) -> Vec<Completion> {
        self.submit_from(data, arrival_us, 0, batch)
    }

    /// Submit a request for `tenant` arriving at `arrival_us` (arrivals
    /// must be monotone across all tenants). The virtual clock advances to
    /// the arrival: every queued request whose service completes by then is
    /// processed first, and the resulting completions — plus this request's
    /// own immediate shed, if quota, capacity, or the deadline refuse it —
    /// are returned in resolution order.
    pub fn submit_from(
        &mut self,
        data: &GraphData,
        arrival_us: f64,
        tenant: usize,
        batch: &[VId],
    ) -> Vec<Completion> {
        assert!(
            arrival_us >= self.last_arrival_us,
            "arrivals must be monotone: {arrival_us} < {}",
            self.last_arrival_us
        );
        assert!(
            tenant < self.tenants.len(),
            "tenant {tenant} out of range (0..{})",
            self.tenants.len()
        );
        self.last_arrival_us = arrival_us;
        let p = Pending {
            request_index: self.submitted,
            tenant,
            arrival_us,
            batch: batch.to_vec(),
        };
        self.submitted += 1;
        self.count_tenant(
            "gt_gateway_tenant_submitted_total",
            "Requests submitted, by tenant",
            tenant,
        );

        let mut done = self.pump(data, arrival_us);

        // Token-bucket quota, refilled on the virtual arrival clock.
        let over_quota = self.tenancy.as_ref().is_some_and(|cfg| {
            let quota = &cfg.quotas[tenant];
            let t = &mut self.tenants[tenant];
            let elapsed_s = (arrival_us - t.refilled_us) / 1e6;
            t.tokens = quota.burst.min(t.tokens + elapsed_s * quota.rate_per_s);
            t.refilled_us = arrival_us;
            let over = t.tokens < 1.0;
            if !over {
                t.tokens -= 1.0;
            }
            over
        });
        let refused = if over_quota {
            Some(ShedCause::QuotaExceeded)
        } else if self.queue_depth() >= self.config.queue_capacity {
            Some(ShedCause::QueueFull)
        } else if self.busy_until_us.max(arrival_us) - arrival_us >= self.config.deadline_us {
            // Predicted lateness: the server is provably busy past this
            // request's deadline before it could even start — shedding now
            // is strictly better than queueing a guaranteed-late answer.
            Some(ShedCause::DeadlineExpired)
        } else {
            None
        };
        match refused {
            Some(cause) => {
                let depth = self.queue_depth();
                done.push(self.shed(&p, arrival_us, cause, ("queue_depth", &depth)));
            }
            None => self.tenants[tenant].queue.push_back(p),
        }
        self.set_depth_gauge(self.queue_depth());
        done
    }

    /// Run the virtual clock forward until the queue is empty and return
    /// the remaining completions.
    pub fn drain(&mut self, data: &GraphData) -> Vec<Completion> {
        let done = self.pump(data, f64::INFINITY);
        self.set_depth_gauge(0);
        done
    }

    /// The handle the gateway exports through: the supervisor's.
    fn telemetry(&self) -> &Telemetry {
        &self.supervisor.trainer.telemetry
    }

    fn set_depth_gauge(&self, depth: usize) {
        self.telemetry()
            .gauge("gt_gateway_queue_depth", "Admission-queue occupancy")
            .set(depth as f64);
    }

    /// Bump a per-tenant series; they exist only under tenancy.
    fn count_tenant(&self, name: &str, help: &str, tenant: usize) {
        if self.tenancy.is_some() {
            self.telemetry()
                .counter_with(name, help, &[("tenant", &tenant.to_string())])
                .inc();
        }
    }

    /// How the service (and its tracer) sees request `p` starting — or
    /// being refused — at `start_us`; tenants are named only under tenancy.
    fn request_ctx(&self, p: &Pending, start_us: f64) -> RequestCtx {
        RequestCtx {
            index: p.request_index,
            tenant: self.tenancy.is_some().then_some(p.tenant),
            arrival_us: p.arrival_us,
            start_us,
        }
    }

    /// Refuse `p` at `at_us` — on arrival (quota, capacity, predicted
    /// lateness) or from the queue once provably late: one counter bump,
    /// one event (`detail` is its third argument), one completion. The
    /// server is never occupied.
    fn shed(
        &mut self,
        p: &Pending,
        at_us: f64,
        cause: ShedCause,
        detail: (&str, &dyn std::fmt::Display),
    ) -> Completion {
        self.telemetry()
            .counter("gt_gateway_shed_total", "Requests shed by the gateway")
            .inc();
        self.count_tenant(
            "gt_gateway_tenant_shed_total",
            "Requests shed, by tenant",
            p.tenant,
        );
        self.telemetry().event(
            "gateway",
            "shed",
            &[
                ("request", &p.request_index),
                ("cause", &cause.label()),
                detail,
            ],
        );
        let outcome = BatchOutcome::Shed { cause };
        // The shed request's trace and SLO sample still exist.
        let request = self.request_ctx(p, at_us);
        if let Some(tracer) = self.supervisor.tracer.as_mut() {
            tracer.record_shed(request, &outcome);
        }
        Completion {
            request_index: p.request_index,
            tenant: p.tenant,
            outcome,
            queued_us: at_us - p.arrival_us,
            service_us: 0.0,
            done_us: at_us,
        }
    }

    /// Pick the tenant whose queue head is served next. Without tenancy
    /// this is the global FIFO; with tenancy it is deficit round robin:
    /// each visit to a nonempty tenant accrues one quantum, and a tenant
    /// holds the cursor while its deficit covers its head's cost. Emptied
    /// tenants forfeit their deficit. Re-selection without an intervening
    /// serve is idempotent (an affordable head returns before any accrual),
    /// so pausing the pump mid-backlog cannot skew the schedule.
    fn select_tenant(&mut self) -> Option<usize> {
        let Some(quantum) = self.tenancy.as_ref().map(|t| t.quantum) else {
            return (!self.tenants[0].queue.is_empty()).then_some(0);
        };
        if self.queue_depth() == 0 {
            return None;
        }
        let n = self.tenants.len();
        loop {
            let t = self.rr_cursor;
            let Some(front) = self.tenants[t].queue.front() else {
                self.tenants[t].deficit = 0;
                self.rr_cursor = (t + 1) % n;
                continue;
            };
            let cost = front.batch.len().max(1);
            if self.tenants[t].deficit >= cost {
                return Some(t);
            }
            self.tenants[t].deficit += quantum;
            if self.tenants[t].deficit >= cost {
                return Some(t);
            }
            self.rr_cursor = (t + 1) % n;
        }
    }

    /// DRR bookkeeping after tenant `t`'s head was removed. Serving charges
    /// the head's cost against the deficit; shedding is free (the server
    /// was never occupied). The cursor stays on `t` while it can still
    /// afford its next head, otherwise moves on.
    fn after_dequeue(&mut self, t: usize, served_cost: Option<usize>) {
        if self.tenancy.is_none() {
            return;
        }
        let n = self.tenants.len();
        let ten = &mut self.tenants[t];
        if let Some(cost) = served_cost {
            ten.deficit = ten.deficit.saturating_sub(cost);
        }
        match ten.queue.front() {
            None => {
                ten.deficit = 0;
                self.rr_cursor = (t + 1) % n;
            }
            Some(next) if ten.deficit < next.batch.len().max(1) => {
                self.rr_cursor = (t + 1) % n;
            }
            Some(_) => {}
        }
    }

    /// Process queued requests whose service starts by `now_us`. Fronts
    /// that are already (or provably) past the deadline are shed even
    /// beyond `now_us` — their lateness is a fact the moment
    /// `busy_until_us` passes the bound, not something to wait for.
    fn pump(&mut self, data: &GraphData, now_us: f64) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(t) = self.select_tenant() {
            let front = self.tenants[t].queue.front().expect("selected nonempty");
            let start_us = self.busy_until_us.max(front.arrival_us);
            let queued_us = start_us - front.arrival_us;
            let late = queued_us >= self.config.deadline_us;
            if start_us > now_us && !late {
                break;
            }
            let p = self.tenants[t].queue.pop_front().expect("front checked");
            self.telemetry()
                .histogram_us("gt_gateway_queue_wait_us", "Admission-queue wait, µs")
                .observe(queued_us);
            if late {
                // Deadline watchdog: the answer is already too late.
                self.after_dequeue(t, None);
                let waited = format!("{queued_us:.0}");
                let cause = ShedCause::DeadlineExpired;
                out.push(self.shed(&p, start_us, cause, ("queued_us", &waited)));
                continue;
            }
            let depth = self.queue_depth();
            let (outcome, service_us) = self.serve_one(data, &p, depth, start_us);
            self.busy_until_us = start_us + service_us;
            self.after_dequeue(t, Some(p.batch.len().max(1)));
            self.count_tenant(
                "gt_gateway_tenant_served_total",
                "Requests served, by tenant",
                t,
            );
            if matches!(outcome, BatchOutcome::Degraded { .. }) {
                self.count_tenant(
                    "gt_gateway_tenant_degraded_total",
                    "Requests served degraded, by tenant",
                    t,
                );
            }
            self.telemetry().event(
                "gateway",
                "served",
                &[
                    ("request", &p.request_index),
                    ("outcome", &outcome.label()),
                    ("queue_depth", &depth),
                ],
            );
            out.push(Completion {
                request_index: p.request_index,
                tenant: p.tenant,
                outcome,
                queued_us,
                service_us,
                done_us: start_us + service_us,
            });
        }
        out
    }

    /// Serve one admitted request, applying the degrade ladder for the
    /// current queue `depth`; returns its outcome and service time.
    /// `start_us` is when service begins on the virtual clock (≥ arrival).
    fn serve_one(
        &mut self,
        data: &GraphData,
        p: &Pending,
        depth: usize,
        start_us: f64,
    ) -> (BatchOutcome, f64) {
        let mut batch = &p.batch[..];
        let mut action: Option<DegradeAction> = None;
        if depth >= self.config.halve_watermark && batch.len() > 1 {
            let from = batch.len();
            let to = (from / 2).max(1);
            batch = &batch[..to];
            action = Some(DegradeAction::HalvedBatch { from, to });
        }
        let mut fanout = None;
        if depth >= self.config.degrade_watermark {
            let from = self.supervisor.trainer.sampler.fanout;
            let to = self.config.reduced_fanout.min(from);
            if to < from {
                fanout = Some(to);
                // Both rungs engaged must be reported as both rungs: the
                // composed variant, not whichever fired first.
                action = Some(match action.take() {
                    Some(DegradeAction::HalvedBatch { from: bf, to: bt }) => {
                        DegradeAction::HalvedBatchReducedFanout {
                            from: bf,
                            to: bt,
                            fanout_from: from,
                            fanout_to: to,
                        }
                    }
                    _ => DegradeAction::ReducedFanout { from, to },
                });
            }
        }
        if let Some(a) = &action {
            self.telemetry()
                .counter(
                    "gt_gateway_degraded_total",
                    "Requests served degraded under load",
                )
                .inc();
            self.telemetry().event(
                "gateway",
                "degrade",
                &[
                    ("request", &p.request_index),
                    ("queue_depth", &depth),
                    ("action", &a.label()),
                ],
            );
        }

        let ctx = ServeCtx {
            fanout,
            request: Some(self.request_ctx(p, start_us)),
        };
        let served = self
            .supervisor
            .serve(data, batch, ctx)
            .unwrap_or_else(|e| panic!("the supervisor behind the gateway failed: {e}"));

        // A gateway degradation outranks a clean supervisor outcome in the
        // report (the caller got less than it asked for); a supervisor
        // degradation or quarantine is more severe and wins.
        let outcome = match (served.report.outcome, action) {
            (BatchOutcome::Succeeded, Some(a)) => BatchOutcome::Degraded {
                action: a,
                retries: 0,
            },
            (BatchOutcome::Recovered { retries }, Some(a)) => {
                BatchOutcome::Degraded { action: a, retries }
            }
            (o, _) => o,
        };
        (outcome, served.service_us())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::serve::Supervisor;
    use crate::trainer::{GraphTensor, GtVariant};
    use gt_sample::SamplerConfig;
    use gt_sim::{FaultPlan, SystemSpec};

    fn data() -> GraphData {
        GraphData::synthetic(300, 3000, 16, 4, 3)
    }

    fn supervisor(plan: FaultPlan) -> Supervisor {
        let mut t = GraphTensor::new(
            GtVariant::Dynamic,
            ModelConfig::gcn(2, 16, 4),
            SystemSpec::tiny(),
        );
        t.sampler = SamplerConfig {
            fanout: 4,
            layers: 2,
            seed: 11,
            ..Default::default()
        };
        t.telemetry = gt_telemetry::Telemetry::recording();
        Supervisor::new(t, plan)
    }

    /// `(capacity, deadline, degrade/halve watermarks)` at reduced fanout 2.
    fn cfg(
        queue_capacity: usize,
        deadline_us: f64,
        degrade: usize,
        halve: usize,
    ) -> OverloadConfig {
        OverloadConfig {
            queue_capacity,
            deadline_us,
            degrade_watermark: degrade,
            halve_watermark: halve,
            reduced_fanout: 2,
        }
    }

    fn batches(n: usize) -> Vec<Vec<VId>> {
        (0..n)
            .map(|i| {
                ((i * 8) as VId..(i * 8 + 8) as VId)
                    .map(|v| v % 300)
                    .collect()
            })
            .collect()
    }

    /// With arrivals far slower than service, the gateway is a pass-through:
    /// everything succeeds, nothing is shed or degraded.
    #[test]
    fn underload_is_a_passthrough() {
        let mut g = Gateway::new(supervisor(FaultPlan::new(0)), OverloadConfig::default());
        let d = data();
        let mut all = Vec::new();
        for (i, b) in batches(6).iter().enumerate() {
            all.extend(g.submit(&d, i as f64 * 1e9, b));
        }
        all.extend(g.drain(&d));
        assert_eq!(all.len(), 6);
        assert!(all.iter().all(|c| c.outcome == BatchOutcome::Succeeded));
        assert!(all.iter().all(|c| c.queued_us == 0.0));
        assert!(all.iter().all(|c| c.tenant == 0));
    }

    /// A sustained injected stall makes service far slower than arrivals:
    /// the queue must stay bounded by shedding, the ladder must degrade,
    /// and each completion must have exactly one matching gateway event.
    #[test]
    fn overload_sheds_and_degrades_with_bounded_queue() {
        let plan = FaultPlan::new(7).with_serve_delay_window(50_000.0, 0, None);
        let mut g = Gateway::new(supervisor(plan), cfg(4, f64::INFINITY, 2, 3));
        let d = data();
        let mut all = Vec::new();
        for (i, b) in batches(24).iter().enumerate() {
            // Arrivals every 1 000 µs vs ≥50 000 µs of service: hard overload.
            all.extend(g.submit(&d, i as f64 * 1000.0, b));
            assert!(g.queue_depth() <= 4, "queue overflowed");
        }
        all.extend(g.drain(&d));
        assert_eq!(all.len(), 24, "every request must resolve exactly once");
        let shed = all
            .iter()
            .filter(|c| matches!(c.outcome, BatchOutcome::Shed { .. }))
            .count();
        let degraded = all
            .iter()
            .filter(|c| matches!(c.outcome, BatchOutcome::Degraded { .. }))
            .count();
        assert!(shed > 0, "hard overload must shed");
        assert!(degraded > 0, "ladder must degrade under pressure");

        // Telemetry ↔ outcome reconciliation: one gateway event per
        // completion, with matching cause/outcome labels.
        let events = g.supervisor.trainer.telemetry.events();
        let resolution_events: Vec<_> = events
            .iter()
            .filter(|e| e.track == "gateway" && (e.name == "shed" || e.name == "served"))
            .collect();
        assert_eq!(resolution_events.len(), all.len());
        for c in &all {
            let idx = c.request_index.to_string();
            let ev = resolution_events
                .iter()
                .find(|e| e.args.iter().any(|(k, v)| k == "request" && *v == idx))
                .unwrap_or_else(|| panic!("no event for request {idx}"));
            match c.outcome {
                BatchOutcome::Shed { cause } => {
                    assert_eq!(ev.name, "shed");
                    assert!(ev
                        .args
                        .iter()
                        .any(|(k, v)| k == "cause" && v == cause.label()));
                }
                o => {
                    assert_eq!(ev.name, "served");
                    assert!(ev
                        .args
                        .iter()
                        .any(|(k, v)| k == "outcome" && v == o.label()));
                }
            }
        }
    }

    /// When both the halve and the fanout rungs engage, the completion
    /// must report the composed action — not just whichever fired first —
    /// and the degrade event must carry the composed label.
    #[test]
    fn composed_degradation_reports_both_rungs() {
        let plan = FaultPlan::new(7).with_serve_delay_window(50_000.0, 0, None);
        let mut g = Gateway::new(supervisor(plan), cfg(6, f64::INFINITY, 2, 3));
        let d = data();
        let mut all = Vec::new();
        for (i, b) in batches(16).iter().enumerate() {
            all.extend(g.submit(&d, i as f64 * 1000.0, b));
        }
        all.extend(g.drain(&d));
        let composed: Vec<&Completion> = all
            .iter()
            .filter(|c| {
                matches!(
                    c.outcome,
                    BatchOutcome::Degraded {
                        action: DegradeAction::HalvedBatchReducedFanout { .. },
                        ..
                    }
                )
            })
            .collect();
        assert!(
            !composed.is_empty(),
            "deep queue must compose both degrade rungs"
        );
        for c in &composed {
            let BatchOutcome::Degraded {
                action:
                    DegradeAction::HalvedBatchReducedFanout {
                        from,
                        to,
                        fanout_from,
                        fanout_to,
                    },
                ..
            } = c.outcome
            else {
                unreachable!("filtered above");
            };
            assert!(to < from, "batch must actually shrink");
            assert!(fanout_to < fanout_from, "fanout must actually shrink");
        }
        // Each composed completion has a degrade event with the composed label.
        let events = g.supervisor.trainer.telemetry.events();
        for c in &composed {
            let idx = c.request_index.to_string();
            assert!(
                events.iter().any(|e| {
                    e.track == "gateway"
                        && e.name == "degrade"
                        && e.args.iter().any(|(k, v)| k == "request" && *v == idx)
                        && e.args
                            .iter()
                            .any(|(k, v)| k == "action" && v == "halved-batch+reduced-fanout")
                }),
                "no composed degrade event for request {idx}"
            );
        }
    }

    /// The watchdog sheds requests whose queue wait blows the deadline.
    #[test]
    fn deadline_watchdog_sheds_stale_requests() {
        let plan = FaultPlan::new(3).with_serve_delay_window(100_000.0, 0, None);
        let mut g = Gateway::new(supervisor(plan), cfg(16, 150_000.0, usize::MAX, usize::MAX));
        let d = data();
        let mut all = Vec::new();
        for (i, b) in batches(8).iter().enumerate() {
            all.extend(g.submit(&d, i as f64 * 10.0, b));
        }
        all.extend(g.drain(&d));
        assert_eq!(all.len(), 8);
        let expired = all
            .iter()
            .filter(|c| {
                c.outcome
                    == BatchOutcome::Shed {
                        cause: ShedCause::DeadlineExpired,
                    }
            })
            .count();
        assert!(expired > 0, "no deadline sheds under a 100ms/batch stall");
        // Early requests (short waits) are still served.
        assert!(all.iter().any(|c| c.outcome.trained()));
        // Shed-by-deadline requests never occupied the server.
        for c in &all {
            if matches!(c.outcome, BatchOutcome::Shed { .. }) {
                assert_eq!(c.service_us, 0.0);
            }
        }
    }

    /// Tenancy: token buckets shed a tenant that exceeds its quota, and
    /// deficit round robin keeps the remaining tenants' service balanced.
    #[test]
    fn tenant_quotas_and_fair_queue() {
        let plan = FaultPlan::new(5).with_serve_delay_window(40_000.0, 0, None);
        let mut g = Gateway::new(
            supervisor(plan),
            cfg(24, f64::INFINITY, usize::MAX, usize::MAX),
        );
        // Tenant 2 is offered ~333 req/s but its quota admits 20 req/s with
        // a burst of 1: the first request passes, the rest are shed.
        g.enable_tenancy(TenancyConfig {
            quotas: vec![
                TenantQuota::unlimited(),
                TenantQuota::unlimited(),
                TenantQuota::new(20.0, 1.0),
            ],
            quantum: 8,
        });
        let d = data();
        let n = 24;
        let mut all = Vec::new();
        for (i, b) in batches(n).iter().enumerate() {
            all.extend(g.submit_from(&d, i as f64 * 1000.0, i % 3, b));
        }
        all.extend(g.drain(&d));
        assert_eq!(all.len(), n, "every request must resolve exactly once");

        let quota_shed: Vec<&Completion> = all
            .iter()
            .filter(|c| {
                c.outcome
                    == BatchOutcome::Shed {
                        cause: ShedCause::QuotaExceeded,
                    }
            })
            .collect();
        assert!(!quota_shed.is_empty(), "tenant 2 must exceed its quota");
        assert!(
            quota_shed.iter().all(|c| c.tenant == 2),
            "only the over-quota tenant may be quota-shed"
        );
        let served_by = |t: usize| {
            all.iter()
                .filter(|c| c.tenant == t && c.outcome.trained())
                .count()
        };
        assert!(
            served_by(0) > 0 && served_by(1) > 0,
            "DRR must serve both tenants"
        );
        assert!(
            (served_by(0) as i64 - served_by(1) as i64).abs() <= 1,
            "equal offered load must get near-equal service: {} vs {}",
            served_by(0),
            served_by(1)
        );

        // Per-tenant counters reconcile with the completion stream.
        let tm = &g.supervisor.trainer.telemetry;
        for t in 0..3 {
            let submitted = all.iter().filter(|c| c.tenant == t).count() as u64;
            let shed = all
                .iter()
                .filter(|c| c.tenant == t && matches!(c.outcome, BatchOutcome::Shed { .. }))
                .count() as u64;
            let tenant = t.to_string();
            assert_eq!(
                tm.counter_with(
                    "gt_gateway_tenant_submitted_total",
                    "",
                    &[("tenant", &tenant)]
                )
                .get(),
                submitted
            );
            assert_eq!(
                tm.counter_with("gt_gateway_tenant_shed_total", "", &[("tenant", &tenant)])
                    .get(),
                shed
            );
            assert_eq!(
                tm.counter_with("gt_gateway_tenant_served_total", "", &[("tenant", &tenant)])
                    .get(),
                submitted - shed
            );
        }
    }

    /// Identical plans and arrival sequences resolve identically — the
    /// gateway inherits the stack's determinism contract.
    #[test]
    fn gateway_is_deterministic() {
        let run = || {
            let plan = FaultPlan::new(9)
                .with_serve_delay_window(30_000.0, 0, None)
                .with_transfer_failure(0.2);
            let mut g = Gateway::new(supervisor(plan), cfg(3, 200_000.0, 1, 2));
            g.enable_tenancy(TenancyConfig {
                quotas: vec![TenantQuota::new(400.0, 2.0), TenantQuota::unlimited()],
                quantum: 8,
            });
            let d = data();
            let mut all = Vec::new();
            for (i, b) in batches(12).iter().enumerate() {
                all.extend(g.submit_from(&d, i as f64 * 2000.0, i % 2, b));
            }
            all.extend(g.drain(&d));
            all
        };
        assert_eq!(run(), run());
    }

    /// Deficit round robin: a flooding tenant cannot starve a late one.
    #[test]
    fn drr_order_under_a_flooding_tenant() {
        let d = data();
        let mut g = Gateway::new(
            supervisor(FaultPlan::new(0)),
            cfg(16, f64::INFINITY, usize::MAX, usize::MAX),
        );
        g.enable_tenancy(TenancyConfig {
            quotas: vec![TenantQuota::unlimited(), TenantQuota::unlimited()],
            quantum: 4,
        });
        // Tenant 0 floods requests 0..6 before tenant 1's 6 and 7 arrive,
        // all at t=0, every batch costing one quantum. Request 0 starts at
        // once and request 1 was already selected (deficit paid) before
        // tenant 1 had a backlog; from then on the tenants alternate until
        // tenant 1's queue is empty.
        let mut done = Vec::new();
        for tenant in [0, 0, 0, 0, 0, 0, 1, 1] {
            done.extend(g.submit_from(&d, 0.0, tenant, &[0, 1, 2, 3]));
        }
        done.extend(g.drain(&d));
        let order: Vec<usize> = done.iter().map(|c| c.request_index).collect();
        assert_eq!(order, [0, 1, 6, 2, 7, 3, 4, 5]);
        // Service is back to back: nothing is shed and the server never
        // idles while the backlog lasts.
        let mut busy_until = 0.0;
        for c in &done {
            assert!(c.outcome.trained(), "{c:?}");
            assert_eq!(c.done_us, busy_until + c.service_us);
            busy_until = c.done_us;
        }
    }

    /// Regression for the off-by-one at the deadline boundary: a wait of
    /// *exactly* the deadline is late (inclusive bound), and a provably
    /// late arrival is shed immediately instead of queueing. One µs of
    /// headroom and the same request is served after queueing for the full
    /// service time.
    #[test]
    fn deadline_boundary_is_inclusive() {
        let d = data();
        let run = |deadline_us| {
            let mut sup = supervisor(FaultPlan::new(0));
            sup.enable_tracing(crate::tracing::TracerConfig::default(), None);
            let mut g = Gateway::new(sup, cfg(16, deadline_us, usize::MAX, usize::MAX));
            // Request 1 arrives while request 0 holds the server.
            let mut all = g.submit(&d, 0.0, &[0, 1, 2, 3]);
            all.extend(g.submit(&d, 0.0, &[0, 1, 2, 3]));
            all.extend(g.drain(&d));
            assert_eq!(all.len(), 2);
            assert!(all[0].outcome.trained());
            let tracer = g.supervisor.tracer.as_ref().unwrap();
            let sheds = tracer
                .recorder()
                .traces()
                .iter()
                .filter(|t| t.batch_index.is_none())
                .count();
            (all[0].service_us, all.pop().unwrap(), sheds)
        };
        // The first request's service time, which the second one waits.
        let (service_us, _, _) = run(f64::INFINITY);
        let (_, second, sheds) = run(service_us);
        assert_eq!(
            second.outcome,
            BatchOutcome::Shed {
                cause: ShedCause::DeadlineExpired
            },
            "a wait of exactly the deadline must shed (inclusive bound)"
        );
        assert_eq!(
            second.done_us, 0.0,
            "predicted-late sheds resolve on arrival"
        );
        assert_eq!(sheds, 1, "the supervisor's tracer hears about the shed");

        let (_, second, sheds) = run(service_us + 1.0);
        assert!(
            second.outcome.trained(),
            "1µs under the deadline must serve"
        );
        assert_eq!((second.queued_us, sheds), (service_us, 0));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_arrivals_are_rejected() {
        let mut g = Gateway::new(supervisor(FaultPlan::new(0)), OverloadConfig::default());
        let d = data();
        g.submit(&d, 100.0, &[0, 1]);
        g.submit(&d, 50.0, &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "before any submission")]
    fn tenancy_after_submission_is_rejected() {
        let mut g = Gateway::new(supervisor(FaultPlan::new(0)), OverloadConfig::default());
        let d = data();
        g.submit(&d, 0.0, &[0, 1]);
        g.enable_tenancy(TenancyConfig {
            quotas: vec![TenantQuota::unlimited()],
            quantum: 8,
        });
    }
}
