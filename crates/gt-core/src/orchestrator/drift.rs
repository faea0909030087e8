//! DKP cost-model drift monitoring.
//!
//! The cost model is fitted once, from first-epoch calibration samples
//! (§V-A). If the workload then shifts — feature widths change, the sampled
//! subgraphs grow, the device model is reconfigured — the fitted
//! coefficients quietly go stale and DKP starts placing kernels on the
//! wrong side of the argmin. This module makes that failure observable and
//! self-healing:
//!
//! * every completed placement decision (forward + backward observed) is
//!   compared against its prediction; the absolute percentage error feeds
//!   an EWMA of the residual;
//! * when the EWMA exceeds a threshold, the monitor opens a sliding
//!   collection window: the Cost-DKP nodes resume recording calibration
//!   samples, and after `window_decisions` more decisions the model is
//!   refitted. A singular refit latches [`super::CostModel`]'s static
//!   aggregation-first fallback, so a degenerate window degrades to the
//!   framework-default placement instead of trusting garbage coefficients.
//!
//! The monitor is pure bookkeeping (no telemetry handle); the trainer
//! drains its state into counters/gauges/events after each batch.

use super::cost::Placement;
use parking_lot::Mutex;

/// Tunables for the drift monitor.
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// EWMA smoothing factor for the residual (weight of the newest
    /// observation).
    pub alpha: f64,
    /// Residual EWMA above which a refit window opens.
    pub mape_threshold: f64,
    /// Decisions required (since the last refit) before drift can trigger —
    /// a handful of noisy batches should not refit a healthy model.
    pub min_decisions: u64,
    /// Decisions to collect samples over once a refit window opens.
    pub window_decisions: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            alpha: 0.2,
            // Comfortably above the ~12.5% residual Table I reports for a
            // healthy fit, comfortably below "placing blind".
            mape_threshold: 0.35,
            min_decisions: 8,
            window_decisions: 8,
        }
    }
}

/// One completed placement decision: what the model predicted for the
/// chosen order, and what it actually cost (forward + backward).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionRecord {
    /// The placement DKP chose.
    pub placement: Placement,
    /// Predicted cost of the chosen placement, µs.
    pub predicted_us: f64,
    /// Observed (modeled-latency) cost of the chosen placement, µs.
    pub observed_us: f64,
}

impl DecisionRecord {
    /// Absolute percentage error of the prediction, `|obs − pred| / obs`.
    pub fn ape(&self) -> f64 {
        if self.observed_us > 0.0 {
            (self.observed_us - self.predicted_us).abs() / self.observed_us
        } else {
            0.0
        }
    }
}

/// What the caller must do after recording a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftAction {
    /// Keep going.
    None,
    /// Drift crossed the threshold: clear the cost model's samples and
    /// start collecting fresh ones (the monitor now reports
    /// [`DriftMonitor::is_collecting`] until the window closes).
    StartedCollection,
    /// The collection window closed: refit the cost model.
    Refit,
}

#[derive(Debug, Default)]
struct State {
    ewma_ape: Option<f64>,
    decisions: u64,
    since_refit: u64,
    refits: u64,
    /// Decisions remaining in the open collection window, if any.
    collecting: Option<u64>,
    /// Records not yet drained by the trainer for event emission.
    recent: Vec<DecisionRecord>,
}

/// Sliding-window drift monitor shared by all Cost-DKP nodes of a trainer.
#[derive(Debug, Default)]
pub struct DriftMonitor {
    cfg: DriftConfig,
    state: Mutex<State>,
}

/// Cap on undrained decision records (a serving loop that never drains
/// must not grow without bound).
const RECENT_CAP: usize = 256;

impl DriftMonitor {
    /// A monitor with the given tunables.
    pub fn new(cfg: DriftConfig) -> Self {
        DriftMonitor {
            cfg,
            state: Mutex::new(State::default()),
        }
    }

    /// The monitor's tunables.
    pub fn config(&self) -> DriftConfig {
        self.cfg
    }

    /// Record a completed decision and report what to do next. The EWMA is
    /// seeded with the first observation's APE and reset by a refit (a
    /// fresh fit's residuals say nothing about the old one's).
    pub fn record(&self, rec: DecisionRecord) -> DriftAction {
        let mut s = self.state.lock();
        s.decisions += 1;
        s.since_refit += 1;
        let ape = rec.ape();
        s.ewma_ape = Some(match s.ewma_ape {
            Some(e) => self.cfg.alpha * ape + (1.0 - self.cfg.alpha) * e,
            None => ape,
        });
        if s.recent.len() < RECENT_CAP {
            s.recent.push(rec);
        }
        if let Some(remaining) = s.collecting {
            if remaining <= 1 {
                s.collecting = None;
                s.refits += 1;
                s.since_refit = 0;
                s.ewma_ape = None;
                return DriftAction::Refit;
            }
            s.collecting = Some(remaining - 1);
            return DriftAction::None;
        }
        if s.since_refit >= self.cfg.min_decisions
            && s.ewma_ape.is_some_and(|e| e > self.cfg.mape_threshold)
        {
            s.collecting = Some(self.cfg.window_decisions);
            return DriftAction::StartedCollection;
        }
        DriftAction::None
    }

    /// True while a refit collection window is open — Cost-DKP nodes record
    /// calibration samples exactly as in the first epoch.
    pub fn is_collecting(&self) -> bool {
        self.state.lock().collecting.is_some()
    }

    /// Current residual EWMA, `None` before the first post-fit decision
    /// (and right after a refit).
    pub fn ewma_ape(&self) -> Option<f64> {
        self.state.lock().ewma_ape
    }

    /// Total completed decisions observed.
    pub fn decisions(&self) -> u64 {
        self.state.lock().decisions
    }

    /// Refits triggered by drift.
    pub fn refits(&self) -> u64 {
        self.state.lock().refits
    }

    /// Take the records accumulated since the last drain (for structured
    /// event emission).
    pub fn drain_recent(&self) -> Vec<DecisionRecord> {
        std::mem::take(&mut self.state.lock().recent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DriftConfig {
        DriftConfig {
            alpha: 0.5,
            mape_threshold: 0.25,
            min_decisions: 2,
            window_decisions: 2,
        }
    }

    fn rec(predicted: f64, observed: f64) -> DecisionRecord {
        DecisionRecord {
            placement: Placement::AggregationFirst,
            predicted_us: predicted,
            observed_us: observed,
        }
    }

    #[test]
    fn ewma_matches_hand_computed_values() {
        let m = DriftMonitor::new(cfg());

        // Perfect prediction: ape 0, ewma seeds at 0, nothing triggers.
        assert_eq!(m.record(rec(100.0, 100.0)), DriftAction::None);
        assert_eq!(m.ewma_ape(), Some(0.0));

        // Observed 250 vs predicted 100: ape = 150/250 = 0.6,
        // ewma = 0.5·0.6 + 0.5·0 = 0.3 > 0.25 with min_decisions met, so a
        // collection window opens.
        assert_eq!(m.record(rec(100.0, 250.0)), DriftAction::StartedCollection);
        let e = m.ewma_ape().unwrap();
        assert!((e - 0.3).abs() < 1e-12, "ewma {e}");
        assert!(m.is_collecting());

        // Window of 2: one more decision keeps collecting, the next refits.
        assert_eq!(m.record(rec(100.0, 250.0)), DriftAction::None);
        assert!(m.is_collecting());
        assert_eq!(m.record(rec(100.0, 250.0)), DriftAction::Refit);
        assert!(!m.is_collecting());
        assert_eq!(m.refits(), 1);
        // Refit resets the EWMA: the old residuals are about the old fit.
        assert_eq!(m.ewma_ape(), None);
        assert_eq!(m.decisions(), 4);
    }

    #[test]
    fn healthy_residuals_never_trigger() {
        let m = DriftMonitor::new(cfg());
        for _ in 0..50 {
            // 10% error, under the 25% threshold.
            assert_eq!(m.record(rec(100.0, 110.0)), DriftAction::None);
        }
        assert!(!m.is_collecting());
        assert_eq!(m.refits(), 0);
        let e = m.ewma_ape().unwrap();
        assert!((e - 10.0 / 110.0).abs() < 1e-9, "ewma {e}");
    }

    #[test]
    fn min_decisions_gates_the_trigger() {
        let m = DriftMonitor::new(DriftConfig {
            min_decisions: 5,
            ..cfg()
        });
        for i in 0..4 {
            assert_eq!(
                m.record(rec(100.0, 1000.0)),
                DriftAction::None,
                "decision {i} triggered early"
            );
        }
        assert_eq!(m.record(rec(100.0, 1000.0)), DriftAction::StartedCollection);
    }

    #[test]
    fn refit_resets_the_min_decision_gate() {
        let m = DriftMonitor::new(cfg());
        let bad = rec(100.0, 1000.0);
        assert_eq!(m.record(bad), DriftAction::None);
        assert_eq!(m.record(bad), DriftAction::StartedCollection);
        assert_eq!(m.record(bad), DriftAction::None);
        assert_eq!(m.record(bad), DriftAction::Refit);
        // Immediately after the refit the gate is closed again.
        assert_eq!(m.record(bad), DriftAction::None);
        assert_eq!(m.record(bad), DriftAction::StartedCollection);
    }

    #[test]
    fn zero_observed_cost_is_not_an_error() {
        let r = rec(100.0, 0.0);
        assert_eq!(r.ape(), 0.0);
    }

    #[test]
    fn drain_recent_takes_and_caps() {
        let m = DriftMonitor::new(cfg());
        let good = rec(100.0, 101.0);
        for _ in 0..300 {
            m.record(good);
        }
        let drained = m.drain_recent();
        assert_eq!(drained.len(), RECENT_CAP);
        assert!(m.drain_recent().is_empty());
        m.record(good);
        assert_eq!(m.drain_recent().len(), 1);
    }
}
