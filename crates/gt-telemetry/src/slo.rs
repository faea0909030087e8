//! Deterministic SLO engine: declarative latency/availability objectives
//! evaluated in DES virtual time with multi-window burn-rate alerting.
//!
//! An [`SloSpec`] declares what "good" means (a latency threshold, and
//! shed/failed requests are always bad) and how much badness the error
//! budget tolerates (`objective`, e.g. 0.9 = 10% budget). The engine
//! classifies every completion, maintains sliding windows over *virtual*
//! microseconds — the same DES timeline that prices batches — and fires a
//! breach when both a long and a short window burn the budget faster than
//! `factor`× (the classic multi-window rule: the long window proves the
//! problem is real, the short window proves it is still happening).
//!
//! Because the clock is virtual and the inputs are modeled, the entire
//! alert stream is a pure function of the workload and fault plan:
//! bit-identical across machines, runs, and `GT_THREADS` widths. That is
//! what makes SLO breaches assertable in CI rather than observable in
//! production only.

use std::collections::VecDeque;

use crate::json::{obj, Json, ToJson};
use crate::Telemetry;

/// One multi-window burn-rate alerting rule.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnRule {
    /// Stable label (`page`, `ticket`, ...) used in events and metrics.
    pub label: &'static str,
    /// Long window length, virtual µs.
    pub long_us: f64,
    /// Short window length, virtual µs.
    pub short_us: f64,
    /// Burn-rate factor both windows must exceed to fire.
    pub factor: f64,
}

/// A declarative service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Objective name (shown in events, `/healthz`, and dumps).
    pub name: &'static str,
    /// A completion slower than this is bad, virtual µs.
    pub latency_threshold_us: f64,
    /// Fraction of requests that must be good (0.9 = 10% error budget).
    pub objective: f64,
    /// The alerting rules, evaluated per completion.
    pub rules: Vec<BurnRule>,
}

impl SloSpec {
    /// A serving-latency SLO: `objective` of requests must complete (not
    /// shed, not quarantined) within `threshold_us`, with a paging rule
    /// (short windows, high factor) and a ticketing rule (long windows,
    /// low factor).
    pub fn latency(threshold_us: f64, objective: f64) -> SloSpec {
        assert!(
            (0.0..1.0).contains(&objective),
            "objective must be in [0, 1)"
        );
        SloSpec {
            name: "serve-latency",
            latency_threshold_us: threshold_us,
            objective,
            rules: vec![
                BurnRule {
                    label: "page",
                    long_us: 400_000.0,
                    short_us: 50_000.0,
                    factor: 2.0,
                },
                BurnRule {
                    label: "ticket",
                    long_us: 2_000_000.0,
                    short_us: 250_000.0,
                    factor: 1.0,
                },
            ],
        }
    }
}

/// One rule transition: a breach firing or clearing at a virtual instant.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlert {
    /// The rule that transitioned.
    pub rule: &'static str,
    /// True when the breach fired, false when it cleared.
    pub firing: bool,
    /// Virtual timestamp of the transition.
    pub at_us: f64,
    /// Burn rate over the rule's long window at the transition.
    pub burn_long: f64,
    /// Burn rate over the rule's short window at the transition.
    pub burn_short: f64,
}

impl ToJson for SloAlert {
    fn to_json(&self) -> Json {
        obj([
            ("rule", self.rule.into()),
            ("firing", Json::Bool(self.firing)),
            ("at_us", self.at_us.into()),
            ("burn_long", self.burn_long.into()),
            ("burn_short", self.burn_short.into()),
        ])
    }
}

/// The engine: feed it every completion via [`SloEngine::record`]; it
/// returns the rule transitions that completion caused and keeps
/// `gt_slo_*` metrics current on the telemetry handle it was built with.
#[derive(Debug)]
pub struct SloEngine {
    spec: SloSpec,
    telemetry: Telemetry,
    /// `(done_us, good)` per completion, oldest first; trimmed to the
    /// longest window on every record.
    window: VecDeque<(f64, bool)>,
    /// Per-rule firing state, parallel to `spec.rules`.
    firing: Vec<bool>,
}

impl SloEngine {
    /// An engine over `spec`, exporting metrics through `telemetry`.
    pub fn new(spec: SloSpec, telemetry: Telemetry) -> SloEngine {
        let firing = vec![false; spec.rules.len()];
        telemetry
            .gauge("gt_slo_ok", "1 while no SLO rule is firing, else 0")
            .set(1.0);
        SloEngine {
            spec,
            telemetry,
            window: VecDeque::new(),
            firing,
        }
    }

    /// The spec the engine evaluates.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// True while any rule is firing.
    pub fn breached(&self) -> bool {
        self.firing.iter().any(|&f| f)
    }

    /// Stable state label for `/healthz` and dumps: `ok`, or
    /// `breach:<rule>` naming the most urgent firing rule.
    pub fn state(&self) -> String {
        match self
            .firing
            .iter()
            .position(|&f| f)
            .map(|i| self.spec.rules[i].label)
        {
            Some(rule) => format!("breach:{rule}"),
            None => "ok".to_string(),
        }
    }

    /// Classify one completion at virtual time `done_us` and evaluate
    /// every rule. `ok` is whether the request resolved usefully (trained;
    /// shed and quarantined requests pass `false`). Timestamps must be
    /// monotone — the virtual clock never runs backwards.
    pub fn record(&mut self, done_us: f64, latency_us: f64, ok: bool) -> Vec<SloAlert> {
        if let Some(&(last, _)) = self.window.back() {
            assert!(
                done_us >= last,
                "SLO clock must be monotone: {done_us} < {last}"
            );
        }
        let good = ok && latency_us <= self.spec.latency_threshold_us;
        self.window.push_back((done_us, good));
        let longest = self
            .spec
            .rules
            .iter()
            .map(|r| r.long_us)
            .fold(0.0, f64::max);
        while let Some(&(t, _)) = self.window.front() {
            if done_us - t > longest {
                self.window.pop_front();
            } else {
                break;
            }
        }

        self.telemetry
            .counter("gt_slo_requests_total", "Completions classified by the SLO")
            .inc();
        if !good {
            self.telemetry
                .counter("gt_slo_bad_total", "Completions outside the SLO")
                .inc();
        }

        let budget = 1.0 - self.spec.objective;
        let mut alerts = Vec::new();
        for i in 0..self.spec.rules.len() {
            let rule = self.spec.rules[i].clone();
            let burn_long = self.burn(done_us, rule.long_us, budget);
            let burn_short = self.burn(done_us, rule.short_us, budget);
            let firing = burn_long >= rule.factor && burn_short >= rule.factor;
            if firing != self.firing[i] {
                self.firing[i] = firing;
                if firing {
                    self.telemetry
                        .counter("gt_slo_breaches_total", "SLO burn-rate breach transitions")
                        .inc();
                }
                self.telemetry.event(
                    "slo",
                    if firing { "slo_breach" } else { "slo_clear" },
                    &[
                        ("slo", &self.spec.name),
                        ("rule", &rule.label),
                        ("at_us", &format!("{at:.0}", at = done_us)),
                        ("burn_long", &format!("{burn_long:.3}")),
                        ("burn_short", &format!("{burn_short:.3}")),
                    ],
                );
                alerts.push(SloAlert {
                    rule: rule.label,
                    firing,
                    at_us: done_us,
                    burn_long,
                    burn_short,
                });
            }
        }
        self.telemetry
            .gauge("gt_slo_ok", "1 while no SLO rule is firing, else 0")
            .set(if self.breached() { 0.0 } else { 1.0 });
        alerts
    }

    /// Burn rate over `[now - window_us, now]`: bad fraction divided by the
    /// error budget. 0 when the window holds no completions.
    fn burn(&self, now_us: f64, window_us: f64, budget: f64) -> f64 {
        let mut total = 0u64;
        let mut bad = 0u64;
        for &(t, good) in self.window.iter().rev() {
            if now_us - t > window_us {
                break;
            }
            total += 1;
            if !good {
                bad += 1;
            }
        }
        if total == 0 {
            return 0.0;
        }
        let frac = bad as f64 / total as f64;
        if budget <= 0.0 {
            if frac > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            frac / budget
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(objective: f64) -> SloEngine {
        SloEngine::new(
            SloSpec {
                name: "test",
                latency_threshold_us: 1000.0,
                objective,
                rules: vec![BurnRule {
                    label: "page",
                    long_us: 10_000.0,
                    short_us: 2_000.0,
                    factor: 2.0,
                }],
            },
            Telemetry::recording(),
        )
    }

    #[test]
    fn all_good_never_breaches() {
        let mut e = engine(0.9);
        for i in 0..100 {
            let alerts = e.record(i as f64 * 100.0, 500.0, true);
            assert!(alerts.is_empty());
        }
        assert!(!e.breached());
        assert_eq!(e.state(), "ok");
    }

    #[test]
    fn sustained_badness_fires_then_clears() {
        let mut e = engine(0.9);
        let mut t = 0.0;
        // Healthy baseline.
        for _ in 0..50 {
            t += 100.0;
            e.record(t, 500.0, true);
        }
        // Sustained latency violations: burn = 1.0/0.1 = 10 ≥ 2 in both
        // windows once the bad run dominates them.
        let mut fired = false;
        for _ in 0..200 {
            t += 100.0;
            for a in e.record(t, 5000.0, true) {
                if a.firing {
                    fired = true;
                    assert!(a.burn_long >= 2.0 && a.burn_short >= 2.0);
                }
            }
        }
        assert!(fired, "sustained violations must breach");
        assert!(e.breached());
        assert_eq!(e.state(), "breach:page");
        // Recovery: good completions push the windows back under factor.
        let mut cleared = false;
        for _ in 0..400 {
            t += 100.0;
            for a in e.record(t, 500.0, true) {
                if !a.firing {
                    cleared = true;
                }
            }
        }
        assert!(cleared, "recovery must clear the breach");
        assert!(!e.breached());
        assert_eq!(e.state(), "ok");
    }

    #[test]
    fn shed_requests_are_bad_regardless_of_latency() {
        let mut e = engine(0.5);
        let mut transitions = Vec::new();
        for i in 0..100 {
            transitions.extend(e.record(i as f64 * 50.0, 0.0, false));
        }
        assert!(e.breached());
        assert!(transitions.iter().any(|a| a.firing));
        let snap = e.telemetry.snapshot();
        assert_eq!(snap.counter("gt_slo_requests_total"), 100);
        assert_eq!(snap.counter("gt_slo_bad_total"), 100);
        assert_eq!(snap.gauge("gt_slo_ok"), Some(0.0));
        assert!(snap.counter("gt_slo_breaches_total") >= 1);
    }

    /// The alert stream is a pure function of the completion stream.
    #[test]
    fn alert_stream_is_deterministic() {
        let run = || {
            let mut e = engine(0.9);
            let mut alerts = Vec::new();
            for i in 0..300u64 {
                let bad = (100..200).contains(&i);
                let latency = if bad { 9000.0 } else { 400.0 };
                alerts.extend(e.record(i as f64 * 73.0, latency, true));
            }
            alerts
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_clock_rejected() {
        let mut e = engine(0.9);
        e.record(100.0, 10.0, true);
        e.record(50.0, 10.0, true);
    }

    #[test]
    fn zero_budget_objective_is_rejected() {
        // objective must be < 1; 1.0 would make the budget zero.
        let r = std::panic::catch_unwind(|| SloSpec::latency(1000.0, 1.0));
        assert!(r.is_err());
    }
}
