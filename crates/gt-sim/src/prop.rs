//! A seeded, zero-dependency property-test runner.
//!
//! [`check`] runs a property over generated cases; every case is a pure
//! function of one `u64` seed, so a failure names the seed and
//! [`replay`] re-runs exactly that case. There is no shrinker: sizes ramp
//! up from tiny over the first half of the cases, so the first failing
//! case is usually already small.
//!
//! [`Gen`] is also the seeded stream behind [`crate::chaos::sample_plan`].

use gt_telemetry::{fnv1a, splitmix64};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cases per property unless a suite has a reason to differ.
pub const CASES: u64 = 256;

/// Deterministic value source for one case.
pub struct Gen {
    state: u64,
    /// Share of each [`Gen::vec`] length span in use, in 256ths (1..=256).
    size: u64,
}

impl Gen {
    /// The stream for `seed`. The seed's low byte is the case size.
    pub fn new(seed: u64) -> Gen {
        Gen {
            state: splitmix64(seed),
            size: (seed & 0xFF) + 1,
        }
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    /// Uniform in `[0, n)`; 0 when `n` is 0.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `r`, which must not be empty.
    pub fn range(&mut self, r: Range<usize>) -> usize {
        assert!(r.start < r.end, "empty range");
        r.start + self.below((r.end - r.start) as u64) as usize
    }

    /// Uniform in `r` (53 bits of the draw).
    pub fn f64_in(&mut self, r: Range<f64>) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        r.start + unit * (r.end - r.start)
    }

    /// A vector whose length is drawn from the low end of `len`, as far up
    /// as the case size reaches, and whose items come from `item`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let span = ((len.end - len.start) as u64 * self.size).div_ceil(256);
        let n = len.start + self.below(span) as usize;
        (0..n).map(|_| item(self)).collect()
    }

    /// One element of `xs`, which must not be empty.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.range(0..xs.len())]
    }
}

/// Run `property` on `cases` generated cases; the sequence is a pure
/// function of `(name, cases)`. A panic inside the property is re-raised
/// with the case seed appended.
pub fn check(name: &str, cases: u64, property: impl Fn(&mut Gen)) {
    // FNV-1a of the name keys the suite; splitmix64 decorrelates cases.
    let key = fnv1a(name.bytes());
    for case in 0..cases {
        // Full size from the halfway case on.
        let size = ((case + 1) * 512 / cases).clamp(1, 256) - 1;
        let seed = (splitmix64(key ^ case) & !0xFF) | size;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| replay(seed, &property))) {
            let why = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            panic!(
                "property `{name}` failed on case {case} of {cases}: {why}\n\
                 re-run this case with gt_sim::prop::replay({seed:#018x}, ..)"
            );
        }
    }
}

/// Run `f` on exactly the case [`check`] reported as `seed`.
pub fn replay<T>(seed: u64, f: impl FnOnce(&mut Gen) -> T) -> T {
    f(&mut Gen::new(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn case(g: &mut Gen) -> (Vec<usize>, f64, u64) {
        (
            g.vec(0..40, |g| g.range(3..9)),
            g.f64_in(-1.0..1.0),
            *g.pick(&[7, 11]),
        )
    }

    #[test]
    fn false_property_reports_a_seed_that_replays_the_case() {
        let seen = RefCell::new(Vec::new());
        let failure = catch_unwind(AssertUnwindSafe(|| {
            check("deliberately-false", 64, |g| {
                let c = case(g);
                seen.borrow_mut().push(c.clone());
                assert!(c.0.len() < 5, "too long: {}", c.0.len());
            })
        }))
        .expect_err("the property is false");
        let msg = failure.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("deliberately-false") && msg.contains("too long: "));
        let hex = msg.split("replay(0x").nth(1).expect("seed in message");
        let seed = u64::from_str_radix(&hex[..16], 16).expect("hex seed");
        assert_eq!(Some(&replay(seed, case)), seen.borrow().last());
    }

    #[test]
    fn same_name_and_cases_generate_the_same_sequence() {
        let run = |name: &str| {
            let seen = RefCell::new(Vec::new());
            check(name, 32, |g| seen.borrow_mut().push(case(g)));
            seen.into_inner()
        };
        let first = run("a");
        assert_eq!(first, run("a"));
        assert_ne!(first, run("b"));
        // The size ramp: early cases are small, late ones use the full span.
        assert!(first[0].0.len() <= 3);
        assert!(first.iter().any(|c| c.0.len() > 20));
        assert!(first
            .iter()
            .all(|c| c.0.iter().all(|x| (3..9).contains(x)) && (-1.0..1.0).contains(&c.1)));
    }
}
