//! Seeded synthetic graph generators.
//!
//! These stand in for the paper's OGB/GraphSAINT/SNAP datasets (DESIGN.md §2).
//! Each generator is deterministic given its seed. Three families cover the
//! Table-II workloads' structure:
//!
//! * [`rmat`] — power-law web/social graphs (products, citation2, papers,
//!   reddit2, livejournal, wiki-talk, google);
//! * [`grid2d`] — near-planar constant-degree road networks (roadnet-ca);
//! * [`bipartite`] — user–item interaction graphs (amazon, gowalla).
//!
//! Two more serve tests:
//!
//! * [`erdos_renyi`] — uniform random baseline;
//! * [`planted_partition`] — homophilous block graphs for learnability tests.

use crate::{Coo, VId};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::{Distribution, Zipf};

/// Recursive-matrix (R-MAT) generator with the canonical (a,b,c,d) =
/// (0.57, 0.19, 0.19, 0.05) partition probabilities, yielding a power-law
/// degree distribution like real web/social graphs.
pub fn rmat(num_vertices: usize, num_edges: usize, seed: u64) -> Coo {
    rmat_with(num_vertices, num_edges, 0.57, 0.19, 0.19, seed)
}

/// R-MAT with explicit quadrant probabilities (d = 1 - a - b - c).
pub fn rmat_with(num_vertices: usize, num_edges: usize, a: f64, b: f64, c: f64, seed: u64) -> Coo {
    assert!(num_vertices > 1);
    assert!(
        [a, b, c].iter().all(|p| p.is_finite() && *p >= 0.0),
        "quadrant probabilities must be finite and non-negative"
    );
    assert!(a + b + c < 1.0 + 1e-9, "quadrant probabilities exceed 1");
    let scale = (num_vertices as f64).log2().ceil() as u32;
    let thresholds = quadrant_thresholds(a, b, c);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src = Vec::with_capacity(num_edges);
    let mut dst = Vec::with_capacity(num_edges);
    while src.len() < num_edges {
        let (mut x, mut y) = (0usize, 0usize);
        for bit in (0..scale).rev() {
            let (xb, yb) = quadrant(rng.next_u64() >> 11, &thresholds);
            x |= xb << bit;
            y |= yb << bit;
        }
        if x < num_vertices && y < num_vertices && x != y {
            src.push(x as VId);
            dst.push(y as VId);
        }
    }
    Coo::new(num_vertices, src, dst).dedup()
}

/// The R-MAT quadrant bounds `a`, `a+b`, `a+b+c` as 53-bit integers.
///
/// `rng.gen::<f64>()` is `m / 2^53` for `m = next_u64() >> 11`, and
/// `t·2^53` is exact, so `m / 2^53 < t` holds exactly when
/// `m < ceil(t·2^53)`. The sums are the same f64 sums the if/else walk
/// compared against.
fn quadrant_thresholds(a: f64, b: f64, c: f64) -> [u64; 3] {
    let unit = (1u64 << 53) as f64;
    [a, a + b, a + b + c].map(|t| (t * unit).ceil() as u64)
}

/// One R-MAT level without floats or data-dependent branches: the
/// (src, dst) bits of the quadrant the 53-bit draw `m` falls in.
/// Equal to `r < a → (0,0)`, `r < a+b → (0,1)`, `r < a+b+c → (1,0)`, else
/// `(1,1)` for `r = m / 2^53` whenever the thresholds are monotone, which
/// non-negative `b` and `c` guarantee.
#[inline]
fn quadrant(m: u64, [t_a, t_ab, t_abc]: &[u64; 3]) -> (usize, usize) {
    let xb = m >= *t_ab;
    let yb = (m >= *t_a) ^ (xb & (m < *t_abc));
    (xb as usize, yb as usize)
}

/// 2-D grid with 4-neighborhood edges, modeling road networks: bounded
/// degree, enormous diameter, no hubs (roadnet-ca in Table II).
pub fn grid2d(width: usize, height: usize) -> Coo {
    let n = width * height;
    let at = |x: usize, y: usize| (y * width + x) as VId;
    let mut edges = Vec::with_capacity(4 * n);
    for y in 0..height {
        for x in 0..width {
            if x + 1 < width {
                edges.push((at(x, y), at(x + 1, y)));
                edges.push((at(x + 1, y), at(x, y)));
            }
            if y + 1 < height {
                edges.push((at(x, y), at(x, y + 1)));
                edges.push((at(x, y + 1), at(x, y)));
            }
        }
    }
    Coo::from_edges(n, &edges)
}

/// Bipartite user–item graph: `users` vertices [0, users) connect to `items`
/// vertices [users, users+items) with Zipf-distributed item popularity —
/// the recommendation workloads (amazon, gowalla) NGCF targets.
pub fn bipartite(users: usize, items: usize, num_edges: usize, seed: u64) -> Coo {
    assert!(users > 0 && items > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(items as u64, 1.1).expect("valid zipf parameters");
    let mut src = Vec::with_capacity(num_edges);
    let mut dst = Vec::with_capacity(num_edges);
    while src.len() < num_edges {
        let u = rng.gen_range(0..users as u64) as VId;
        let i = users as VId + (zipf.sample(&mut rng) as VId - 1);
        src.push(u);
        dst.push(i);
    }
    // `symmetrize` deduplicates, and a first-occurrence dedup of a prefix
    // does not change which pairs come first: dedup(dedup(E) ++ rev(dedup(E)))
    // equals dedup(E ++ rev(E)).
    Coo::new(users + items, src, dst).symmetrize()
}

/// Planted-partition (stochastic-block) graph with `num_classes` blocks laid
/// out round-robin (vertex `v` belongs to block `v % num_classes`). Each edge
/// picks a uniform destination; with probability `intra` the source is drawn
/// from the destination's own block, otherwise uniformly. High `intra` gives
/// the homophily that message-passing GNNs rely on — neighbors of a vertex
/// mostly share its label, so mean aggregation concentrates the class signal
/// instead of washing it out (unlike [`erdos_renyi`], whose neighborhoods are
/// label-uncorrelated).
pub fn planted_partition(
    num_vertices: usize,
    num_edges: usize,
    num_classes: usize,
    intra: f64,
    seed: u64,
) -> Coo {
    assert!(num_vertices > 1);
    assert!(num_classes > 0 && num_classes <= num_vertices);
    assert!((0.0..=1.0).contains(&intra));
    let mut rng = StdRng::seed_from_u64(seed);
    let stride = num_classes;
    let mut src = Vec::with_capacity(num_edges);
    let mut dst = Vec::with_capacity(num_edges);
    while src.len() < num_edges {
        let d = rng.gen_range(0..num_vertices);
        let s = if rng.gen_bool(intra) {
            // Same block as d: vertices {base, base+stride, base+2*stride, ...}.
            let base = d % stride;
            let k = rng.gen_range(0..(num_vertices - base).div_ceil(stride));
            base + k * stride
        } else {
            rng.gen_range(0..num_vertices)
        };
        if s != d {
            src.push(s as VId);
            dst.push(d as VId);
        }
    }
    Coo::new(num_vertices, src, dst).dedup()
}

/// Erdős–Rényi-style graph: `num_edges` uniform random non-loop draws,
/// deduplicated, so at most `num_edges` distinct edges (G(n, m) is the
/// limit when duplicates are rare).
pub fn erdos_renyi(num_vertices: usize, num_edges: usize, seed: u64) -> Coo {
    assert!(num_vertices > 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src = Vec::with_capacity(num_edges);
    let mut dst = Vec::with_capacity(num_edges);
    while src.len() < num_edges {
        let s = rng.gen_range(0..num_vertices as VId);
        let d = rng.gen_range(0..num_vertices as VId);
        if s != d {
            src.push(s);
            dst.push(d);
        }
    }
    Coo::new(num_vertices, src, dst).dedup()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::coo_to_csr;
    use crate::degree::DegreeStats;

    #[test]
    fn rmat_is_deterministic() {
        let a = rmat(256, 1000, 7);
        let b = rmat(256, 1000, 7);
        assert_eq!(a, b);
        assert_ne!(a, rmat(256, 1000, 8));
    }

    /// One R-MAT level as first written: an if/else chain over the
    /// cumulative f64 quadrant probabilities.
    fn quadrant_reference(r: f64, a: f64, b: f64, c: f64) -> (usize, usize) {
        if r < a {
            (0, 0)
        } else if r < a + b {
            (0, 1)
        } else if r < a + b + c {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    /// The R-MAT walk as first written, one `gen::<f64>()` per level: the
    /// definition the integer-threshold walk must reproduce bit for bit.
    fn rmat_reference(n: usize, e: usize, a: f64, b: f64, c: f64, seed: u64) -> Coo {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut src, mut dst) = (Vec::new(), Vec::new());
        while src.len() < e {
            let (mut x, mut y) = (0usize, 0usize);
            let mut half = (1usize << (n as f64).log2().ceil() as u32) / 2;
            while half > 0 {
                let (xb, yb) = quadrant_reference(rng.gen(), a, b, c);
                x += xb * half;
                y += yb * half;
                half /= 2;
            }
            if x < n && y < n && x != y {
                src.push(x as VId);
                dst.push(y as VId);
            }
        }
        Coo::new(n, src, dst).dedup()
    }

    /// Canonical, dyadic (every threshold an integer, so `<` against `<=`
    /// shows), a zero quadrant each, and d = 0.
    const QUADRANTS: [(f64, f64, f64); 6] = [
        (0.57, 0.19, 0.19),
        (0.5, 0.25, 0.125),
        (0.0, 0.5, 0.25),
        (0.6, 0.0, 0.3),
        (0.5, 0.3, 0.0),
        (0.5, 0.25, 0.25),
    ];

    #[test]
    fn quadrant_matches_the_float_chain_at_every_threshold() {
        let unit = (1u64 << 53) as f64;
        for (a, b, c) in QUADRANTS {
            let t = quadrant_thresholds(a, b, c);
            let mut probes = vec![0, 1, (1 << 53) - 2, (1 << 53) - 1];
            for &ti in &t {
                probes.extend([ti.saturating_sub(1), ti, ti + 1]);
            }
            let mut rng = StdRng::seed_from_u64(3);
            probes.extend((0..1000).map(|_| rng.next_u64() >> 11));
            for m in probes.into_iter().filter(|&m| m < 1 << 53) {
                assert_eq!(
                    quadrant(m, &t),
                    quadrant_reference(m as f64 / unit, a, b, c),
                    "m={m} a={a} b={b} c={c}"
                );
            }
        }
    }

    #[test]
    fn rmat_walk_matches_the_float_walk() {
        for (a, b, c) in QUADRANTS {
            for (n, e) in [(3, 40), (256, 2000), (1000, 6000)] {
                for seed in [1, 42] {
                    assert_eq!(
                        rmat_with(n, e, a, b, c, seed),
                        rmat_reference(n, e, a, b, c, seed),
                        "n={n} a={a} b={b} c={c} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rmat_rejects_negative_quadrants() {
        rmat_with(16, 10, 0.7, -0.1, 0.2, 1);
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat(1024, 8000, 1);
        let (csr, _) = coo_to_csr(&g);
        let s = DegreeStats::of_csr(&csr);
        // Power-law graphs have std dev well above the mean.
        assert!(s.std_dev > s.mean, "std={} mean={}", s.std_dev, s.mean);
        assert!(s.max > 10 * s.mean as usize);
    }

    #[test]
    fn grid_degrees_are_bounded() {
        let g = grid2d(10, 10);
        assert_eq!(g.num_vertices(), 100);
        let (csr, _) = coo_to_csr(&g);
        let s = DegreeStats::of_csr(&csr);
        assert_eq!(s.max, 4);
        assert!(s.mean >= 2.0 && s.mean <= 4.0);
        assert!(s.std_dev < 1.0);
    }

    #[test]
    fn bipartite_edges_cross_parts() {
        let g = bipartite(50, 20, 300, 3);
        for (s, d) in g.edges() {
            let su = (s as usize) < 50;
            let du = (d as usize) < 50;
            assert_ne!(su, du, "edge within one part: {s}->{d}");
        }
    }

    #[test]
    fn erdos_renyi_has_no_self_loops_or_dupes() {
        let g = erdos_renyi(100, 500, 5);
        assert_eq!(g.num_edges(), {
            let set: std::collections::HashSet<_> = g.edges().collect();
            set.len()
        });
        assert!(g.edges().all(|(s, d)| s != d));
    }

    #[test]
    fn planted_partition_is_homophilous_and_deterministic() {
        let g = planted_partition(400, 4000, 4, 0.9, 11);
        assert_eq!(g, planted_partition(400, 4000, 4, 0.9, 11));
        assert!(g.edges().all(|(s, d)| s != d));
        let intra = g
            .edges()
            .filter(|(s, d)| (*s as usize) % 4 == (*d as usize) % 4)
            .count();
        // With intra=0.9 and a 1/4 chance the uniform branch also lands
        // intra-class, well over 80% of edges stay within a block.
        assert!(
            intra * 10 > g.num_edges() * 8,
            "intra {} of {}",
            intra,
            g.num_edges()
        );
    }
}
