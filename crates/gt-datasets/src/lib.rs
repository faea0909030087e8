//! The ten Table-II workloads as synthetic recipes (DESIGN.md §2).
//!
//! The paper evaluates on OGB, GraphSAINT, and SNAP graphs. Those downloads
//! are not available here, so each workload is regenerated by a seeded
//! generator whose family matches the real graph's structure (power-law
//! web/social → R-MAT, user–item recommendation → bipartite Zipf, road
//! network → 2-D grid), with the paper's exact feature and output
//! dimensions. Vertex/edge counts scale with [`Scale`] so tests stay fast
//! while benches run at meaningful sizes.

use gt_core::data::{self, GraphData};
use gt_graph::generators;

pub mod workload;

/// Structural family of a workload's generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Power-law web/social/citation graph (R-MAT).
    Rmat,
    /// User–item bipartite interaction graph (Zipf popularity).
    Bipartite,
    /// Near-planar bounded-degree road network (2-D grid).
    Grid,
}

/// Size divisor applied to the paper's vertex/edge counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ÷2000 — unit-test sized (hundreds of vertices).
    Test,
    /// ÷200 — seconds per experiment; the bench default.
    Small,
    /// ÷20 — minutes per experiment.
    Medium,
    /// Custom divisor.
    Custom(usize),
}

impl Scale {
    /// The divisor this scale applies.
    pub fn divisor(self) -> usize {
        match self {
            Scale::Test => 2000,
            Scale::Small => 200,
            Scale::Medium => 20,
            Scale::Custom(d) => d.max(1),
        }
    }
}

/// One Table-II workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Dataset name as printed in Table II.
    pub name: &'static str,
    /// Generator family standing in for the real graph.
    pub family: Family,
    /// Full-graph vertices (paper's Table II).
    pub vertices: usize,
    /// Full-graph edges (paper's Table II).
    pub edges: usize,
    /// Input feature dimension (exact, drives light/heavy classification).
    pub feature_dim: usize,
    /// Task output dimension (Table II "out dim").
    pub out_dim: usize,
}

impl DatasetSpec {
    /// Heavy-feature workload? (§VI: feature dimension ≥ 4K.)
    pub fn heavy(&self) -> bool {
        self.feature_dim >= 4000
    }

    /// Scaled (vertices, edges) for generation.
    pub fn scaled(&self, scale: Scale) -> (usize, usize) {
        let d = scale.divisor();
        ((self.vertices / d).max(64), (self.edges / d).max(256))
    }

    /// Generate the workload at `scale`. Deterministic in `seed`, and the
    /// same bytes at any `GT_THREADS`: the R-MAT walk and the feature fill
    /// run on the global pool (`gt_core::data`).
    pub fn build(&self, scale: Scale, seed: u64) -> GraphData {
        let (v, e) = self.scaled(scale);
        let coo = match self.family {
            Family::Rmat => data::rmat(v, e, seed),
            Family::Bipartite => {
                let users = v / 2;
                generators::bipartite(users.max(8), (v - users).max(8), e, seed)
            }
            Family::Grid => {
                let side = (v as f64).sqrt().ceil() as usize;
                generators::grid2d(side.max(2), side.max(2))
            }
        };
        let n = coo.num_vertices();
        let (graph, _) = gt_graph::convert::coo_to_csr(&coo);
        let features = data::random_features(n, self.feature_dim, seed ^ 0xDA7A);
        let labels = (0..n).map(|x| x % self.out_dim).collect();
        GraphData::new(graph, features, labels, self.out_dim)
    }
}

/// The ten workloads of Table II, light features first.
pub fn registry() -> Vec<DatasetSpec> {
    use Family::*;
    vec![
        DatasetSpec {
            name: "products",
            family: Rmat,
            vertices: 2_000_000,
            edges: 124_000_000,
            feature_dim: 100,
            out_dim: 47,
        },
        DatasetSpec {
            name: "citation2",
            family: Rmat,
            vertices: 3_000_000,
            edges: 61_000_000,
            feature_dim: 128,
            out_dim: 2,
        },
        DatasetSpec {
            name: "papers",
            family: Rmat,
            vertices: 111_000_000,
            edges: 2_000_000_000,
            feature_dim: 128,
            out_dim: 172,
        },
        DatasetSpec {
            name: "amazon",
            family: Bipartite,
            vertices: 2_000_000,
            edges: 264_000_000,
            feature_dim: 200,
            out_dim: 2,
        },
        DatasetSpec {
            name: "reddit2",
            family: Rmat,
            vertices: 233_000,
            edges: 23_000_000,
            feature_dim: 602,
            out_dim: 41,
        },
        DatasetSpec {
            name: "gowalla",
            family: Bipartite,
            vertices: 197_000,
            edges: 2_000_000,
            feature_dim: 4353,
            out_dim: 2,
        },
        DatasetSpec {
            name: "google",
            family: Rmat,
            vertices: 916_000,
            edges: 5_000_000,
            feature_dim: 4353,
            out_dim: 2,
        },
        DatasetSpec {
            name: "roadnet-ca",
            family: Grid,
            vertices: 2_000_000,
            edges: 6_000_000,
            feature_dim: 4353,
            out_dim: 2,
        },
        DatasetSpec {
            name: "wiki-talk",
            family: Rmat,
            vertices: 2_000_000,
            edges: 5_000_000,
            feature_dim: 4353,
            out_dim: 2,
        },
        DatasetSpec {
            name: "livejournal",
            family: Rmat,
            vertices: 5_000_000,
            edges: 96_000_000,
            feature_dim: 4353,
            out_dim: 2,
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<DatasetSpec> {
    registry().into_iter().find(|d| d.name == name)
}

/// The light-feature subset (feature dim < 4K), in Table II order.
pub fn light() -> Vec<DatasetSpec> {
    registry().into_iter().filter(|d| !d.heavy()).collect()
}

/// The heavy-feature subset (feature dim ≥ 4K).
pub fn heavy() -> Vec<DatasetSpec> {
    registry().into_iter().filter(|d| d.heavy()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_paper_partition() {
        assert_eq!(registry().len(), 10);
        assert_eq!(light().len(), 5);
        assert_eq!(heavy().len(), 5);
        assert!(heavy().iter().all(|d| d.feature_dim == 4353));
    }

    #[test]
    fn lookup_by_name() {
        let p = by_name("products").unwrap();
        assert_eq!(p.feature_dim, 100);
        assert_eq!(p.out_dim, 47);
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn build_is_deterministic_and_shaped() {
        let spec = by_name("reddit2").unwrap();
        let a = spec.build(Scale::Test, 1);
        let b = spec.build(Scale::Test, 1);
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.feature_dim(), 602);
        assert_eq!(a.num_classes, 41);
        assert_eq!(a.features.row(5), b.features.row(5));
    }

    #[test]
    fn scaling_shrinks_proportionally() {
        let spec = by_name("citation2").unwrap();
        let (vt, _) = spec.scaled(Scale::Test);
        let (vs, _) = spec.scaled(Scale::Small);
        assert!(vs > vt);
        assert_eq!(vs, 3_000_000 / 200);
    }

    #[test]
    fn every_dataset_builds_at_test_scale() {
        for spec in registry() {
            let d = spec.build(Scale::Test, 7);
            assert!(d.num_vertices() >= 64, "{}", spec.name);
            assert!(d.graph.num_edges() > 0, "{}", spec.name);
            assert_eq!(d.feature_dim(), spec.feature_dim, "{}", spec.name);
        }
    }

    #[test]
    fn roadnet_is_grid_bounded_degree() {
        let d = by_name("roadnet-ca").unwrap().build(Scale::Test, 3);
        let stats = gt_graph::DegreeStats::of_csr(&d.graph);
        assert!(stats.max <= 4);
    }
}
