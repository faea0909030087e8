//! Integration tests on dataset recipes: structural-family fidelity.

use gt_core::data::GraphData;
use gt_datasets::{by_name, light, registry, Family, Scale};
use gt_graph::DegreeStats;
use gt_telemetry::fnv1a;

#[test]
fn families_match_structure() {
    // Power-law workloads are skewed; the grid workload is not.
    let products = by_name("products").unwrap().build(Scale::Test, 1);
    let s = DegreeStats::of_csr_nonisolated(&products.graph);
    assert!(s.std_dev > s.mean * 0.8, "products not skewed: {s:?}");

    let road = by_name("roadnet-ca").unwrap().build(Scale::Test, 1);
    let r = DegreeStats::of_csr_nonisolated(&road.graph);
    assert!(r.std_dev < 1.0, "roadnet too skewed: {r:?}");
    assert!(r.max <= 4);
}

#[test]
fn bipartite_recipes_partition_vertices() {
    for name in ["amazon", "gowalla"] {
        let spec = by_name(name).unwrap();
        assert_eq!(spec.family, Family::Bipartite);
        let data = spec.build(Scale::Test, 2);
        // Bipartite generators never produce user–user or item–item edges;
        // symmetrization keeps that property.
        let half_guess = data.num_vertices() / 2;
        let mut crossings = 0usize;
        let mut total = 0usize;
        for d in 0..data.num_vertices() as u32 {
            for &s in data.graph.srcs(d) {
                total += 1;
                if ((s as usize) < half_guess) != ((d as usize) < half_guess) {
                    crossings += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            crossings as f64 / total as f64 > 0.9,
            "{name}: only {crossings}/{total} edges cross the partition"
        );
    }
}

#[test]
fn scales_are_monotone() {
    let spec = by_name("reddit2").unwrap();
    let t = spec.build(Scale::Test, 3);
    let s = spec.build(Scale::Small, 3);
    assert!(s.num_vertices() > t.num_vertices());
    assert!(s.graph.num_edges() > t.graph.num_edges());
}

#[test]
fn light_heavy_split_is_stable() {
    let light_names: Vec<&str> = light().iter().map(|d| d.name).collect();
    assert_eq!(
        light_names,
        vec!["products", "citation2", "papers", "amazon", "reddit2"]
    );
    assert!(registry().iter().all(|d| d.out_dim >= 2));
}

#[test]
fn seeds_change_the_graph_but_not_the_shape() {
    let spec = by_name("citation2").unwrap();
    let a = spec.build(Scale::Test, 1);
    let b = spec.build(Scale::Test, 2);
    assert_eq!(a.num_vertices(), b.num_vertices());
    assert_eq!(a.feature_dim(), b.feature_dim());
    assert_ne!(
        a.graph.srcs(0).to_vec(),
        b.graph.srcs(0).to_vec(),
        "different seeds should change adjacency (this can flake only if \
         vertex 0 is isolated in both — regenerate with another probe)"
    );
}

/// FNV-1a over a built dataset: the CSR's `indptr` and `srcs` and the
/// feature bits as little-endian u32s, then the labels as little-endian u64s.
fn digest(data: &GraphData) -> u64 {
    let words = data
        .graph
        .indptr
        .iter()
        .chain(&data.graph.srcs)
        .copied()
        .chain(data.features.data().iter().map(|x| x.to_bits()));
    let labels = data.labels.iter().map(|&l| l as u64);
    fnv1a(
        words
            .flat_map(u32::to_le_bytes)
            .chain(labels.flat_map(u64::to_le_bytes)),
    )
}

/// Pins every recipe's graph, features and labels bit for bit, so a faster
/// generator, dedup or feature fill cannot move a dataset unnoticed.
/// Re-record only when an issue says the generator stream may move.
#[test]
fn dataset_builds_are_pinned() {
    // Recorded at the parent of the integer-threshold R-MAT walk and the
    // counting-sort `Coo::dedup`, which moved none of these bits.
    let expected: [(&str, u64); 10] = [
        ("products", 0x745e_d6b9_efe0_15af),
        ("citation2", 0x3173_6325_2d22_3ea2),
        ("papers", 0x68ae_fbec_cd62_2c01),
        ("amazon", 0xabd3_6b42_871b_36cd),
        ("reddit2", 0x5075_f9c9_bc3a_db24),
        ("gowalla", 0xb3ca_afc0_d491_2bf1),
        ("google", 0x3f59_1d57_0880_3dff),
        ("roadnet-ca", 0x10fd_2691_3d4b_8477),
        ("wiki-talk", 0x988d_7fb2_a321_46f9),
        ("livejournal", 0x6a4b_a112_e9e3_b252),
    ];
    let got: Vec<(&str, u64)> = registry()
        .iter()
        .map(|spec| (spec.name, digest(&spec.build(Scale::Test, 1))))
        .collect();
    assert_eq!(got, expected);
}

/// products at ÷200: 10k vertices on a 2^14-wide R-MAT (not a power of
/// two) and ≈ 160k duplicate draws (of 620k) for the dedup to drop.
#[test]
fn products_at_custom_scale_is_pinned() {
    let data = by_name("products").unwrap().build(Scale::Custom(200), 1);
    // Recorded with the Scale::Test pins above.
    assert_eq!(data.num_vertices(), 10_000);
    assert_eq!(digest(&data), 0xc236_bd80_7eb7_e090);
}
