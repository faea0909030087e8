//! Pins the absolute sampled-id stream. `parallel_identity.rs` compares
//! pool widths to each other; this compares all of them to a constant, so a
//! change that moves new-VID allocation order, sampled edges or the hash
//! counters the scheduler prices fails here even if it moves every width
//! the same way. Re-record only when an issue says the stream may move.

use gt_graph::convert::coo_to_csr;
use gt_graph::generators::erdos_renyi;
use gt_graph::VId;
use gt_par::ThreadPool;
use gt_sample::{try_sample_batch_with_pool, Priority, SamplerConfig};
use gt_telemetry::fnv1a;

/// FNV-1a over `new_to_orig`, every hop's `(src_orig, dst_orig)`,
/// `boundaries`, `SampleStats` and `vidmap.stats()`, as little-endian u64s.
fn digest(priority: Priority, width: usize) -> u64 {
    let graph = coo_to_csr(&erdos_renyi(3000, 40_000, 23)).0;
    // 300 seeds over 250 vertices: the last 50 repeat earlier ones.
    let batch: Vec<VId> = (0..300u32).map(|i| (i * 37) % 250).collect();
    let cfg = SamplerConfig {
        fanout: 6,
        layers: 3,
        seed: 0x5eed,
        priority,
    };
    let out = try_sample_batch_with_pool(&graph, &batch, &cfg, &ThreadPool::new(width)).unwrap();
    let vstats = out.vidmap.stats();
    let mut words: Vec<u64> = out.new_to_orig().iter().map(|&v| v as u64).collect();
    for hop in &out.hops {
        words.extend(hop.src_orig.iter().map(|&v| v as u64));
        words.extend(hop.dst_orig.iter().map(|&v| v as u64));
    }
    words.extend(out.boundaries.iter().map(|&b| b as u64));
    words.extend([
        out.stats.edges_visited,
        out.stats.draws,
        vstats.inserts,
        vstats.hits,
    ]);
    fnv1a(words.iter().flat_map(|w| w.to_le_bytes()))
}

#[test]
fn sampled_id_stream_is_pinned() {
    // Recorded at the parent of the single-writer `VidMap` rewrite (16
    // mutex shards, atomics), with this file's digest and a local FNV-1a.
    let expected = [
        (Priority::UniqueRandom, 0x230f_4fbd_2225_33be_u64),
        (Priority::DegreeWeighted, 0x2089_0ab3_4a9c_9c92),
    ];
    for (priority, want) in expected {
        for width in [1, 2, 4] {
            let got = digest(priority, width);
            assert_eq!(got, want, "{priority:?} at width {width}: {got:#018x}");
        }
    }
}
