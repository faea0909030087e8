//! A multiplicative hasher for vertex-id keys.
//!
//! The hash table is on preprocessing's critical path — S's H phase probes
//! it once per sampled edge endpoint — and std's default SipHash
//! costs more than the table probe it feeds. Vertex ids are small integers
//! with no adversarial source, so a Fibonacci multiply plus an xor-shift
//! (the same mixer the sampler's per-node RNG streams use) is collision-
//! adequate and several times cheaper. Hash-map *iteration order* is never
//! observed anywhere in the pipeline, so swapping hashers cannot affect
//! results — new-VID allocation order comes from the insertion log, not
//! from bucket order.

use std::hash::{BuildHasher, Hasher};

/// `BuildHasher` for [`IdHasher`]; stateless, so every map built from it
/// hashes identically across processes and runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct BuildIdHasher;

impl BuildHasher for BuildIdHasher {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher(0)
    }
}

/// Multiplicative mixer over the written words.
#[derive(Debug)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        let mut z = self.0 ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^= z >> 29;
        z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 32;
        self.0 = z;
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `HashMap` keyed by vertex ids.
pub type IdHashMap<K, V> = std::collections::HashMap<K, V, BuildIdHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: IdHashMap<u32, u32> = IdHashMap::default();
        for v in 0..10_000u32 {
            m.insert(v, v * 2);
            // Keys that differ only in their high bits, too.
            assert_eq!(m.insert(v << 16 | 0xFFFF, v), None);
        }
        for v in 0..10_000u32 {
            assert_eq!(m.get(&v), Some(&(v * 2)));
            assert_eq!(m.get(&(v << 16 | 0xFFFF)), Some(&v));
        }
        assert_eq!(m.get(&10_001), None);
    }

    #[test]
    fn low_bits_are_well_mixed() {
        // Hash-map buckets come from the low bits; sequential keys must not
        // collapse onto a few residues.
        let b = BuildIdHasher;
        let mut buckets = [0u32; 64];
        for v in 0..6_400u32 {
            let mut h = b.build_hasher();
            h.write_u32(v);
            buckets[(h.finish() & 63) as usize] += 1;
        }
        let (min, max) = buckets
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        assert!(min > 50 && max < 150, "skewed buckets: min={min} max={max}");
    }
}
