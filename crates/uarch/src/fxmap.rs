//! A fixed multiply-rotate hasher for the simulator's integer-keyed tables.
//!
//! Page-table translations, memory reads, line fills, predictor lookups and
//! FPU context switches all probe a hash map keyed by a small integer or an
//! aligned address, many times per simulated cycle. The `std` default
//! (SipHash behind a per-process random key) resists hash flooding, which a
//! simulator keyed by its own addresses does not need, and costs more than
//! the probe itself. [`FxMap`] swaps in an Fx-style hasher: one add and one
//! multiply per word, and, being unkeyed, a fixed iteration order for a
//! given insertion history.
//!
//! The hasher is exported for other crates' hot, unkeyed tables too (the
//! verdict store memoizes config digests in an [`FxMap`] keyed by a whole
//! [`crate::UarchConfig`]): any `Hash` key works, at one add and one
//! multiply per field.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` with the fixed [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// An odd 64-bit constant with well-spread bits (as used by rustc's Fx hash).
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-rotate hasher for integer keys.
#[derive(Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    /// The same word [`FxHasher::write`] makes of one byte, without the
    /// chunk loop: a `bool` field hashes through here, and the verdict
    /// store's config memo hashes 17 of them per query.
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The product's best-mixed bits are its high ones, while the table
    /// picks a bucket from the low ones: rotate the former into the latter,
    /// or aligned keys (multiples of 64 or 4096) would share buckets.
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// Bucket loads of `keys` in a table of `2 * len` (rounded up to a
    /// power of two) buckets indexed by the low hash bits, as hashbrown
    /// indexes them: (distinct buckets used, most keys in one bucket).
    fn bucket_loads(keys: &[u64]) -> (usize, usize) {
        let mask = (2 * keys.len()).next_power_of_two() as u64 - 1;
        let build = BuildHasherDefault::<FxHasher>::default();
        let mut loads: HashMap<u64, usize> = HashMap::new();
        for k in keys {
            *loads.entry(build.hash_one(k) & mask).or_default() += 1;
        }
        (loads.len(), loads.values().copied().max().unwrap_or(0))
    }

    #[test]
    fn byte_writes_match_the_chunked_path() {
        for n in [0u8, 1, 0x80, 0xff] {
            let (mut direct, mut chunked) = (FxHasher::default(), FxHasher::default());
            direct.write_u8(n);
            chunked.write(&[n]);
            assert_eq!(direct.finish(), chunked.finish());
        }
    }

    #[test]
    fn probe_pages_and_lines_spread_over_buckets() {
        // The 256 Flush+Reload probe pages (one page plus one line apart)
        // and 2,048 consecutive line numbers, as keyed by the page table
        // and memory; plus the same lines as 64-byte-aligned addresses,
        // which without the rotation in `finish` land in 64 of 4,096 buckets.
        let vpns: Vec<u64> = (0..256u64).map(|i| (0x20_0000 + i * 4160) / 4096).collect();
        let lines: Vec<u64> = (0..2048u64).map(|i| 0x4000 + i).collect();
        let aligned: Vec<u64> = lines.iter().map(|l| l << 6).collect();
        for keys in [&vpns, &lines, &aligned] {
            let (used, most) = bucket_loads(keys);
            // Uniform random hashing at this load puts ~79% of the keys in
            // distinct buckets and rarely more than 4 in one.
            assert!(
                used * 2 >= keys.len() && most <= 4,
                "{} keys: {used} buckets, up to {most} in one",
                keys.len()
            );
        }
    }
}
