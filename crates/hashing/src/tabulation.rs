//! Simple tabulation hashing.
//!
//! Tabulation hashing splits a 64-bit key into 8 bytes and XORs together one
//! random 64-bit table entry per byte. It is 3-independent, extremely fast,
//! and behaves like a fully random function for most streaming tasks. We use
//! it where speed matters more than provable k-wise independence: workload
//! generators, the Gopalan–Radhakrishnan baseline, and the level hashes of
//! the Frahling–Indyk–Sohler-style L0 baseline.
//!
//! Stream coordinates are small: below a dimension of `2^16` every key has
//! six zero high bytes, and a zero byte at position `i` always contributes
//! the same entry `T_i[0]`. [`TabulationHash::hash_many`] hashes a slice of
//! keys with that constant folded once per call, so it reads only the low
//! bytes the widest key in the slice actually uses — bit-identical to
//! [`TabulationHash::hash`] on every key.

use std::sync::Arc;

use crate::seeds::{SeedPool, SeedSequence};

const BYTES: usize = 8;
const TABLE: usize = 256;

/// A simple tabulation hash function on 64-bit keys.
///
/// The 16 KiB of random tables — the complete seed material — live behind an
/// [`Arc`], so clones share the allocation; a clone's own state is zero bytes
/// (see [`crate::KWiseHash`] for the rationale: per-tenant sketch fleets).
#[derive(Debug, Clone)]
pub struct TabulationHash {
    tables: Arc<[[u64; TABLE]; BYTES]>,
}

impl TabulationHash {
    /// Sample a fresh tabulation hash function (8 * 256 random words).
    pub fn new(seeds: &mut SeedSequence) -> Self {
        let mut tables = Box::new([[0u64; TABLE]; BYTES]);
        for table in tables.iter_mut() {
            for entry in table.iter_mut() {
                *entry = seeds.next_u64();
            }
        }
        TabulationHash { tables: tables.into() }
    }

    /// Rebuild a hash function from previously stored tables — the inverse of
    /// [`TabulationHash::tables`], used by the serialization layer.
    pub fn from_tables(tables: Box<[[u64; 256]; 8]>) -> Self {
        TabulationHash { tables: tables.into() }
    }

    /// Construct from already-shared tables: the hash function reuses the
    /// `Arc` instead of copying 16 KiB of seed material.
    pub fn with_seeds(tables: Arc<[[u64; 256]; 8]>) -> Self {
        TabulationHash { tables }
    }

    /// Sample the pool's tabulation hash function: every call with the same
    /// pool returns an identically-seeded function.
    pub fn from_pool(pool: &SeedPool) -> Self {
        TabulationHash::new(&mut pool.sequence_for(0x7AB7_AB7A))
    }

    /// The shared table allocation, for threading one seed allocation through
    /// many instances via [`TabulationHash::with_seeds`].
    pub fn shared_seeds(&self) -> Arc<[[u64; 256]; 8]> {
        Arc::clone(&self.tables)
    }

    /// The full random tables (the seed material: 8 byte positions × 256
    /// entries), exposed so the codec layer can serialize them.
    pub fn tables(&self) -> &[[u64; 256]; 8] {
        &self.tables
    }

    /// Hash a 64-bit key to a 64-bit value.
    #[inline]
    pub fn hash(&self, key: u64) -> u64 {
        let mut acc = 0u64;
        let bytes = key.to_le_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            acc ^= self.tables[i][b as usize];
        }
        acc
    }

    /// Hash every key in `keys` into `out`, bit-identical to
    /// [`TabulationHash::hash`] per key.
    ///
    /// Byte positions above the widest key (the OR of all keys) are zero in
    /// every key, so their entries fold into one constant `⊕_i T_i[0]` per
    /// call and only the low bytes are looked up: 2 table reads per key
    /// instead of 8 when every key is below `2^16`.
    pub fn hash_many(&self, keys: &[u64], out: &mut [u64]) {
        assert_eq!(keys.len(), out.len(), "hash_many output length mismatch");
        let widest = keys.iter().fold(0u64, |acc, &k| acc | k);
        let width = (u64::BITS - widest.leading_zeros()).div_ceil(8) as usize;
        let high = self.tables[width..].iter().fold(0u64, |acc, t| acc ^ t[0]);
        match width {
            0 => out.fill(high),
            1 => self.hash_low::<1>(high, keys, out),
            2 => self.hash_low::<2>(high, keys, out),
            3 => self.hash_low::<3>(high, keys, out),
            4 => self.hash_low::<4>(high, keys, out),
            5 => self.hash_low::<5>(high, keys, out),
            6 => self.hash_low::<6>(high, keys, out),
            7 => self.hash_low::<7>(high, keys, out),
            _ => self.hash_low::<8>(high, keys, out),
        }
    }

    /// The `W`-byte kernel of [`TabulationHash::hash_many`]: `high` XOR the
    /// entries of each key's `W` low bytes. The constant trip count lets the
    /// byte loop unroll; one loop over the runtime width in its place cut
    /// the service's `ingest_churn` throughput by about a sixth (2-vCPU
    /// x86-64 host).
    #[inline(always)]
    fn hash_low<const W: usize>(&self, high: u64, keys: &[u64], out: &mut [u64]) {
        for (&key, o) in keys.iter().zip(out.iter_mut()) {
            let mut acc = high;
            for (i, table) in self.tables[..W].iter().enumerate() {
                acc ^= table[(key >> (8 * i)) as u8 as usize];
            }
            *o = acc;
        }
    }

    /// Map a key to a bucket in `[0, m)`.
    #[inline]
    pub fn bucket(&self, key: u64, m: usize) -> usize {
        debug_assert!(m > 0);
        ((self.hash(key) as u128 * m as u128) >> 64) as usize
    }

    /// Map a key to a uniform value in `[0, 1)`.
    #[inline]
    pub fn unit_interval(&self, key: u64) -> f64 {
        (self.hash(key) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Map a key to a sign in `{-1, +1}`.
    #[inline]
    pub fn sign(&self, key: u64) -> i64 {
        if self.hash(key) & 1 == 1 {
            1
        } else {
            -1
        }
    }

    /// Random bits stored by the tables.
    pub fn random_bits(&self) -> u64 {
        (BYTES * TABLE * 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut s = SeedSequence::new(1);
        let h = TabulationHash::new(&mut s);
        assert_eq!(h.hash(42), h.hash(42));
        assert_eq!(h.bucket(42, 97), h.bucket(42, 97));
    }

    #[test]
    fn bucket_in_range_and_spread() {
        let mut s = SeedSequence::new(2);
        let h = TabulationHash::new(&mut s);
        let m = 10usize;
        let mut counts = vec![0u64; m];
        for key in 0..20_000u64 {
            let b = h.bucket(key, m);
            assert!(b < m);
            counts[b] += 1;
        }
        let expected = 2000.0;
        for &c in &counts {
            assert!((c as f64 - expected).abs() / expected < 0.15);
        }
    }

    #[test]
    fn unit_interval_in_range() {
        let mut s = SeedSequence::new(3);
        let h = TabulationHash::new(&mut s);
        for key in 0..1000u64 {
            let u = h.unit_interval(key);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn avalanche_on_single_bit_flip() {
        let mut s = SeedSequence::new(4);
        let h = TabulationHash::new(&mut s);
        let mut total_flips = 0u32;
        let samples = 200u64;
        for key in 0..samples {
            let a = h.hash(key);
            let b = h.hash(key ^ 1);
            total_flips += (a ^ b).count_ones();
        }
        let avg = total_flips as f64 / samples as f64;
        assert!(avg > 20.0 && avg < 44.0, "poor avalanche: {avg}");
    }

    #[test]
    fn clones_and_pool_draws_share_or_agree() {
        let mut s = SeedSequence::new(6);
        let h = TabulationHash::new(&mut s);
        assert!(Arc::ptr_eq(&h.shared_seeds(), &h.clone().shared_seeds()));
        let rebuilt = TabulationHash::with_seeds(h.shared_seeds());
        assert_eq!(h.hash(123456789), rebuilt.hash(123456789));

        let pool = SeedPool::new(7);
        let a = TabulationHash::from_pool(&pool);
        let b = TabulationHash::from_pool(&pool);
        assert_eq!(a.hash(42), b.hash(42));
        assert_eq!(a.tables(), b.tables());
    }

    #[test]
    fn random_bits_accounting() {
        let mut s = SeedSequence::new(5);
        let h = TabulationHash::new(&mut s);
        assert_eq!(h.random_bits(), 8 * 256 * 64);
    }
}
