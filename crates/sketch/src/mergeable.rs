//! Mergeability as a first-class capability.
//!
//! Every structure in this workspace maintains `L(x)` for a *linear* map `L`,
//! so the sketch of a concatenated stream equals the sum of the sketches of
//! its parts: `sketch(A ++ B) == merge(sketch(A), sketch(B))` whenever both
//! sides share the same random seeds. [`LinearSketch`](crate::LinearSketch)
//! already exposes `merge`/`subtract` for the real-valued sketches; this
//! module promotes the merge half into its own object-safe trait so that the
//! parallel sharded ingestion engine (`lps-engine`) can drive *any* linear
//! structure — sketches, samplers, heavy-hitter drivers, duplicate finders —
//! through the same shard/tree-merge pipeline.
//!
//! [`Mergeable::state_digest`] exists so tests can *prove* merge identities
//! at the bit level: for the integer/field-arithmetic structures (sparse
//! recovery, the L0 samplers, count-sketch/count-min/AMS under integer
//! workloads) a sharded ingestion followed by a tree merge must reproduce the
//! sequential state exactly, digest for digest. Floating-point structures
//! whose counters hold non-integer reals (p-stable, the precision/AKO
//! samplers and everything built on them) are linear up to rounding: their
//! merges commute bitwise (IEEE 754 addition is commutative) but reassociate
//! only approximately, which is why the engine restricts its bit-identical
//! guarantee to the exact-arithmetic structures.

/// A structure that can absorb the state of an identically-seeded sibling.
///
/// Implementations must satisfy, for structures built with the same seeds:
///
/// * **stream semantics** — `a.merge_from(&b)` leaves `a` holding the sketch
///   of the concatenation of the streams `a` and `b` ingested;
/// * **commutativity** — `merge(a, b)` and `merge(b, a)` produce the same
///   state (bitwise: counter addition is commutative even for `f64`);
/// * **associativity** — `merge(merge(a, b), c)` equals
///   `merge(a, merge(b, c))` exactly for integer/field counters and up to
///   floating-point rounding otherwise.
///
/// Structures that pre-load mass at construction time (the duplicate finders
/// feed an initial `(i, −1)` pass into their sketches) must document how that
/// initialization interacts with merging — see
/// `lps-duplicates::DuplicateFinder::new_shard`.
pub trait Mergeable {
    /// Add the state of `other` (same shape and seeds) into `self`.
    fn merge_from(&mut self, other: &Self);

    /// A deterministic digest of the full counter state.
    ///
    /// Two structures with equal digests hold (with overwhelming
    /// probability) bit-identical counter state; the merge-law property
    /// tests and the engine's parallel-vs-sequential equivalence tests are
    /// phrased entirely in terms of this digest.
    fn state_digest(&self) -> u64;
}

/// An FNV-1a accumulator for building [`Mergeable::state_digest`] values out
/// of heterogeneous counter types.
#[derive(Debug, Clone, Copy)]
pub struct StateDigest {
    hash: u64,
}

impl StateDigest {
    /// A fresh accumulator (FNV-1a offset basis).
    pub fn new() -> Self {
        StateDigest { hash: 0xcbf2_9ce4_8422_2325 }
    }

    /// Fold raw bytes into the digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Fold a `u64` into the digest.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Fold an `i64` into the digest.
    pub fn write_i64(&mut self, v: i64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Fold an `i128` into the digest.
    pub fn write_i128(&mut self, v: i128) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Fold an `f64` into the digest by its IEEE 754 bit pattern, so the
    /// digest distinguishes states that differ only in rounding.
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_bytes(&v.to_bits().to_le_bytes())
    }

    /// The accumulated digest.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

impl Default for StateDigest {
    fn default() -> Self {
        StateDigest::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_and_deterministic() {
        let mut a = StateDigest::new();
        a.write_u64(1).write_u64(2);
        let mut b = StateDigest::new();
        b.write_u64(2).write_u64(1);
        let mut c = StateDigest::new();
        c.write_u64(1).write_u64(2);
        assert_ne!(a.finish(), b.finish());
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn digest_distinguishes_float_bit_patterns() {
        let mut zero = StateDigest::new();
        zero.write_f64(0.0);
        let mut negzero = StateDigest::new();
        negzero.write_f64(-0.0);
        assert_ne!(zero.finish(), negzero.finish(), "0.0 and -0.0 differ bitwise");
    }

    #[test]
    fn empty_digest_is_offset_basis() {
        assert_eq!(StateDigest::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(StateDigest::default().finish(), StateDigest::new().finish());
    }
}
