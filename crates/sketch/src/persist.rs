//! Versioned binary serialization of sketch state — the codec layer that
//! lets linear-sketch shards leave the process.
//!
//! [`crate::Mergeable`] made merging a first-class capability, but a state
//! digest only *proves* two in-process states equal; it cannot ship a state
//! to another machine. [`Persist`] closes that gap with a versioned,
//! length-prefixed, little-endian wire format so shards can be checkpointed
//! to disk, transported, and merged in a different OS process (`lps-engine`'s
//! session `checkpoint` / builder `resume` / `merge_checkpointed` build
//! directly on this trait, wrapping each payload in a plan envelope).
//!
//! ## Wire format (version 2)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"LPSK"
//! 4       2     format version (u16 LE) — currently 2
//! 6       2     structure tag  (u16 LE) — see the `tags` module
//! 8       8     seed-section length  S  (u64 LE)
//! 16      S     seed section     (shape parameters + all random seed material)
//! 16+S    8     counter-section length C (u64 LE)
//! 24+S    C     counter section  (the mutable linear-sketch counters)
//! ```
//!
//! The split into a **seed section** and a **counter section** is what makes
//! cross-process merging safe and cheap to validate: two encoded states are
//! merge-compatible exactly when their headers and seed sections are
//! byte-identical (same structure, same shape, same random functions), which
//! a merger can check without decoding either buffer. Identically-seeded
//! shards — the only states the linear-sketch merge identity
//! `sketch(A ++ B) = merge(sketch(A), sketch(B))` applies to — always
//! serialize to identical seed sections.
//!
//! Nested structures compose *within* the two sections: a sampler writes its
//! children's seed material into its own seed section and their counters into
//! its own counter section (no nested headers), so the top-level seed section
//! always covers the complete random state and the compatibility check stays
//! a single `memcmp`.
//!
//! ## Version policy
//!
//! The format version is bumped whenever the byte layout of any structure
//! changes; decoders accept exactly the versions they know
//! ([`WIRE_VERSION`]) and reject everything else with
//! [`DecodeError::UnsupportedVersion`] — no silent best-effort decoding of
//! foreign layouts. Structure tags are append-only: a tag, once assigned, is
//! never reused for a different structure.
//!
//! Version history: **1** — initial layout; **2** — the float-accumulator
//! sketches (count-sketch, AMS, p-stable) append their Kahan compensation
//! vector to the counter section, so a restored state resumes summation with
//! bit-identical rounding.
//!
//! Decoding is total: any byte slice either decodes to a valid structure or
//! returns a typed [`DecodeError`]. Malformed input never panics and never
//! triggers large speculative allocations (claimed element counts are checked
//! against the bytes actually present before any buffer is allocated).

use lps_hash::{FourWiseHash, Fp, KWiseHash, PairwiseHash, TabulationHash, MERSENNE_P};

/// The 4-byte magic prefix of every encoded state.
pub const WIRE_MAGIC: [u8; 4] = *b"LPSK";

/// The current (and only) wire-format version.
pub const WIRE_VERSION: u16 = 2;

/// Size of the fixed header preceding the seed section: magic, version,
/// structure tag, seed-section length.
const HEADER_BYTES: usize = 4 + 2 + 2 + 8;

/// Structure tags identifying what an encoded buffer contains.
///
/// Tags are part of the wire format: append-only, never reused. The blocks
/// group by crate (hashing, sketch, core samplers, heavy hitters,
/// duplicates); [`tags::REPEATED_BASE`] is OR-ed with the inner sampler's tag
/// for the generic repetition wrapper.
pub mod tags {
    /// `lps_hash::KWiseHash`.
    pub const KWISE_HASH: u16 = 0x0001;
    /// `lps_hash::PairwiseHash`.
    pub const PAIRWISE_HASH: u16 = 0x0002;
    /// `lps_hash::FourWiseHash`.
    pub const FOURWISE_HASH: u16 = 0x0003;
    /// `lps_hash::TabulationHash`.
    pub const TABULATION_HASH: u16 = 0x0004;
    /// [`crate::OneSparseCell`].
    pub const ONE_SPARSE_CELL: u16 = 0x0010;
    /// [`crate::SparseRecovery`].
    pub const SPARSE_RECOVERY: u16 = 0x0011;
    /// [`crate::CountSketch`].
    pub const COUNT_SKETCH: u16 = 0x0012;
    /// [`crate::CountMinSketch`].
    pub const COUNT_MIN: u16 = 0x0013;
    /// [`crate::CountMedianSketch`].
    pub const COUNT_MEDIAN: u16 = 0x0014;
    /// [`crate::AmsSketch`].
    pub const AMS: u16 = 0x0015;
    /// [`crate::PStableSketch`].
    pub const PSTABLE: u16 = 0x0016;
    /// `lps_core::L0Sampler`.
    pub const L0_SAMPLER: u16 = 0x0020;
    /// `lps_core::FisL0Sampler`.
    pub const FIS_L0_SAMPLER: u16 = 0x0021;
    /// `lps_core::PrecisionLpSampler`.
    pub const PRECISION_SAMPLER: u16 = 0x0022;
    /// `lps_core::AkoSampler`.
    pub const AKO_SAMPLER: u16 = 0x0023;
    /// `lps_core::ExactSampler`.
    pub const EXACT_SAMPLER: u16 = 0x0024;
    /// `lps_core::RepeatedSampler<S>` encodes as `REPEATED_BASE | S::TAG`.
    pub const REPEATED_BASE: u16 = 0x4000;
    /// `lps_registry::LazySketch<T>` encodes as `LAZY_BASE | T::TAG`.
    pub const LAZY_BASE: u16 = 0x8000;
    /// `lps_heavy::CountSketchHeavyHitters`.
    pub const CS_HEAVY_HITTERS: u16 = 0x0030;
    /// `lps_heavy::CountMinHeavyHitters`.
    pub const CM_HEAVY_HITTERS: u16 = 0x0031;
    /// `lps_duplicates::PositiveCoordinateFinder`.
    pub const POSITIVE_FINDER: u16 = 0x0040;
    /// `lps_duplicates::DuplicateFinder` (Theorem 3).
    pub const DUPLICATE_FINDER: u16 = 0x0041;
    /// `lps_duplicates::ShortStreamDuplicateFinder` (Theorem 4).
    pub const SHORT_STREAM_FINDER: u16 = 0x0042;
}

/// Why a buffer failed to decode. Every malformed input maps to one of these
/// variants; decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the bytes the format requires.
    Truncated {
        /// Bytes the decoder needed at the failure point.
        expected: usize,
        /// Bytes actually available there.
        available: usize,
    },
    /// The buffer does not start with [`WIRE_MAGIC`].
    BadMagic {
        /// The first four bytes found (zero-padded if the buffer is shorter).
        found: [u8; 4],
    },
    /// The format version is not one this decoder supports.
    UnsupportedVersion {
        /// The version stamped in the buffer.
        found: u16,
    },
    /// The buffer holds a different structure than the one requested.
    WrongStructure {
        /// The tag the caller's type expects.
        expected: u16,
        /// The tag stamped in the buffer.
        found: u16,
    },
    /// Bytes remain after the structure was fully decoded (or the declared
    /// section lengths disagree with the buffer length).
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// Two buffers offered for merging carry different seed sections (or
    /// headers), so they do not sketch with the same random linear map.
    SeedMismatch {
        /// Index of the offending buffer in the caller's slice.
        shard: usize,
    },
    /// An engine checkpoint was produced under a different shard plan than
    /// the one the caller is resuming with — a different partitioning
    /// strategy (a checkpoint of the retired key-range plan) or a different
    /// tolerance marker: the per-shard states are only meaningful under the
    /// plan that produced them.
    PlanMismatch {
        /// Strategy or tolerance name the resuming plan expects.
        expected: &'static str,
        /// Strategy or tolerance name stamped in the checkpoint envelope.
        found: &'static str,
    },
    /// A field holds a value the structure's invariants forbid.
    Corrupt {
        /// Which invariant was violated.
        context: &'static str,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { expected, available } => {
                write!(f, "truncated buffer: needed {expected} bytes, found {available}")
            }
            DecodeError::BadMagic { found } => {
                write!(f, "bad magic {found:?} (expected {WIRE_MAGIC:?})")
            }
            DecodeError::UnsupportedVersion { found } => {
                write!(f, "unsupported wire format version {found} (supported: {WIRE_VERSION})")
            }
            DecodeError::WrongStructure { expected, found } => {
                write!(f, "wrong structure tag {found:#06x} (expected {expected:#06x})")
            }
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the encoded structure")
            }
            DecodeError::SeedMismatch { shard } => {
                write!(f, "shard {shard} was built with different seeds or shape")
            }
            DecodeError::PlanMismatch { expected, found } => {
                write!(f, "checkpoint was taken under shard plan {found} (expected {expected})")
            }
            DecodeError::Corrupt { context } => write!(f, "corrupt field: {context}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Little-endian writer over a byte buffer; the encoding half of the wire
/// primitives.
#[derive(Debug)]
pub struct WireWriter<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> WireWriter<'a> {
    /// Wrap a buffer; written bytes are appended.
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        WireWriter { buf }
    }

    /// Append a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16` (little-endian).
    pub fn write_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64`.
    pub fn write_len(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Append an `i64` (little-endian two's complement).
    pub fn write_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i128` (little-endian two's complement).
    pub fn write_i128(&mut self, v: i128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` by its IEEE 754 bit pattern, so round-trips are exact.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Append a field element as its canonical residue.
    pub fn write_fp(&mut self, v: Fp) {
        self.write_u64(v.value());
    }

    /// Append raw bytes verbatim — for embedding an already-encoded section
    /// (e.g. a captured seed section) without re-serializing it.
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Little-endian cursor over a byte slice; the decoding half of the wire
/// primitives. Every read is bounds-checked and returns
/// [`DecodeError::Truncated`] instead of panicking.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wrap a byte slice, starting at offset 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        WireReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated { expected: n, available: self.remaining() });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read a single byte.
    pub fn read_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn read_u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("length checked")))
    }

    /// Read a `u64`.
    pub fn read_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("length checked")))
    }

    /// Read an `i64`.
    pub fn read_i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("length checked")))
    }

    /// Read an `i128`.
    pub fn read_i128(&mut self) -> Result<i128, DecodeError> {
        Ok(i128::from_le_bytes(self.take(16)?.try_into().expect("length checked")))
    }

    /// Read an `f64` from its bit pattern.
    pub fn read_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Read a finite `f64`, rejecting NaN / infinities.
    pub fn read_finite_f64(&mut self, context: &'static str) -> Result<f64, DecodeError> {
        let v = self.read_f64()?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(DecodeError::Corrupt { context })
        }
    }

    /// Read a canonical field element, rejecting unreduced residues.
    pub fn read_fp(&mut self) -> Result<Fp, DecodeError> {
        let v = self.read_u64()?;
        if v < MERSENNE_P {
            Ok(Fp::from_reduced(v))
        } else {
            Err(DecodeError::Corrupt { context: "field element not a canonical residue" })
        }
    }

    /// Read an element count previously written with
    /// [`WireWriter::write_len`], verifying that `count × elem_bytes` does
    /// not exceed the bytes still present — so a corrupted count can never
    /// trigger a large speculative allocation.
    pub fn read_count(&mut self, elem_bytes: usize) -> Result<usize, DecodeError> {
        let raw = self.read_u64()?;
        let count = usize::try_from(raw)
            .map_err(|_| DecodeError::Corrupt { context: "element count exceeds usize" })?;
        self.claim(count, elem_bytes)?;
        Ok(count)
    }

    /// Verify that `count` elements of `elem_bytes` each are present in the
    /// unconsumed bytes (without consuming them). Call before allocating for
    /// counts that are implied by shape fields rather than read directly.
    pub fn claim(&self, count: usize, elem_bytes: usize) -> Result<(), DecodeError> {
        let needed = count
            .checked_mul(elem_bytes)
            .ok_or(DecodeError::Corrupt { context: "element count overflows" })?;
        if needed > self.remaining() {
            Err(DecodeError::Truncated { expected: needed, available: self.remaining() })
        } else {
            Ok(())
        }
    }

    /// Read `count` `f64` values (bounds-checked before allocation).
    pub fn read_f64s(&mut self, count: usize) -> Result<Vec<f64>, DecodeError> {
        self.claim(count, 8)?;
        (0..count).map(|_| self.read_f64()).collect()
    }

    /// Read `count` `i64` values (bounds-checked before allocation).
    pub fn read_i64s(&mut self, count: usize) -> Result<Vec<i64>, DecodeError> {
        self.claim(count, 8)?;
        (0..count).map(|_| self.read_i64()).collect()
    }

    /// Consume and return every unconsumed byte. The inverse of
    /// [`WireWriter::write_raw`] for a trailing raw field: callers that store
    /// an opaque blob (e.g. a captured seed section) place it last in the
    /// section and capture it with this.
    pub fn take_rest(&mut self) -> &'a [u8] {
        let out = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        out
    }
}

/// The parsed fixed-size prefix of an encoded state, plus the byte ranges of
/// its two sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireHeader {
    /// The stamped format version (always a supported one after parsing).
    pub version: u16,
    /// The stamped structure tag.
    pub tag: u16,
    /// Byte range of the seed section within the original buffer.
    pub seed_range: std::ops::Range<usize>,
    /// Byte range of the counter section within the original buffer.
    pub counter_range: std::ops::Range<usize>,
}

/// Parse and validate the header and section framing of an encoded buffer:
/// magic, version, tag, and that the two declared section lengths tile the
/// buffer exactly.
pub fn read_header(bytes: &[u8]) -> Result<WireHeader, DecodeError> {
    if bytes.len() < WIRE_MAGIC.len() {
        return Err(DecodeError::Truncated { expected: WIRE_MAGIC.len(), available: bytes.len() });
    }
    if bytes[..4] != WIRE_MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&bytes[..4]);
        return Err(DecodeError::BadMagic { found });
    }
    let mut r = WireReader::new(&bytes[4..]);
    let version = r.read_u16()?;
    if version != WIRE_VERSION {
        return Err(DecodeError::UnsupportedVersion { found: version });
    }
    let tag = r.read_u16()?;
    let seed_len = r.read_count(1)?;
    let seed_range = HEADER_BYTES..HEADER_BYTES + seed_len;
    let mut r = WireReader::new(&bytes[seed_range.end..]);
    let counter_len = r.read_count(1)?;
    let counter_start = seed_range.end + 8;
    let counter_range = counter_start..counter_start + counter_len;
    if counter_range.end != bytes.len() {
        return Err(DecodeError::TrailingBytes { extra: bytes.len() - counter_range.end });
    }
    Ok(WireHeader { version, tag, seed_range, counter_range })
}

/// The seed section of an encoded buffer (shape + all random seed material).
/// Two encoded states are merge-compatible iff their tags match and their
/// seed sections are byte-identical.
pub fn seed_section(bytes: &[u8]) -> Result<&[u8], DecodeError> {
    let header = read_header(bytes)?;
    Ok(&bytes[header.seed_range])
}

/// A structure whose complete state — shape, random seed material, and
/// counters — round-trips through the versioned wire format.
///
/// Implementors split their state across the two wire sections:
///
/// * [`Persist::encode_seeds`] writes everything fixed at construction time
///   (dimensions, table shapes, hash coefficients, stored seed words) — the
///   part that must be byte-identical between merge-compatible states;
/// * [`Persist::encode_counters`] writes the mutable linear-sketch counters —
///   the part a stream mutates and a merge adds.
///
/// Nested structures compose by calling their children's section encoders
/// inside their own (same order in both halves); only the outermost
/// [`Persist::encode_state`] emits a header.
///
/// The round-trip law, pinned by the workspace's property tests: for any
/// reachable state `s`, `decode_state(encode_to_vec(s))` succeeds and has the
/// same [`crate::Mergeable::state_digest`] — bit-identical counters — and the
/// same behaviour under further updates, merges, and queries.
pub trait Persist: Sized {
    /// The structure tag stamped into the header (see [`tags`]).
    const TAG: u16;

    /// Write the construction-time state (shape + seed material).
    fn encode_seeds(&self, w: &mut WireWriter<'_>);

    /// Write the mutable counter state.
    fn encode_counters(&self, w: &mut WireWriter<'_>);

    /// Rebuild a structure from the two sections. Implementations must read
    /// exactly the bytes their encoders wrote (framing is validated by
    /// [`Persist::decode_state`]) and reject invariant-violating values with
    /// typed errors instead of panicking.
    fn decode_parts(
        seeds: &mut WireReader<'_>,
        counters: &mut WireReader<'_>,
    ) -> Result<Self, DecodeError>;

    /// Append the complete encoded state (header + both sections) to `out`.
    fn encode_state(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&WIRE_MAGIC);
        out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        out.extend_from_slice(&Self::TAG.to_le_bytes());
        let mut seeds = Vec::new();
        self.encode_seeds(&mut WireWriter::new(&mut seeds));
        out.extend_from_slice(&(seeds.len() as u64).to_le_bytes());
        out.extend_from_slice(&seeds);
        let mut counters = Vec::new();
        self.encode_counters(&mut WireWriter::new(&mut counters));
        out.extend_from_slice(&(counters.len() as u64).to_le_bytes());
        out.extend_from_slice(&counters);
    }

    /// The complete encoded state as a fresh buffer.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_state(&mut out);
        out
    }

    /// Decode a structure from a buffer produced by
    /// [`Persist::encode_state`], validating magic, version, tag, section
    /// framing, and that both sections are consumed exactly.
    fn decode_state(bytes: &[u8]) -> Result<Self, DecodeError> {
        let header = read_header(bytes)?;
        if header.tag != Self::TAG {
            return Err(DecodeError::WrongStructure { expected: Self::TAG, found: header.tag });
        }
        let mut seeds = WireReader::new(&bytes[header.seed_range]);
        let mut counters = WireReader::new(&bytes[header.counter_range]);
        let decoded = Self::decode_parts(&mut seeds, &mut counters)?;
        if !seeds.is_empty() {
            return Err(DecodeError::TrailingBytes { extra: seeds.remaining() });
        }
        if !counters.is_empty() {
            return Err(DecodeError::TrailingBytes { extra: counters.remaining() });
        }
        Ok(decoded)
    }
}

// ---------------------------------------------------------------------------
// Persist for the lps-hash seed carriers. Hash functions are pure seed
// material: their counter sections are empty.
// ---------------------------------------------------------------------------

impl Persist for KWiseHash {
    const TAG: u16 = tags::KWISE_HASH;

    fn encode_seeds(&self, w: &mut WireWriter<'_>) {
        w.write_len(self.coefficients().len());
        for &c in self.coefficients() {
            w.write_fp(c);
        }
    }

    fn encode_counters(&self, _w: &mut WireWriter<'_>) {}

    fn decode_parts(
        seeds: &mut WireReader<'_>,
        _counters: &mut WireReader<'_>,
    ) -> Result<Self, DecodeError> {
        let k = seeds.read_count(8)?;
        if k == 0 {
            return Err(DecodeError::Corrupt { context: "k-wise hash needs k >= 1" });
        }
        let coeffs = (0..k).map(|_| seeds.read_fp()).collect::<Result<Vec<_>, _>>()?;
        Ok(KWiseHash::from_coefficients(coeffs))
    }
}

impl Persist for PairwiseHash {
    const TAG: u16 = tags::PAIRWISE_HASH;

    fn encode_seeds(&self, w: &mut WireWriter<'_>) {
        self.kwise().encode_seeds(w);
    }

    fn encode_counters(&self, _w: &mut WireWriter<'_>) {}

    fn decode_parts(
        seeds: &mut WireReader<'_>,
        counters: &mut WireReader<'_>,
    ) -> Result<Self, DecodeError> {
        let inner = KWiseHash::decode_parts(seeds, counters)?;
        if inner.independence() != 2 {
            return Err(DecodeError::Corrupt { context: "pairwise hash needs exactly k = 2" });
        }
        Ok(PairwiseHash::from_kwise(inner))
    }
}

impl Persist for FourWiseHash {
    const TAG: u16 = tags::FOURWISE_HASH;

    fn encode_seeds(&self, w: &mut WireWriter<'_>) {
        self.kwise().encode_seeds(w);
    }

    fn encode_counters(&self, _w: &mut WireWriter<'_>) {}

    fn decode_parts(
        seeds: &mut WireReader<'_>,
        counters: &mut WireReader<'_>,
    ) -> Result<Self, DecodeError> {
        let inner = KWiseHash::decode_parts(seeds, counters)?;
        if inner.independence() != 4 {
            return Err(DecodeError::Corrupt { context: "4-wise hash needs exactly k = 4" });
        }
        Ok(FourWiseHash::from_kwise(inner))
    }
}

impl Persist for TabulationHash {
    const TAG: u16 = tags::TABULATION_HASH;

    fn encode_seeds(&self, w: &mut WireWriter<'_>) {
        for table in self.tables() {
            for &entry in table {
                w.write_u64(entry);
            }
        }
    }

    fn encode_counters(&self, _w: &mut WireWriter<'_>) {}

    fn decode_parts(
        seeds: &mut WireReader<'_>,
        _counters: &mut WireReader<'_>,
    ) -> Result<Self, DecodeError> {
        seeds.claim(8 * 256, 8)?;
        let mut tables = Box::new([[0u64; 256]; 8]);
        for table in tables.iter_mut() {
            for entry in table.iter_mut() {
                *entry = seeds.read_u64()?;
            }
        }
        Ok(TabulationHash::from_tables(tables))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_hash::SeedSequence;

    #[test]
    fn wire_primitives_roundtrip() {
        let mut buf = Vec::new();
        let mut w = WireWriter::new(&mut buf);
        w.write_u8(7);
        w.write_u16(300);
        w.write_u64(u64::MAX - 1);
        w.write_i64(-42);
        w.write_i128(-(1i128 << 100));
        w.write_f64(-0.0);
        w.write_fp(Fp::new(123456789));
        let mut r = WireReader::new(&buf);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_u16().unwrap(), 300);
        assert_eq!(r.read_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.read_i64().unwrap(), -42);
        assert_eq!(r.read_i128().unwrap(), -(1i128 << 100));
        assert_eq!(r.read_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.read_fp().unwrap(), Fp::new(123456789));
        assert!(r.is_empty());
    }

    #[test]
    fn reader_reports_truncation() {
        let mut r = WireReader::new(&[1, 2, 3]);
        assert_eq!(r.read_u64(), Err(DecodeError::Truncated { expected: 8, available: 3 }));
    }

    #[test]
    fn reader_rejects_unreduced_field_elements() {
        let mut buf = Vec::new();
        WireWriter::new(&mut buf).write_u64(MERSENNE_P);
        assert!(matches!(WireReader::new(&buf).read_fp(), Err(DecodeError::Corrupt { .. })));
    }

    #[test]
    fn read_count_rejects_oversized_claims() {
        let mut buf = Vec::new();
        WireWriter::new(&mut buf).write_u64(1 << 40); // claims 2^40 elements
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.read_count(8), Err(DecodeError::Truncated { .. })));
    }

    #[test]
    fn kwise_hash_roundtrips_and_agrees_pointwise() {
        let mut s = SeedSequence::new(11);
        let h = KWiseHash::new(6, &mut s);
        let decoded = KWiseHash::decode_state(&h.encode_to_vec()).unwrap();
        for key in 0..200u64 {
            assert_eq!(h.hash(key), decoded.hash(key));
        }
    }

    #[test]
    fn tabulation_hash_roundtrips() {
        let mut s = SeedSequence::new(12);
        let h = TabulationHash::new(&mut s);
        let decoded = TabulationHash::decode_state(&h.encode_to_vec()).unwrap();
        for key in [0u64, 1, 42, u64::MAX] {
            assert_eq!(h.hash(key), decoded.hash(key));
        }
    }

    #[test]
    fn header_errors_are_typed() {
        let mut s = SeedSequence::new(13);
        let h = PairwiseHash::new(&mut s);
        let good = h.encode_to_vec();

        // every strict prefix fails (never panics, never succeeds)
        for cut in 0..good.len() {
            assert!(PairwiseHash::decode_state(&good[..cut]).is_err(), "prefix {cut} accepted");
        }
        // appended garbage fails
        let mut long = good.clone();
        long.push(0);
        assert!(matches!(
            PairwiseHash::decode_state(&long),
            Err(DecodeError::TrailingBytes { .. })
        ));
        // bad magic
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(PairwiseHash::decode_state(&bad), Err(DecodeError::BadMagic { .. })));
        // unsupported version
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            PairwiseHash::decode_state(&bad),
            Err(DecodeError::UnsupportedVersion { found: 99 })
        ));
        // wrong structure tag
        assert!(matches!(
            FourWiseHash::decode_state(&good),
            Err(DecodeError::WrongStructure {
                expected: tags::FOURWISE_HASH,
                found: tags::PAIRWISE_HASH
            })
        ));
    }

    #[test]
    fn seed_section_is_stable_across_clones() {
        let mut s = SeedSequence::new(14);
        let h = FourWiseHash::new(&mut s);
        let a = h.encode_to_vec();
        let b = h.clone().encode_to_vec();
        assert_eq!(seed_section(&a).unwrap(), seed_section(&b).unwrap());
    }
}
