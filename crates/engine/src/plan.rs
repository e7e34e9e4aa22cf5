//! The engine's one shard plan and the checkpoint envelope it stamps.
//!
//! The engine's linearity identity `sketch(A ++ B) = merge(sketch(A),
//! sketch(B))` holds for *any* partition of the update stream across
//! identically-seeded shards, so the engine uses the simplest one:
//! [`RoundRobin`] deals dispatch batches to full replicas in rotation,
//! which balances load for free, and recombines the shard states by
//! addition ([`Mergeable::merge_from`]).
//!
//! The plan carries a [`Tolerance`] marker. `Tolerance::Exact` (the
//! default) restricts it to structures whose shard merges are bit-exact;
//! `Tolerance::Approximate` is the explicit opt-in required to drive the
//! floating-point structures (p-stable, precision/AKO samplers, both
//! heavy-hitter drivers), whose merges reassociate `f64` sums and are
//! therefore linear only up to the documented `~2kε` drift bound (Kahan
//! compensation keeps each shard's sums exact to `O(ε)`; only the k-way
//! merge reassociates).
//!
//! Checkpoints are stamped with the plan that produced them: every shard
//! buffer starts with a fixed-size envelope (magic, version, strategy tag,
//! tolerance, shard index/count, two reserved range words) ahead of the
//! `Persist` payload. The strategy tag is always 0 (round robin); tag 1
//! marks a checkpoint of the retired key-range plan, which every reader
//! refuses with [`DecodeError::PlanMismatch`].

use lps_sketch::{DecodeError, Mergeable};

/// How faithfully a plan's shard merge must reproduce sequential ingestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tolerance {
    /// Shard states must recombine bit-identically to sequential ingestion
    /// (integer/field counter arithmetic). The default; the engine refuses
    /// to drive floating-point structures under an exact plan.
    Exact,
    /// Shard merges may reassociate floating-point sums: results are correct
    /// at the estimator level (within the documented `~2kε` per-counter
    /// drift) but not bit-identical. Required to shard the float structures.
    ///
    /// Kahan compensation does **not** lift the float structures to
    /// [`Exact`](Tolerance::Exact), and cannot: compensation makes each
    /// shard's *own* accumulation order nearly exact, but sequential
    /// ingestion folds every update into one counter in stream order while a
    /// k-way merge adds k already-rounded partial sums in a different
    /// association. IEEE-754 addition is not associative, the bits rounded
    /// away inside each partial sum are gone before the merge runs, and each
    /// shard's compensation term was computed against its own sequence of
    /// partial sums — summing the compensations elementwise preserves the
    /// merge's commutativity, not sequential bit-identity. So the float
    /// structures stay `Approximate` by construction; see
    /// `lps_sketch::compensated` for the shard-local half of the story.
    Approximate,
}

impl Tolerance {
    /// Human-readable marker name (used by [`DecodeError::PlanMismatch`]).
    pub fn name(self) -> &'static str {
        match self {
            Tolerance::Exact => "exact tolerance",
            Tolerance::Approximate => "approximate tolerance",
        }
    }
}

/// The engine's shard plan: identically-seeded full replicas, sealed
/// windows dealt to them in rotation, additive tree merge.
#[derive(Debug, Clone)]
pub struct RoundRobin {
    shards: usize,
    tolerance: Tolerance,
}

impl RoundRobin {
    /// An exact-tolerance round-robin plan over `shards` workers.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        RoundRobin { shards, tolerance: Tolerance::Exact }
    }

    /// A round-robin plan that opts into approximate (floating-point) shard
    /// merges, unlocking the float structures.
    pub fn approximate(shards: usize) -> Self {
        RoundRobin::new(shards).with_tolerance(Tolerance::Approximate)
    }

    /// Override the tolerance marker.
    pub fn with_tolerance(mut self, tolerance: Tolerance) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Number of shards the plan deals to.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The merge-fidelity class the caller opted into.
    pub fn tolerance(&self) -> Tolerance {
        self.tolerance
    }
}

/// Deterministic binary tree merge over shard order (`(s0+s1) + (s2+s3)`,
/// …): `log₂ shards` combine rounds instead of a serial left fold, and a
/// fixed association so approximate (float) merges stay reproducible run to
/// run. Shared by every in-process and cross-process merge path.
pub(crate) fn tree_merge<T: Mergeable>(mut states: Vec<T>) -> T {
    assert!(!states.is_empty(), "at least one shard");
    while states.len() > 1 {
        let mut next_round = Vec::with_capacity(states.len().div_ceil(2));
        let mut it = states.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                a.merge_from(&b);
            }
            next_round.push(a);
        }
        states = next_round;
    }
    states.pop().expect("at least one shard")
}

/// Magic prefix of a plan-aware checkpoint envelope (distinct from the
/// `LPSK` magic of a bare `Persist` buffer, so the two are never confused).
pub const ENVELOPE_MAGIC: [u8; 4] = *b"LPSE";

/// Version of the envelope layout.
pub const ENVELOPE_VERSION: u16 = 1;

/// Byte length of the fixed-size envelope header that precedes the
/// `Persist` payload: magic (4) + version (2) + strategy (1) + tolerance
/// (1) + shard index (2) + shard count (2) + two reserved range words (8 +
/// 8, written as zero).
pub const ENVELOPE_HEADER_LEN: usize = 28;

/// The strategy tag round robin stamps.
const ROUND_ROBIN_TAG: u8 = 0;
/// The strategy tag of the retired key-range plan, refused on read.
const KEY_RANGE_TAG: u8 = 1;

/// The decoded plan envelope of one checkpoint shard buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanEnvelope {
    /// Tolerance marker the producing plan carried.
    pub tolerance: Tolerance,
    /// This buffer's shard index.
    pub shard: u16,
    /// Total shard count of the checkpoint.
    pub shard_count: u16,
}

/// Encode one shard's plan envelope header; the caller appends the
/// `Persist` payload directly into the returned buffer, skipping the extra
/// staging `Vec` (and full-payload memcpy) that encode-then-concatenate
/// would cost.
pub(crate) fn encode_envelope_header(plan: &RoundRobin, shard: usize) -> Vec<u8> {
    assert!(plan.shards() <= u16::MAX as usize, "envelope stamps shard counts as u16");
    let mut out = Vec::with_capacity(ENVELOPE_HEADER_LEN);
    out.extend_from_slice(&ENVELOPE_MAGIC);
    out.extend_from_slice(&ENVELOPE_VERSION.to_le_bytes());
    out.push(ROUND_ROBIN_TAG);
    out.push(match plan.tolerance() {
        Tolerance::Exact => 0,
        Tolerance::Approximate => 1,
    });
    out.extend_from_slice(&(shard as u16).to_le_bytes());
    out.extend_from_slice(&(plan.shards() as u16).to_le_bytes());
    out.resize(ENVELOPE_HEADER_LEN, 0);
    out
}

/// Split a checkpoint shard buffer into its decoded envelope and the
/// `Persist` payload that follows it. Total: every malformed input maps to
/// a typed [`DecodeError`], never a panic. A key-range checkpoint (strategy
/// tag 1) is refused as [`DecodeError::PlanMismatch`].
pub fn read_envelope(bytes: &[u8]) -> Result<(PlanEnvelope, &[u8]), DecodeError> {
    if bytes.len() < ENVELOPE_HEADER_LEN {
        return Err(DecodeError::Truncated {
            expected: ENVELOPE_HEADER_LEN,
            available: bytes.len(),
        });
    }
    if bytes[0..4] != ENVELOPE_MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&bytes[0..4]);
        return Err(DecodeError::BadMagic { found });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != ENVELOPE_VERSION {
        return Err(DecodeError::UnsupportedVersion { found: version });
    }
    match bytes[6] {
        ROUND_ROBIN_TAG => {}
        KEY_RANGE_TAG => {
            return Err(DecodeError::PlanMismatch { expected: "round_robin", found: "key_range" })
        }
        _ => return Err(DecodeError::Corrupt { context: "unknown shard-plan strategy tag" }),
    }
    let tolerance = match bytes[7] {
        0 => Tolerance::Exact,
        1 => Tolerance::Approximate,
        _ => return Err(DecodeError::Corrupt { context: "unknown tolerance marker" }),
    };
    let shard = u16::from_le_bytes([bytes[8], bytes[9]]);
    let shard_count = u16::from_le_bytes([bytes[10], bytes[11]]);
    if shard_count == 0 || shard >= shard_count {
        return Err(DecodeError::Corrupt { context: "shard index outside the stamped count" });
    }
    let envelope = PlanEnvelope { tolerance, shard, shard_count };
    Ok((envelope, &bytes[ENVELOPE_HEADER_LEN..]))
}

/// Read every envelope of a checkpoint set and return the bare `Persist`
/// payloads in shard order. Shared by plan-driven resume and plan-less
/// cross-process merging: every buffer must carry `tolerance` (the first
/// buffer's when `None`), and buffers must arrive complete and in shard
/// order.
pub(crate) fn checkpoint_payloads(
    encoded: &[Vec<u8>],
    tolerance: Option<Tolerance>,
) -> Result<Vec<&[u8]>, DecodeError> {
    if encoded.is_empty() {
        return Err(DecodeError::Corrupt { context: "need at least one encoded shard" });
    }
    let mut expected = tolerance;
    let mut payloads = Vec::with_capacity(encoded.len());
    for (i, bytes) in encoded.iter().enumerate() {
        let (envelope, payload) = read_envelope(bytes)?;
        let tolerance = *expected.get_or_insert(envelope.tolerance);
        if envelope.tolerance != tolerance {
            return Err(DecodeError::PlanMismatch {
                expected: tolerance.name(),
                found: envelope.tolerance.name(),
            });
        }
        if envelope.shard as usize != i || envelope.shard_count as usize != encoded.len() {
            return Err(DecodeError::Corrupt { context: "shard buffers out of order or missing" });
        }
        payloads.push(payload);
    }
    Ok(payloads)
}

/// Validate a checkpoint against the plan a caller wants to resume under,
/// returning the bare `Persist` payloads in shard order.
///
/// Rejects, with typed errors: a key-range checkpoint or a different
/// tolerance marker ([`DecodeError::PlanMismatch`] — an
/// approximate-tolerance checkpoint never resumes under an exact plan,
/// which would panic at session spawn for float structures), out-of-order
/// or missing shards, and a shard count disagreeing with the plan.
pub(crate) fn validate_envelopes<'a>(
    plan: &RoundRobin,
    encoded: &'a [Vec<u8>],
) -> Result<Vec<&'a [u8]>, DecodeError> {
    if !encoded.is_empty() && encoded.len() != plan.shards() {
        return Err(DecodeError::Corrupt { context: "shard count disagrees with the resume plan" });
    }
    checkpoint_payloads(encoded, Some(plan.tolerance()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_roundtrip_and_rejections() {
        let plan = RoundRobin::approximate(4);
        let mut buf = encode_envelope_header(&plan, 2);
        assert_eq!(buf.len(), ENVELOPE_HEADER_LEN);
        assert_eq!(buf[6], ROUND_ROBIN_TAG);
        assert!(buf[12..].iter().all(|&b| b == 0), "range words are written as zero");
        buf.extend_from_slice(b"payload");
        let (envelope, payload) = read_envelope(&buf).expect("roundtrip");
        assert_eq!(payload, b"payload");
        assert_eq!(envelope.tolerance, Tolerance::Approximate);
        assert_eq!(envelope.shard, 2);
        assert_eq!(envelope.shard_count, 4);

        // every truncation prefix is a typed error, never a panic
        for cut in 0..buf.len() {
            assert!(read_envelope(&buf[..cut]).is_err() || cut >= ENVELOPE_HEADER_LEN);
        }
        // bare Persist bytes are named as the wrong magic
        let mut bad = buf.clone();
        bad[0..4].copy_from_slice(b"LPSK");
        assert!(matches!(read_envelope(&bad), Err(DecodeError::BadMagic { .. })));
        // the retired key-range strategy is a plan mismatch
        let mut bad = buf.clone();
        bad[6] = KEY_RANGE_TAG;
        assert_eq!(
            read_envelope(&bad),
            Err(DecodeError::PlanMismatch { expected: "round_robin", found: "key_range" })
        );
        // unknown strategy tag
        let mut bad = buf.clone();
        bad[6] = 9;
        assert!(matches!(read_envelope(&bad), Err(DecodeError::Corrupt { .. })));
    }
}
