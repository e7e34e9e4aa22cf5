//! Shard-partitioning strategies and the plan-aware checkpoint envelope.
//!
//! The engine's linearity identity `sketch(A ++ B) = merge(sketch(A),
//! sketch(B))` holds for *any* partition of the update stream across
//! identically-seeded shards, which leaves the partitioning policy a free
//! choice. This module makes that choice a first-class [`ShardPlan`]
//! strategy with two implementations:
//!
//! * [`RoundRobin`] — deal dispatch batches to the workers in rotation.
//!   Every shard sees a uniform slice of the whole stream, so load balances
//!   for free, but every shard's working set spans the full coordinate
//!   space. Shard states recombine by addition ([`Mergeable::merge_from`]).
//! * [`KeyRange`] — partition the coordinate space `[0, n)` into contiguous
//!   ranges, one [`ShardIngest::restrict_domain`] structure per range, and
//!   route each update to the shard owning its coordinate. A shard's
//!   working set is confined to the cells its own range hashes to (smaller
//!   effective footprint per shard, at the cost of key-skew sensitivity).
//!   Shard supports are disjoint, so states recombine by disjoint union
//!   ([`ShardIngest::merge_disjoint`]) — bit-identical to addition for the
//!   exact-arithmetic structures, but able to skip state the sibling never
//!   touched.
//!
//! Either strategy carries a [`Tolerance`] marker. `Tolerance::Exact` (the
//! default) restricts the plan to structures whose shard merges are
//! bit-exact; `Tolerance::Approximate` is the explicit opt-in required to
//! drive the floating-point structures (p-stable, precision/AKO samplers,
//! both heavy-hitter drivers), whose merges reassociate `f64` sums and are
//! therefore linear only up to the documented `~2kε` drift bound (Kahan
//! compensation keeps each shard's sums exact to `O(ε)`; only the k-way
//! merge reassociates).
//!
//! Checkpoints are stamped with the plan that produced them: every shard
//! buffer starts with a fixed-size envelope (magic, version, strategy tag,
//! tolerance, shard index/count, owned key range) ahead of the `Persist`
//! payload, so a key-range checkpoint can never be silently resumed — or
//! merged — as round-robin (`DecodeError::PlanMismatch`).

use std::ops::Range;

use lps_sketch::{DecodeError, Mergeable};
use lps_stream::Update;

use crate::ShardIngest;

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

/// Which [`ShardPlan`] strategy produced a checkpoint; stamped into every
/// shard envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStrategy {
    /// [`RoundRobin`]: replicated shards, dispatch batches dealt in rotation.
    RoundRobin,
    /// [`KeyRange`]: contiguous coordinate ranges, one shard per range.
    KeyRange,
}

impl PlanStrategy {
    /// The wire tag stamped into checkpoint envelopes.
    pub fn tag(self) -> u8 {
        match self {
            PlanStrategy::RoundRobin => 0,
            PlanStrategy::KeyRange => 1,
        }
    }

    /// Decode a wire tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(PlanStrategy::RoundRobin),
            1 => Some(PlanStrategy::KeyRange),
            _ => None,
        }
    }

    /// Human-readable strategy name (used by [`DecodeError::PlanMismatch`]
    /// and the bench artifact).
    pub fn name(self) -> &'static str {
        match self {
            PlanStrategy::RoundRobin => "round_robin",
            PlanStrategy::KeyRange => "key_range",
        }
    }
}

/// A shard-partitioning strategy: how per-shard states are built from the
/// prototype, which shard each update is routed to, and how the shard states
/// recombine into the sketch of the full stream.
///
/// Plans are cheap plain values (no threads, no channels); the
/// [`IngestSession`](crate::IngestSession) consults one for every routing
/// and merge decision, and stamps it into checkpoints.
pub trait ShardPlan: Clone + Send + 'static {
    /// The strategy this plan implements (stamped into checkpoints).
    const STRATEGY: PlanStrategy;

    /// Number of shards the plan partitions into.
    fn shards(&self) -> usize;

    /// The merge-fidelity class the caller opted into.
    fn tolerance(&self) -> Tolerance;

    /// Build the per-shard states (shard order) from a zero-state prototype.
    fn build_states<T: ShardIngest>(&self, prototype: &T) -> Vec<T>;

    /// The shard the next update must be staged on. Stateful plans (round
    /// robin) answer relative to their dispatch cursor; the session advances
    /// the cursor through [`ShardPlan::batch_sealed`].
    fn route(&mut self, update: &Update) -> usize;

    /// Notification that the session sealed a dispatch batch for `shard`.
    fn batch_sealed(&mut self, shard: usize);

    /// Recombine the shard states (shard order) into the final structure.
    fn merge_states<T: ShardIngest>(&self, states: Vec<T>) -> T;

    /// The key range shard `shard` owns, for plans that partition the
    /// coordinate space (`None` for replicated plans).
    fn shard_range(&self, shard: usize) -> Option<Range<u64>>;
}

/// Today's default strategy: identically-seeded full replicas, dispatch
/// batches dealt to the workers in rotation, additive tree merge.
#[derive(Debug, Clone)]
pub struct RoundRobin {
    shards: usize,
    tolerance: Tolerance,
    cursor: usize,
}

impl RoundRobin {
    /// An exact-tolerance round-robin plan over `shards` workers.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        RoundRobin { shards, tolerance: Tolerance::Exact, cursor: 0 }
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
}

impl ShardPlan for RoundRobin {
    const STRATEGY: PlanStrategy = PlanStrategy::RoundRobin;

    fn shards(&self) -> usize {
        self.shards
    }

    fn tolerance(&self) -> Tolerance {
        self.tolerance
    }

    fn build_states<T: ShardIngest>(&self, prototype: &T) -> Vec<T> {
        (0..self.shards).map(|_| prototype.clone()).collect()
    }

    fn route(&mut self, _update: &Update) -> usize {
        self.cursor
    }

    fn batch_sealed(&mut self, shard: usize) {
        if shard == self.cursor {
            self.cursor = (self.cursor + 1) % self.shards;
        }
    }

    fn merge_states<T: ShardIngest>(&self, states: Vec<T>) -> T {
        tree_merge_with(states, Mergeable::merge_from)
    }

    fn shard_range(&self, _shard: usize) -> Option<Range<u64>> {
        None
    }
}

/// Key-range partitioning: the coordinate space `[0, n)` is split into
/// contiguous ranges, one [`ShardIngest::restrict_domain`] structure per
/// range, updates are routed by coordinate, and the shard states recombine
/// by disjoint union ([`ShardIngest::merge_disjoint`]).
#[derive(Debug, Clone)]
pub struct KeyRange {
    /// `shards + 1` strictly increasing range boundaries; shard `i` owns
    /// `bounds[i]..bounds[i + 1]`.
    bounds: Vec<u64>,
    tolerance: Tolerance,
}

impl KeyRange {
    /// An exact-tolerance plan splitting `[0, dimension)` into `shards`
    /// near-equal contiguous ranges.
    pub fn new(dimension: u64, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            dimension >= shards as u64,
            "cannot split dimension {dimension} into {shards} non-empty ranges"
        );
        let (base, extra) = (dimension / shards as u64, dimension % shards as u64);
        let mut bounds = Vec::with_capacity(shards + 1);
        let mut edge = 0u64;
        bounds.push(edge);
        for i in 0..shards as u64 {
            edge += base + u64::from(i < extra);
            bounds.push(edge);
        }
        KeyRange { bounds, tolerance: Tolerance::Exact }
    }

    /// A key-range plan that opts into approximate (floating-point) shard
    /// merges, unlocking the float structures.
    pub fn approximate(dimension: u64, shards: usize) -> Self {
        KeyRange::new(dimension, shards).with_tolerance(Tolerance::Approximate)
    }

    /// A plan with explicit range boundaries: shard `i` owns
    /// `bounds[i]..bounds[i + 1]`. Boundaries must be strictly increasing
    /// with at least two entries; use this to match a known key skew.
    pub fn with_bounds(bounds: Vec<u64>) -> Self {
        assert!(bounds.len() >= 2, "need at least one range (two boundaries)");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "boundaries must strictly increase");
        KeyRange { bounds, tolerance: Tolerance::Exact }
    }

    /// Override the tolerance marker.
    pub fn with_tolerance(mut self, tolerance: Tolerance) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// The contiguous range shard `shard` owns.
    pub fn range(&self, shard: usize) -> Range<u64> {
        self.bounds[shard]..self.bounds[shard + 1]
    }

    /// The shard owning coordinate `index`.
    ///
    /// Coordinates outside the partitioned space are a caller error: debug
    /// builds assert, release builds **silently clamp** to the nearest shard
    /// (whose structure will then absorb an out-of-range update its stamped
    /// checkpoint range does not describe). Callers that cannot trust their
    /// input must range-check it before `offer`.
    pub fn owner(&self, index: u64) -> usize {
        debug_assert!(
            self.bounds[0] <= index && index < *self.bounds.last().expect("non-empty bounds"),
            "update index {index} outside the partitioned space"
        );
        (self.bounds.partition_point(|&b| b <= index).max(1) - 1).min(self.bounds.len() - 2)
    }
}

impl ShardPlan for KeyRange {
    const STRATEGY: PlanStrategy = PlanStrategy::KeyRange;

    fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    fn tolerance(&self) -> Tolerance {
        self.tolerance
    }

    fn build_states<T: ShardIngest>(&self, prototype: &T) -> Vec<T> {
        (0..self.shards()).map(|i| prototype.restrict_domain(self.range(i))).collect()
    }

    fn route(&mut self, update: &Update) -> usize {
        self.owner(update.index)
    }

    fn batch_sealed(&mut self, _shard: usize) {}

    fn merge_states<T: ShardIngest>(&self, states: Vec<T>) -> T {
        tree_merge_with(states, T::merge_disjoint)
    }

    fn shard_range(&self, shard: usize) -> Option<Range<u64>> {
        Some(self.range(shard))
    }
}

/// Deterministic binary tree merge over shard order (`(s0+s1) + (s2+s3)`,
/// …): `log₂ shards` combine rounds instead of a serial left fold, and a
/// fixed association so approximate (float) merges stay reproducible run to
/// run. Shared by every in-process and cross-process merge path.
pub(crate) fn tree_merge_with<T>(mut states: Vec<T>, mut combine: impl FnMut(&mut T, &T)) -> T {
    assert!(!states.is_empty(), "at least one shard");
    while states.len() > 1 {
        let mut next_round = Vec::with_capacity(states.len().div_ceil(2));
        let mut it = states.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                combine(&mut a, &b);
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
/// (1) + shard index (2) + shard count (2) + range lo (8) + range hi (8).
pub const ENVELOPE_HEADER_LEN: usize = 28;

/// The decoded plan envelope of one checkpoint shard buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanEnvelope {
    /// Strategy that produced the checkpoint.
    pub strategy: PlanStrategy,
    /// Tolerance marker the producing plan carried.
    pub tolerance: Tolerance,
    /// This buffer's shard index.
    pub shard: u16,
    /// Total shard count of the checkpoint.
    pub shard_count: u16,
    /// The key range this shard owned (`None` for replicated plans).
    pub range: Option<Range<u64>>,
}

/// Encode one shard's plan envelope header; the caller appends the
/// `Persist` payload directly into the returned buffer, skipping the extra
/// staging `Vec` (and full-payload memcpy) that encode-then-concatenate
/// would cost.
pub(crate) fn encode_envelope_header<P: ShardPlan>(plan: &P, shard: usize) -> Vec<u8> {
    assert!(plan.shards() <= u16::MAX as usize, "envelope stamps shard counts as u16");
    let mut out = Vec::with_capacity(ENVELOPE_HEADER_LEN);
    out.extend_from_slice(&ENVELOPE_MAGIC);
    out.extend_from_slice(&ENVELOPE_VERSION.to_le_bytes());
    out.push(P::STRATEGY.tag());
    out.push(match plan.tolerance() {
        Tolerance::Exact => 0,
        Tolerance::Approximate => 1,
    });
    out.extend_from_slice(&(shard as u16).to_le_bytes());
    out.extend_from_slice(&(plan.shards() as u16).to_le_bytes());
    let range = plan.shard_range(shard).unwrap_or(0..0);
    out.extend_from_slice(&range.start.to_le_bytes());
    out.extend_from_slice(&range.end.to_le_bytes());
    out
}

/// Split a checkpoint shard buffer into its decoded envelope and the
/// `Persist` payload that follows it. Total: every malformed input maps to
/// a typed [`DecodeError`], never a panic.
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
    let strategy = PlanStrategy::from_tag(bytes[6])
        .ok_or(DecodeError::Corrupt { context: "unknown shard-plan strategy tag" })?;
    let tolerance = match bytes[7] {
        0 => Tolerance::Exact,
        1 => Tolerance::Approximate,
        _ => return Err(DecodeError::Corrupt { context: "unknown tolerance marker" }),
    };
    let shard = u16::from_le_bytes([bytes[8], bytes[9]]);
    let shard_count = u16::from_le_bytes([bytes[10], bytes[11]]);
    let lo = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let hi = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    if shard_count == 0 || shard >= shard_count {
        return Err(DecodeError::Corrupt { context: "shard index outside the stamped count" });
    }
    let range = match strategy {
        PlanStrategy::RoundRobin => None,
        PlanStrategy::KeyRange => {
            if lo >= hi {
                return Err(DecodeError::Corrupt { context: "empty key range in envelope" });
            }
            Some(lo..hi)
        }
    };
    let envelope = PlanEnvelope { strategy, tolerance, shard, shard_count, range };
    Ok((envelope, &bytes[ENVELOPE_HEADER_LEN..]))
}

/// The envelope cross-validation shared by every consumer of a checkpoint
/// set ([`validate_envelopes`] for plan-driven resume,
/// `merge_checkpointed` for plan-less cross-process merging): strategy and
/// tolerance must match the expectation, and buffers must arrive complete
/// and in shard order.
pub(crate) fn check_envelope(
    envelope: &PlanEnvelope,
    strategy: PlanStrategy,
    tolerance: Tolerance,
    shard: usize,
    shard_count: usize,
) -> Result<(), DecodeError> {
    if envelope.strategy != strategy {
        return Err(DecodeError::PlanMismatch {
            expected: strategy.name(),
            found: envelope.strategy.name(),
        });
    }
    if envelope.tolerance != tolerance {
        return Err(DecodeError::PlanMismatch {
            expected: tolerance.name(),
            found: envelope.tolerance.name(),
        });
    }
    if envelope.shard as usize != shard || envelope.shard_count as usize != shard_count {
        return Err(DecodeError::Corrupt { context: "shard buffers out of order or missing" });
    }
    Ok(())
}

/// Validate a checkpoint against the plan a caller wants to resume (or
/// merge) under, returning the bare `Persist` payloads in shard order.
///
/// Rejects, with typed errors: a different strategy or tolerance marker
/// ([`DecodeError::PlanMismatch`] — a key-range checkpoint can never be
/// resumed round-robin, and an approximate-tolerance checkpoint never under
/// an exact plan, which would panic at session spawn for float structures),
/// out-of-order or missing shards, a shard count disagreeing with the plan,
/// and key-range bounds disagreeing with the plan's.
pub(crate) fn validate_envelopes<'a, P: ShardPlan>(
    plan: &P,
    encoded: &'a [Vec<u8>],
) -> Result<Vec<&'a [u8]>, DecodeError> {
    if encoded.is_empty() {
        return Err(DecodeError::Corrupt { context: "need at least one encoded shard" });
    }
    if encoded.len() != plan.shards() {
        return Err(DecodeError::Corrupt { context: "shard count disagrees with the resume plan" });
    }
    let mut payloads = Vec::with_capacity(encoded.len());
    for (i, bytes) in encoded.iter().enumerate() {
        let (envelope, payload) = read_envelope(bytes)?;
        check_envelope(&envelope, P::STRATEGY, plan.tolerance(), i, encoded.len())?;
        if envelope.range != plan.shard_range(i) {
            return Err(DecodeError::Corrupt {
                context: "checkpoint key ranges disagree with the resume plan",
            });
        }
        payloads.push(payload);
    }
    Ok(payloads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_range_splits_evenly_with_remainder_spread() {
        let plan = KeyRange::new(10, 3);
        assert_eq!(plan.shards(), 3);
        assert_eq!(plan.range(0), 0..4);
        assert_eq!(plan.range(1), 4..7);
        assert_eq!(plan.range(2), 7..10);
        for i in 0..10 {
            let owner = plan.owner(i);
            assert!(plan.range(owner).contains(&i), "index {i} routed to wrong shard {owner}");
        }
    }

    #[test]
    fn key_range_owner_covers_boundaries() {
        let plan = KeyRange::with_bounds(vec![0, 5, 6, 64]);
        assert_eq!(plan.owner(0), 0);
        assert_eq!(plan.owner(4), 0);
        assert_eq!(plan.owner(5), 1);
        assert_eq!(plan.owner(6), 2);
        assert_eq!(plan.owner(63), 2);
    }

    #[test]
    fn round_robin_cursor_advances_on_seal() {
        let mut plan = RoundRobin::new(3);
        let u = Update::new(0, 1);
        assert_eq!(plan.route(&u), 0);
        assert_eq!(plan.route(&u), 0, "cursor only moves on seal");
        plan.batch_sealed(0);
        assert_eq!(plan.route(&u), 1);
        plan.batch_sealed(1);
        plan.batch_sealed(2);
        assert_eq!(plan.route(&u), 0, "cursor wraps");
    }

    #[test]
    fn envelope_roundtrip_and_rejections() {
        let plan = KeyRange::approximate(100, 4);
        let mut buf = encode_envelope_header(&plan, 2);
        buf.extend_from_slice(b"payload");
        let (envelope, payload) = read_envelope(&buf).expect("roundtrip");
        assert_eq!(payload, b"payload");
        assert_eq!(envelope.strategy, PlanStrategy::KeyRange);
        assert_eq!(envelope.tolerance, Tolerance::Approximate);
        assert_eq!(envelope.shard, 2);
        assert_eq!(envelope.shard_count, 4);
        assert_eq!(envelope.range, Some(50..75));

        // every truncation prefix is a typed error, never a panic
        for cut in 0..buf.len() {
            assert!(read_envelope(&buf[..cut]).is_err() || cut >= ENVELOPE_HEADER_LEN);
        }
        // bare Persist bytes are named as the wrong magic
        let mut bad = buf.clone();
        bad[0..4].copy_from_slice(b"LPSK");
        assert!(matches!(read_envelope(&bad), Err(DecodeError::BadMagic { .. })));
        // unknown strategy tag
        let mut bad = buf.clone();
        bad[6] = 9;
        assert!(matches!(read_envelope(&bad), Err(DecodeError::Corrupt { .. })));
    }

    #[test]
    #[should_panic(expected = "non-empty ranges")]
    fn key_range_rejects_more_shards_than_keys() {
        let _ = KeyRange::new(3, 4);
    }
}
