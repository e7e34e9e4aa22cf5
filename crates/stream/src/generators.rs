//! Workload generators for the experiments.
//!
//! The paper's algorithms are evaluated on synthetic turnstile streams. The
//! generators here cover the workloads of the experiments (see the README's
//! Experiments section):
//!
//! * frequency-vector workloads (uniform, Zipfian, sparse, signed/cancelling)
//!   used by the Lp sampler, heavy hitter, and norm-estimation experiments;
//! * duplicate-finding workloads: streams of letters of length `n+1`, `n−s`,
//!   and `n+s` over the alphabet `[n]` (Section 3 of the paper);
//! * adversarial "almost cancelled" workloads where nearly all mass
//!   disappears — the regime where insertion-only samplers break and the
//!   paper's samplers are required.
//!
//! Every generator is deterministic given a [`SeedSequence`], so experiments
//! are reproducible.

use lps_hash::SeedSequence;

use crate::update::{TurnstileModel, Update, UpdateStream};

/// A Zipfian (power-law) distribution over `[0, n)` with exponent `alpha`,
/// sampled by inverse-CDF lookup. Frequency of rank r is ∝ 1/(r+1)^alpha.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the distribution for `n` items with exponent `alpha >= 0`.
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n > 0);
        assert!(alpha >= 0.0);
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = *cdf.last().unwrap();
        for c in cdf.iter_mut() {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Sample a rank according to the distribution.
    pub fn sample(&self, seeds: &mut SeedSequence) -> u64 {
        let u = (seeds.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => i as u64,
            Err(i) => i.min(self.cdf.len() - 1) as u64,
        }
    }

    /// Probability mass of rank `r`.
    pub fn pmf(&self, r: u64) -> f64 {
        let hi = self.cdf[r as usize];
        let lo = if r == 0 { 0.0 } else { self.cdf[r as usize - 1] };
        hi - lo
    }
}

/// Insert-only stream whose final vector has Zipfian frequencies: `length`
/// unit insertions with item ranks drawn Zipf(alpha), ranks mapped to indices
/// by a random permutation so heavy items are spread over `[0, n)`.
pub fn zipf_stream(n: u64, length: usize, alpha: f64, seeds: &mut SeedSequence) -> UpdateStream {
    let zipf = Zipf::new(n, alpha);
    let perm = random_permutation(n, seeds);
    // positive updates only, but tagged General so callers can append corrections
    let mut s = UpdateStream::new(n, TurnstileModel::General);
    for _ in 0..length {
        let rank = zipf.sample(seeds);
        s.push_insert(perm[rank as usize]);
    }
    s
}

/// Uniform insert-only stream: `length` unit insertions at uniform indices.
pub fn uniform_stream(n: u64, length: usize, seeds: &mut SeedSequence) -> UpdateStream {
    // positive updates only, but tagged General so callers can append corrections
    let mut s = UpdateStream::new(n, TurnstileModel::General);
    for _ in 0..length {
        s.push_insert(seeds.next_below(n));
    }
    s
}

/// A sparse vector workload: exactly `support_size` random coordinates get a
/// random non-zero value in `[-max_value, max_value] \ {0}`, delivered as one
/// update per coordinate, in random order.
pub fn sparse_vector_stream(
    n: u64,
    support_size: u64,
    max_value: i64,
    seeds: &mut SeedSequence,
) -> UpdateStream {
    assert!(support_size <= n);
    assert!(max_value >= 1);
    let support = sample_distinct(n, support_size, seeds);
    let mut s = UpdateStream::new(n, TurnstileModel::General);
    for idx in support {
        let magnitude = 1 + seeds.next_below(max_value as u64) as i64;
        let sign = if seeds.next_u64() & 1 == 1 { 1 } else { -1 };
        s.push(Update::new(idx, sign * magnitude));
    }
    s
}

/// A general-turnstile stream with mixed signed updates whose final vector has
/// `support_size` non-zero coordinates but whose intermediate states churn:
/// every surviving coordinate receives its mass split into `churn` updates
/// interleaved with insert-then-delete noise on other coordinates.
pub fn signed_churn_stream(
    n: u64,
    support_size: u64,
    max_value: i64,
    churn: usize,
    seeds: &mut SeedSequence,
) -> UpdateStream {
    assert!(support_size <= n);
    let base = sparse_vector_stream(n, support_size, max_value, seeds);
    let mut updates = Vec::new();
    for u in base.iter() {
        // split the final value into `churn` signed pieces that sum to it
        let pieces = churn.max(1);
        let mut emitted = 0i64;
        for c in 0..pieces {
            let last = c + 1 == pieces;
            let piece = if last {
                u.delta - emitted
            } else {
                let magnitude = 1 + seeds.next_below(max_value as u64) as i64;
                if seeds.next_u64() & 1 == 1 {
                    magnitude
                } else {
                    -magnitude
                }
            };
            emitted += piece;
            if piece != 0 {
                updates.push(Update::new(u.index, piece));
            }
        }
        // pure noise on a random other coordinate: +v then -v
        let noise_idx = seeds.next_below(n);
        let v = 1 + seeds.next_below(max_value as u64) as i64;
        updates.push(Update::new(noise_idx, v));
        updates.push(Update::new(noise_idx, -v));
    }
    // Shuffle deterministically, then append exact corrections so that the
    // noise still cancels (shuffling keeps multiset, so totals are unchanged).
    shuffle(&mut updates, seeds);
    UpdateStream::from_updates(n, TurnstileModel::General, updates)
}

/// An adversarial "almost cancelled" workload: a heavy uniform prefix of
/// insertions is almost entirely deleted again, leaving a small planted
/// residual vector. Insertion-time samplers are fooled by the prefix; correct
/// turnstile Lp samplers must track only the residual.
pub fn almost_cancelled_stream(
    n: u64,
    bulk: usize,
    residual_support: u64,
    seeds: &mut SeedSequence,
) -> UpdateStream {
    let mut s = UpdateStream::new(n, TurnstileModel::General);
    let mut inserted = Vec::with_capacity(bulk);
    for _ in 0..bulk {
        let i = seeds.next_below(n);
        s.push_insert(i);
        inserted.push(i);
    }
    // delete the bulk again, in a different order
    shuffle(&mut inserted, seeds);
    for i in inserted {
        s.push_delete(i);
    }
    // plant the residual
    let support = sample_distinct(n, residual_support, seeds);
    for idx in support {
        let v = 1 + seeds.next_below(8) as i64;
        s.push(Update::new(idx, v));
    }
    s
}

/// Duplicate-finding workload of length `n + 1` over the alphabet `[n]`
/// (Theorem 3 setting): a uniformly random sequence where `duplicate_count`
/// letters are planted twice and the rest appear at most once. By the
/// pigeonhole principle at least one duplicate always exists; we plant at
/// least one explicitly so the ground truth is known.
///
/// Returns the stream of letters (as unit insertions) and the sorted list of
/// letters that genuinely appear at least twice.
pub fn duplicate_stream_n_plus_1(
    n: u64,
    duplicate_count: u64,
    seeds: &mut SeedSequence,
) -> (UpdateStream, Vec<u64>) {
    assert!(n >= 2);
    let dups = duplicate_count.clamp(1, n / 2);
    // choose 2*dups... we need total length n+1: `dups` letters twice, and
    // n+1-2*dups letters once, all distinct.
    let once = (n + 1).saturating_sub(2 * dups);
    let distinct_needed = dups + once;
    assert!(distinct_needed <= n, "too few distinct letters for requested duplicates");
    let letters = sample_distinct(n, distinct_needed, seeds);
    let (dup_letters, single_letters) = letters.split_at(dups as usize);
    let mut seq: Vec<u64> = Vec::with_capacity((n + 1) as usize);
    for &d in dup_letters {
        seq.push(d);
        seq.push(d);
    }
    seq.extend_from_slice(single_letters);
    shuffle(&mut seq, seeds);
    let mut s = UpdateStream::new(n, TurnstileModel::InsertionOnly);
    for &letter in &seq {
        s.push_insert(letter);
    }
    let mut dup_sorted = dup_letters.to_vec();
    dup_sorted.sort_unstable();
    (s, dup_sorted)
}

/// Duplicate-finding workload of length `n - s` over `[n]` (Theorem 4
/// setting). If `duplicate_count == 0` the stream is a sequence of distinct
/// letters (the NO-DUPLICATE case); otherwise `duplicate_count` letters are
/// planted twice. Returns the stream and the sorted duplicates.
pub fn duplicate_stream_n_minus_s(
    n: u64,
    s: u64,
    duplicate_count: u64,
    seeds: &mut SeedSequence,
) -> (UpdateStream, Vec<u64>) {
    assert!(s < n, "stream length n - s must be positive");
    let length = n - s;
    assert!(2 * duplicate_count <= length, "too many duplicates for stream length");
    let once = length - 2 * duplicate_count;
    let distinct_needed = duplicate_count + once;
    assert!(distinct_needed <= n);
    let letters = sample_distinct(n, distinct_needed, seeds);
    let (dup_letters, single_letters) = letters.split_at(duplicate_count as usize);
    let mut seq: Vec<u64> = Vec::with_capacity(length as usize);
    for &d in dup_letters {
        seq.push(d);
        seq.push(d);
    }
    seq.extend_from_slice(single_letters);
    shuffle(&mut seq, seeds);
    let mut stream = UpdateStream::new(n, TurnstileModel::InsertionOnly);
    for &letter in &seq {
        stream.push_insert(letter);
    }
    let mut dup_sorted = dup_letters.to_vec();
    dup_sorted.sort_unstable();
    (stream, dup_sorted)
}

/// Duplicate-finding workload of length `n + s` over `[n]` (the oversampled
/// case at the end of Section 3). Uniformly random letters; the ground-truth
/// duplicates are computed exactly.
pub fn duplicate_stream_n_plus_s(
    n: u64,
    s: u64,
    seeds: &mut SeedSequence,
) -> (UpdateStream, Vec<u64>) {
    let length = n + s;
    let mut counts = vec![0u64; n as usize];
    let mut stream = UpdateStream::new(n, TurnstileModel::InsertionOnly);
    for _ in 0..length {
        let letter = seeds.next_below(n);
        counts[letter as usize] += 1;
        stream.push_insert(letter);
    }
    let dups = counts.iter().enumerate().filter(|(_, &c)| c >= 2).map(|(i, _)| i as u64).collect();
    (stream, dups)
}

/// 0/±1 vector workload used by the lower-bound discussion (Theorem 8): each
/// of the `n` coordinates independently becomes −1, 0 or +1 with the given
/// probabilities, delivered as single updates in random order.
pub fn pm_one_vector_stream(
    n: u64,
    p_plus: f64,
    p_minus: f64,
    seeds: &mut SeedSequence,
) -> UpdateStream {
    assert!(p_plus >= 0.0 && p_minus >= 0.0 && p_plus + p_minus <= 1.0);
    let mut updates = Vec::new();
    for i in 0..n {
        let u = (seeds.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if u < p_plus {
            updates.push(Update::new(i, 1));
        } else if u < p_plus + p_minus {
            updates.push(Update::new(i, -1));
        }
    }
    shuffle(&mut updates, seeds);
    UpdateStream::from_updates(n, TurnstileModel::General, updates)
}

/// Sample `k` distinct values from `[0, n)` (Floyd's algorithm), in random order.
pub fn sample_distinct(n: u64, k: u64, seeds: &mut SeedSequence) -> Vec<u64> {
    assert!(k <= n);
    let mut chosen = std::collections::HashSet::with_capacity(k as usize);
    let mut out = Vec::with_capacity(k as usize);
    for j in (n - k)..n {
        let t = seeds.next_below(j + 1);
        let v = if chosen.contains(&t) { j } else { t };
        chosen.insert(v);
        out.push(v);
    }
    shuffle(&mut out, seeds);
    out
}

/// A uniformly random permutation of `[0, n)`.
pub fn random_permutation(n: u64, seeds: &mut SeedSequence) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n).collect();
    shuffle(&mut v, seeds);
    v
}

/// Fisher–Yates shuffle driven by a [`SeedSequence`].
pub fn shuffle<T>(items: &mut [T], seeds: &mut SeedSequence) {
    let len = items.len();
    for i in (1..len).rev() {
        let j = seeds.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::TruthVector;

    fn seq(seed: u64) -> SeedSequence {
        SeedSequence::new(seed)
    }

    #[test]
    fn zipf_pmf_is_decreasing_and_normalised() {
        let z = Zipf::new(100, 1.1);
        let total: f64 = (0..100).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for r in 1..100 {
            assert!(z.pmf(r) <= z.pmf(r - 1) + 1e-12);
        }
    }

    #[test]
    fn zipf_stream_heavier_head() {
        let mut s = seq(1);
        let stream = zipf_stream(1000, 20_000, 1.2, &mut s);
        let v = TruthVector::from_stream(&stream);
        assert_eq!(v.sum(), 20_000);
        // the single heaviest coordinate should hold a macroscopic share
        let max = v.max_abs();
        assert!(max as f64 > 0.05 * 20_000.0, "head not heavy enough: {max}");
    }

    #[test]
    fn uniform_stream_covers_range() {
        let mut s = seq(2);
        let stream = uniform_stream(50, 5000, &mut s);
        let v = TruthVector::from_stream(&stream);
        assert_eq!(v.sum(), 5000);
        assert!(v.l0() > 45, "nearly all coordinates should be hit");
    }

    #[test]
    fn sparse_vector_stream_has_exact_support() {
        let mut s = seq(3);
        let stream = sparse_vector_stream(1000, 17, 50, &mut s);
        let v = TruthVector::from_stream(&stream);
        assert_eq!(v.l0(), 17);
        assert!(v.max_abs() <= 50);
    }

    #[test]
    fn signed_churn_stream_preserves_final_vector_support() {
        let mut s = seq(4);
        let stream = signed_churn_stream(500, 12, 20, 3, &mut s);
        let v = TruthVector::from_stream(&stream);
        // noise cancels, churn pieces sum to the planted values
        assert!(v.l0() <= 12, "support too large: {}", v.l0());
        assert!(v.l0() >= 1);
    }

    #[test]
    fn almost_cancelled_stream_leaves_only_residual() {
        let mut s = seq(5);
        let stream = almost_cancelled_stream(2000, 10_000, 5, &mut s);
        let v = TruthVector::from_stream(&stream);
        assert!(v.l0() <= 5);
        assert!(v.l0() >= 1);
        assert!(v.positive_mass() > 0);
    }

    #[test]
    fn duplicate_stream_n_plus_1_properties() {
        let mut s = seq(6);
        let (stream, dups) = duplicate_stream_n_plus_1(1000, 3, &mut s);
        assert_eq!(stream.len() as u64, 1001);
        assert_eq!(dups.len(), 3);
        let v = TruthVector::from_stream(&stream);
        for &d in &dups {
            assert_eq!(v.get(d), 2, "planted duplicate must appear twice");
        }
        // no letter appears more than twice by construction
        assert!(v.values().iter().all(|&c| c <= 2));
    }

    #[test]
    fn duplicate_stream_n_minus_s_no_duplicates_case() {
        let mut s = seq(7);
        let (stream, dups) = duplicate_stream_n_minus_s(512, 100, 0, &mut s);
        assert_eq!(stream.len() as u64, 412);
        assert!(dups.is_empty());
        let v = TruthVector::from_stream(&stream);
        assert!(v.values().iter().all(|&c| c <= 1));
    }

    #[test]
    fn duplicate_stream_n_minus_s_with_duplicates() {
        let mut s = seq(8);
        let (stream, dups) = duplicate_stream_n_minus_s(512, 50, 4, &mut s);
        assert_eq!(stream.len() as u64, 462);
        assert_eq!(dups.len(), 4);
        let v = TruthVector::from_stream(&stream);
        for &d in &dups {
            assert_eq!(v.get(d), 2);
        }
    }

    #[test]
    fn duplicate_stream_n_plus_s_ground_truth_correct() {
        let mut s = seq(9);
        let (stream, dups) = duplicate_stream_n_plus_s(256, 64, &mut s);
        assert_eq!(stream.len() as u64, 320);
        let v = TruthVector::from_stream(&stream);
        let expected: Vec<u64> = (0..256).filter(|&i| v.get(i) >= 2).collect();
        assert_eq!(dups, expected);
        assert!(!dups.is_empty(), "with s=n/4 duplicates exist with overwhelming probability");
    }

    #[test]
    fn pm_one_vector_stream_values() {
        let mut s = seq(10);
        let stream = pm_one_vector_stream(2000, 0.3, 0.3, &mut s);
        let v = TruthVector::from_stream(&stream);
        assert!(v.values().iter().all(|&c| c == -1 || c == 0 || c == 1));
        let nonzero = v.l0() as f64 / 2000.0;
        assert!((nonzero - 0.6).abs() < 0.06);
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        let mut s = seq(11);
        let sample = sample_distinct(100, 40, &mut s);
        assert_eq!(sample.len(), 40);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 40);
        assert!(sample.iter().all(|&v| v < 100));
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut s = seq(12);
        let mut p = random_permutation(64, &mut s);
        p.sort_unstable();
        assert_eq!(p, (0..64).collect::<Vec<_>>());
    }
}
