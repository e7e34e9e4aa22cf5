//! The universal relation communication problem UR^n (Section 4.1).
//!
//! Alice holds `x ∈ {0,1}^n`, Bob holds `y ∈ {0,1}^n`, with the promise
//! `x ≠ y`; after the messages are exchanged the last receiver must name an
//! index where the strings differ.
//!
//! Proposition 5 of the paper gives a one-round randomized protocol with
//! `O(log² n log(1/δ))` bits: Alice runs the L0 sampler of Theorem 2 on her
//! string (as +1 updates), sends its memory state, and Bob continues the same
//! sampler with −1 updates for his string; the sampler then L0-samples
//! `x − y`, i.e. returns a (uniformly random) differing index. Theorem 6
//! shows this is optimal up to the `log(1/δ)` factor.
//!
//! For comparison we also provide the trivial deterministic protocol (Alice
//! sends all of `x`, n bits — essentially optimal deterministically by
//! Tardos–Zwick), and the Lemma 7 symmetrisation wrapper that makes any
//! protocol output each differing index with equal probability.

use lps_core::{L0Sampler, LpSampler};
use lps_hash::SeedSequence;
use lps_stream::{random_permutation, SpaceUsage, Update};

/// An instance of the universal relation: two distinct bit strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UrInstance {
    /// Alice's string.
    pub x: Vec<bool>,
    /// Bob's string.
    pub y: Vec<bool>,
}

impl UrInstance {
    /// Create an instance, checking the promise `x ≠ y`.
    pub fn new(x: Vec<bool>, y: Vec<bool>) -> Self {
        assert_eq!(x.len(), y.len(), "strings must have equal length");
        assert!(x != y, "the universal relation requires x != y");
        UrInstance { x, y }
    }

    /// A random instance over `n` bits with exactly `differences ≥ 1`
    /// uniformly placed differing positions.
    pub fn random(n: u64, differences: u64, seeds: &mut SeedSequence) -> Self {
        assert!(differences >= 1 && differences <= n);
        let x: Vec<bool> = (0..n).map(|_| seeds.next_u64() & 1 == 1).collect();
        let mut y = x.clone();
        let positions = lps_stream::sample_distinct(n, differences, seeds);
        for p in positions {
            y[p as usize] = !y[p as usize];
        }
        UrInstance { x, y }
    }

    /// Dimension n.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True if the strings are empty (never for valid instances).
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// The set of indices where x and y differ.
    pub fn differing_indices(&self) -> Vec<u64> {
        self.x
            .iter()
            .zip(self.y.iter())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// Check a protocol answer.
    pub fn is_valid_answer(&self, index: u64) -> bool {
        let i = index as usize;
        i < self.x.len() && self.x[i] != self.y[i]
    }
}

/// The outcome of running a UR protocol: the answer (if any) and the number
/// of message bits exchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UrOutcome {
    /// The index the protocol output, or `None` if it failed.
    pub answer: Option<u64>,
    /// Total bits communicated (for the one-round sketch protocol this is the
    /// streaming memory state Alice hands to Bob, in the paper's bit model).
    pub message_bits: u64,
}

/// The one-round randomized protocol of Proposition 5, built on the Theorem 2
/// L0 sampler.
#[derive(Debug, Clone)]
pub struct UrSketchProtocol {
    delta: f64,
}

impl UrSketchProtocol {
    /// Create a protocol with failure probability ≤ δ.
    pub fn new(delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0);
        UrSketchProtocol { delta }
    }

    /// Run the protocol on an instance with shared randomness from `seeds`.
    pub fn run(&self, instance: &UrInstance, seeds: &mut SeedSequence) -> UrOutcome {
        let n = instance.len() as u64;
        // Shared randomness: both parties construct the same sampler seeds.
        let mut shared = seeds.split();
        // Alice's side: feed +x.
        let mut sampler = L0Sampler::new(n, self.delta, &mut shared);
        for (i, &bit) in instance.x.iter().enumerate() {
            if bit {
                sampler.process_update(Update::new(i as u64, 1));
            }
        }
        // The message is the sampler's memory state (bit-model accounted).
        let message_bits = sampler.bits_used();
        // Bob's side: continue the same linear sketches with −y.
        for (i, &bit) in instance.y.iter().enumerate() {
            if bit {
                sampler.process_update(Update::new(i as u64, -1));
            }
        }
        let answer = sampler.sample().map(|s| s.index);
        UrOutcome { answer, message_bits }
    }
}

/// The trivial deterministic one-round protocol: Alice sends her whole
/// string (n bits). Tardos–Zwick show n ± O(log n) bits is what deterministic
/// protocols need, so this is the right deterministic yardstick.
pub fn ur_deterministic_protocol(instance: &UrInstance) -> UrOutcome {
    let answer =
        instance.x.iter().zip(instance.y.iter()).position(|(a, b)| a != b).map(|i| i as u64);
    UrOutcome { answer, message_bits: instance.len() as u64 }
}

/// Lemma 7 symmetrisation: run a protocol on a uniformly permuted and
/// XOR-masked instance so that every differing index is reported with the
/// same probability. The transformation uses only shared randomness and does
/// not change the message length.
pub fn run_symmetrised<F>(instance: &UrInstance, seeds: &mut SeedSequence, protocol: F) -> UrOutcome
where
    F: Fn(&UrInstance, &mut SeedSequence) -> UrOutcome,
{
    let n = instance.len() as u64;
    let perm = random_permutation(n, seeds);
    let mask: Vec<bool> = (0..n).map(|_| seeds.next_u64() & 1 == 1).collect();
    // inverse permutation to map the answer back
    let mut inv = vec![0u64; n as usize];
    for (dst, &src) in perm.iter().enumerate() {
        inv[src as usize] = dst as u64;
    }
    // permuted-and-masked inputs: x'[j] = x[perm[j]] ^ mask[j]
    let xp: Vec<bool> = (0..n as usize).map(|j| instance.x[perm[j] as usize] ^ mask[j]).collect();
    let yp: Vec<bool> = (0..n as usize).map(|j| instance.y[perm[j] as usize] ^ mask[j]).collect();
    let permuted = UrInstance { x: xp, y: yp };
    let outcome = protocol(&permuted, seeds);
    UrOutcome {
        answer: outcome.answer.map(|j| perm[j as usize]),
        message_bits: outcome.message_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_stream::EmpiricalDistribution;

    #[test]
    fn instance_construction_and_checks() {
        let inst = UrInstance::new(vec![true, false, true], vec![true, true, true]);
        assert_eq!(inst.differing_indices(), vec![1]);
        assert!(inst.is_valid_answer(1));
        assert!(!inst.is_valid_answer(0));
        assert!(!inst.is_valid_answer(5));
    }

    #[test]
    #[should_panic]
    fn equal_strings_rejected() {
        let _ = UrInstance::new(vec![true], vec![true]);
    }

    #[test]
    fn random_instances_have_requested_differences() {
        let mut seeds = SeedSequence::new(1);
        for d in [1u64, 3, 17] {
            let inst = UrInstance::random(128, d, &mut seeds);
            assert_eq!(inst.differing_indices().len() as u64, d);
        }
    }

    #[test]
    fn deterministic_protocol_always_correct() {
        let mut seeds = SeedSequence::new(2);
        for _ in 0..20 {
            let inst = UrInstance::random(64, 5, &mut seeds);
            let out = ur_deterministic_protocol(&inst);
            assert_eq!(out.message_bits, 64);
            assert!(inst.is_valid_answer(out.answer.unwrap()));
        }
    }

    #[test]
    fn sketch_protocol_is_correct_with_good_probability() {
        let mut seeds = SeedSequence::new(3);
        let protocol = UrSketchProtocol::new(0.2);
        let trials = 40;
        let mut correct = 0;
        let mut wrong = 0;
        for t in 0..trials {
            let inst = UrInstance::random(256, 1 + (t % 7), &mut seeds);
            let out = protocol.run(&inst, &mut seeds);
            match out.answer {
                Some(i) if inst.is_valid_answer(i) => correct += 1,
                Some(_) => wrong += 1,
                None => {}
            }
            assert!(out.message_bits > 0);
        }
        assert_eq!(wrong, 0, "the protocol must never output a non-differing index");
        assert!(correct >= 30, "only {correct}/{trials} correct");
    }

    #[test]
    fn sketch_protocol_message_grows_slowly_with_n() {
        let mut seeds = SeedSequence::new(4);
        let protocol = UrSketchProtocol::new(0.25);
        let small_n = 1u64 << 8;
        let large_n = 1u64 << 12;
        let small = protocol.run(&UrInstance::random(small_n, 3, &mut seeds), &mut seeds);
        let large = protocol.run(&UrInstance::random(large_n, 3, &mut seeds), &mut seeds);
        let ratio = large.message_bits as f64 / small.message_bits as f64;
        // n grew by 16x; a log^2 n message grows by roughly (12/8)^2 = 2.25x
        assert!(ratio < 4.0, "message growth {ratio:.2} is too fast for a polylog protocol");
        // Relative to the deterministic n-bit protocol the sketch message must
        // shrink as n grows (polylog vs linear); the absolute crossover happens
        // at larger n than a unit test can afford (experiment E9, see the
        // README's Experiments section).
        let small_overhead = small.message_bits as f64 / small_n as f64;
        let large_overhead = large.message_bits as f64 / large_n as f64;
        assert!(
            large_overhead < 0.5 * small_overhead,
            "message/n should fall: {small_overhead:.1} -> {large_overhead:.1}"
        );
    }

    #[test]
    fn symmetrised_protocol_outputs_each_difference_roughly_uniformly() {
        // Use the deterministic protocol (which always reports the *first*
        // difference) and check that Lemma 7's wrapper flattens that bias.
        let mut seeds = SeedSequence::new(5);
        let inst = UrInstance::random(64, 4, &mut seeds);
        let diffs = inst.differing_indices();
        let mut empirical = EmpiricalDistribution::new(64);
        let trials = 4000;
        for _ in 0..trials {
            let out = run_symmetrised(&inst, &mut seeds, |i, _| ur_deterministic_protocol(i));
            let a = out.answer.unwrap();
            assert!(inst.is_valid_answer(a));
            empirical.record(a);
        }
        let expected = 1.0 / diffs.len() as f64;
        for &d in &diffs {
            let freq = empirical.probability(d);
            assert!(
                (freq - expected).abs() < 0.05,
                "difference {d} reported with frequency {freq}, expected {expected}"
            );
        }
    }
}
