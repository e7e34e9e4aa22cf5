//! Named, seeded, reusable stream generators.
//!
//! Every generator implements [`UpdateGenerator`]: an infinite turnstile
//! update source that is **deterministic from a single `u64` seed** and
//! **chunk-boundary independent** — drawing 10 updates then 90 yields the
//! same stream as drawing 100 at once, because all state advances per
//! update, never per chunk. Both laws are property-tested in
//! `tests/generator_laws.rs`.
//!
//! The three named distributions target distinct stress axes of the
//! sampler stack:
//!
//! | kind         | stresses                                              |
//! |--------------|-------------------------------------------------------|
//! | `uniform`    | baseline: even hash-bucket occupancy                  |
//! | `zipf`       | heavy hitters crowding CountSketch rows               |
//! | `turnstile`  | deletion-heavy phases dipping the live mass near zero |

use lps_hash::SeedSequence;
use lps_stream::generators::Zipf;
use lps_stream::Update;

/// The named update distribution a generator draws from. Every generator
/// is deterministic from a single seed and chunk-boundary independent.
#[derive(Debug, Clone, PartialEq)]
pub enum GeneratorSpec {
    /// Uniform keys, insert-biased signed unit-ish deltas.
    Uniform,
    /// Zipf-skewed keys with exponent `alpha`.
    Zipf {
        /// Skew exponent (`> 0`; higher is more skewed).
        alpha: f64,
    },
    /// Deletion-heavy turnstile phases: grow, then drain the live mass
    /// back to near zero, repeatedly.
    Turnstile {
        /// When true, no coordinate ever goes below zero (the strict
        /// turnstile model); when false, occasional blind deletes may
        /// drive coordinates negative (general model).
        strict: bool,
    },
}

/// An infinite, seeded source of turnstile updates.
pub trait UpdateGenerator: Send {
    /// Draw the next update. Implementations advance their internal state
    /// exactly once per call, which is what makes the stream independent
    /// of how callers chunk their draws.
    fn next_update(&mut self) -> Update;

    /// Fill `out` by repeated [`next_update`](Self::next_update) calls.
    fn fill(&mut self, out: &mut [Update]) {
        for slot in out.iter_mut() {
            *slot = self.next_update();
        }
    }
}

/// Construct the generator a spec names over `[0, dimension)`, derived from
/// the given seed.
pub fn build_generator(
    spec: &GeneratorSpec,
    dimension: u64,
    seed: u64,
) -> Box<dyn UpdateGenerator> {
    match *spec {
        GeneratorSpec::Uniform => Box::new(UniformGen::new(dimension, seed)),
        GeneratorSpec::Zipf { alpha } => Box::new(ZipfGen::new(dimension, alpha, seed)),
        GeneratorSpec::Turnstile { strict } => Box::new(TurnstileGen::new(dimension, strict, seed)),
    }
}

/// Insert-biased signed delta: ~70% inserts, magnitudes 1 or 2.
fn mixed_delta(seeds: &mut SeedSequence) -> i64 {
    let r = seeds.next_below(10);
    let magnitude = 1 + (r & 1) as i64;
    if r < 7 {
        magnitude
    } else {
        -magnitude
    }
}

/// Uniform keys over `[0, n)` with insert-biased unit-ish deltas.
pub struct UniformGen {
    n: u64,
    seeds: SeedSequence,
}

impl UniformGen {
    /// Uniform generator over `[0, n)`.
    pub fn new(n: u64, seed: u64) -> Self {
        UniformGen { n, seeds: SeedSequence::new(seed) }
    }
}

impl UpdateGenerator for UniformGen {
    fn next_update(&mut self) -> Update {
        let index = self.seeds.next_below(self.n);
        let delta = mixed_delta(&mut self.seeds);
        Update { index, delta }
    }
}

/// Zipf-skewed keys: rank `r` is drawn with probability ∝ `1/(r+1)^alpha`
/// and used directly as the coordinate, so low indices are heavy hitters.
pub struct ZipfGen {
    zipf: Zipf,
    seeds: SeedSequence,
}

impl ZipfGen {
    /// Zipf generator over `[0, n)` with exponent `alpha`.
    pub fn new(n: u64, alpha: f64, seed: u64) -> Self {
        // The inverse-CDF table is O(n); cap it so huge dimensions stay
        // cheap — ranks beyond the cap carry negligible Zipf mass anyway.
        let support = n.min(1 << 16);
        ZipfGen { zipf: Zipf::new(support, alpha), seeds: SeedSequence::new(seed) }
    }
}

impl UpdateGenerator for ZipfGen {
    fn next_update(&mut self) -> Update {
        let index = self.zipf.sample(&mut self.seeds);
        let delta = mixed_delta(&mut self.seeds);
        Update { index, delta }
    }
}

/// Deletion-heavy turnstile phases: grow the live mass to a high-water
/// mark, then drain it back until almost nothing survives, repeatedly.
/// This is the regime the paper's samplers must stay correct in — most
/// of what was inserted is deleted again, and answers hinge on the small
/// surviving support.
///
/// In `strict` mode deletions are only issued against coordinates with
/// positive counts (tracked exactly), so **no coordinate ever dips below
/// zero** — the strict turnstile model. Non-strict mode occasionally
/// deletes a uniformly random coordinate, permitting negative counts
/// (the general model).
pub struct TurnstileGen {
    n: u64,
    strict: bool,
    seeds: SeedSequence,
    /// Total live mass (sum of positive counts), driving the phase.
    mass: u64,
    /// True while inserting toward the high-water mark.
    growing: bool,
    /// Coordinates with count > 0, for O(1) deletion draws.
    live: Vec<u64>,
    /// `counts[i]` = current count of coordinate `live[position[i]]`;
    /// parallel to `live`.
    counts: Vec<u64>,
    /// Coordinate -> position in `live` (dense; sized `n`). u32::MAX
    /// sentinel = absent.
    position: Vec<u32>,
    high_water: u64,
    low_water: u64,
}

const ABSENT: u32 = u32::MAX;

impl TurnstileGen {
    /// Turnstile generator over `[0, n)`.
    pub fn new(n: u64, strict: bool, seed: u64) -> Self {
        let high_water = 768.min(4 * n).max(8);
        TurnstileGen {
            n,
            strict,
            seeds: SeedSequence::new(seed),
            mass: 0,
            growing: true,
            live: Vec::new(),
            counts: Vec::new(),
            position: vec![ABSENT; n as usize],
            high_water,
            low_water: 4,
        }
    }

    fn insert(&mut self) -> Update {
        let index = self.seeds.next_below(self.n);
        let pos = self.position[index as usize];
        if pos == ABSENT {
            self.position[index as usize] = self.live.len() as u32;
            self.live.push(index);
            self.counts.push(1);
        } else {
            self.counts[pos as usize] += 1;
        }
        self.mass += 1;
        Update { index, delta: 1 }
    }

    fn delete_live(&mut self) -> Update {
        debug_assert!(!self.live.is_empty());
        let pos = self.seeds.next_below(self.live.len() as u64) as usize;
        let index = self.live[pos];
        self.counts[pos] -= 1;
        self.mass -= 1;
        if self.counts[pos] == 0 {
            self.position[index as usize] = ABSENT;
            self.live.swap_remove(pos);
            self.counts.swap_remove(pos);
            if pos < self.live.len() {
                self.position[self.live[pos] as usize] = pos as u32;
            }
        }
        Update { index, delta: -1 }
    }
}

impl UpdateGenerator for TurnstileGen {
    fn next_update(&mut self) -> Update {
        if self.growing && self.mass >= self.high_water {
            self.growing = false;
        } else if !self.growing && self.mass <= self.low_water {
            self.growing = true;
        }
        if self.growing {
            // Mostly inserts on the way up, with some churn mixed in.
            if self.mass > 0 && self.seeds.next_below(8) == 0 {
                return self.delete_live();
            }
            self.insert()
        } else {
            // Draining: mostly deletes. Non-strict mode sometimes fires a
            // blind delete that may push a coordinate negative.
            if !self.strict && self.seeds.next_below(16) == 0 {
                let index = self.seeds.next_below(self.n);
                // Blind deletes bypass the live-set bookkeeping entirely;
                // the tracked mass intentionally ignores negative counts.
                return Update { index, delta: -1 };
            }
            if self.mass == 0 || self.seeds.next_below(8) == 0 {
                return self.insert();
            }
            self.delete_live()
        }
    }
}
