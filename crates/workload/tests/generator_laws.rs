//! The two laws every named generator must obey:
//!
//! * **Chunk-boundary independence** — drawing the stream in chunks of
//!   any size yields exactly the stream drawn all at once, because all
//!   generator state advances per update, never per chunk.
//! * **Determinism** — the stream is a pure function of the single seed.
//!
//! Plus the strict-turnstile contract: when the spec forbids it, no
//! coordinate ever dips below zero at any prefix of the stream; and the
//! streams the service benchmark draws are pinned by digest.

use lps_workload::generators::ZipfGen;
use lps_workload::{build_generator, GeneratorSpec, UpdateGenerator};
use proptest::prelude::*;

/// All three named kinds, selected by index so the vendored proptest's
/// primitive strategies can pick one.
fn kind(choice: u8) -> GeneratorSpec {
    match choice % 3 {
        0 => GeneratorSpec::Uniform,
        1 => GeneratorSpec::Zipf { alpha: 1.2 },
        _ => GeneratorSpec::Turnstile { strict: choice.is_multiple_of(2) },
    }
}

fn drain(gen: &mut dyn UpdateGenerator, n: usize) -> Vec<(u64, i64)> {
    (0..n)
        .map(|_| {
            let u = gen.next_update();
            (u.index, u.delta)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_generator_is_chunk_boundary_independent(
        choice in 0u8..=255,
        seed in any::<u64>(),
        dimension in 16u64..10_000,
        chunk in 1usize..97,
    ) {
        let spec = kind(choice);
        let total = 1_500usize;

        let mut whole = build_generator(&spec, dimension, seed);
        let at_once = drain(whole.as_mut(), total);

        // Same stream drawn through fill() in arbitrary-size chunks.
        let mut chunked = build_generator(&spec, dimension, seed);
        let mut piecewise = Vec::with_capacity(total);
        let mut buf = vec![lps_stream::Update { index: 0, delta: 0 }; chunk];
        while piecewise.len() < total {
            let take = chunk.min(total - piecewise.len());
            chunked.fill(&mut buf[..take]);
            piecewise.extend(buf[..take].iter().map(|u| (u.index, u.delta)));
        }

        prop_assert_eq!(&at_once, &piecewise,
            "{:?} diverged at some chunk boundary (chunk = {})", spec, chunk);
    }

    #[test]
    fn every_generator_is_deterministic_in_its_seed(
        choice in 0u8..=255,
        seed in any::<u64>(),
        dimension in 16u64..10_000,
    ) {
        let spec = kind(choice);
        let a = drain(build_generator(&spec, dimension, seed).as_mut(), 600);
        let b = drain(build_generator(&spec, dimension, seed).as_mut(), 600);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn every_generator_stays_inside_its_dimension(
        choice in 0u8..=255,
        seed in any::<u64>(),
        dimension in 1u64..5_000,
    ) {
        let spec = kind(choice);
        let mut gen = build_generator(&spec, dimension, seed);
        for _ in 0..2_000 {
            let u = gen.next_update();
            prop_assert!(u.index < dimension, "index {} escaped [0, {})", u.index, dimension);
            prop_assert!(u.delta != 0, "zero deltas are not turnstile updates");
        }
    }

    #[test]
    fn strict_turnstile_never_goes_below_zero(
        seed in any::<u64>(),
        dimension in 8u64..2_000,
    ) {
        let spec = GeneratorSpec::Turnstile { strict: true };
        let mut gen = build_generator(&spec, dimension, seed);
        let mut counts = vec![0i64; dimension as usize];
        for step in 0..6_000 {
            let u = gen.next_update();
            counts[u.index as usize] += u.delta;
            prop_assert!(
                counts[u.index as usize] >= 0,
                "coordinate {} fell to {} at step {step}", u.index, counts[u.index as usize]
            );
        }
    }

    #[test]
    fn turnstile_actually_churns_through_deletion_phases(
        seed in any::<u64>(),
    ) {
        // The deletion-heavy generator must repeatedly drain its mass to
        // near zero: over a long run, deletions are a large fraction of
        // traffic and the live mass returns to the low-water mark.
        let spec = GeneratorSpec::Turnstile { strict: true };
        let mut gen = build_generator(&spec, 4_096, seed);
        let mut mass = 0i64;
        let mut deletes = 0u64;
        let mut dipped = 0u64;
        let total = 20_000;
        for _ in 0..total {
            let u = gen.next_update();
            mass += u.delta;
            if u.delta < 0 {
                deletes += 1;
            }
            if mass <= 8 {
                dipped += 1;
            }
        }
        prop_assert!(deletes > total / 4, "only {deletes} deletions in {total} updates");
        prop_assert!(dipped > 0, "live mass never returned near zero");
    }
}

#[test]
fn zipf_generator_skews_toward_low_ranks() {
    let spec = GeneratorSpec::Zipf { alpha: 1.3 };
    let mut gen = build_generator(&spec, 1 << 16, 1234);
    let stream = drain(gen.as_mut(), 8_000);
    let low = stream.iter().filter(|&&(i, _)| i < 16).count();
    assert!(low > stream.len() / 3, "only {low}/8000 updates hit the 16 hottest ranks");
}

/// FNV-1a over the little-endian index and delta of the next `n` updates.
fn stream_digest(gen: &mut dyn UpdateGenerator, n: usize) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..n {
        let u = gen.next_update();
        for byte in u.index.to_le_bytes().into_iter().chain(u.delta.to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn the_service_benchmark_streams_are_pinned() {
    // perfbench compares two commits on these streams, so they must not
    // move: its three workloads' update kinds at its dimension, and its
    // tenant-popularity draw.
    let pinned = [
        (GeneratorSpec::Turnstile { strict: true }, 0x2872_1DC9_11B4_C782),
        (GeneratorSpec::Zipf { alpha: 1.1 }, 0x91B2_1256_202C_22A5),
        (GeneratorSpec::Uniform, 0x3592_3D3A_7D81_F28F),
    ];
    for (spec, want) in pinned {
        let got = stream_digest(build_generator(&spec, 1 << 16, 1).as_mut(), 100_000);
        assert_eq!(got, want, "{spec:?} stream moved: {got:#018X}");
    }
    let tenants = stream_digest(&mut ZipfGen::new(16_384, 1.0, 1 ^ 0x7E4A_4E75), 10_000);
    assert_eq!(tenants, 0x135B_D635_E352_597A, "tenant popularity moved: {tenants:#018X}");
}
