//! Experiment E17: field-kernel micro-benchmarks — scalar vs lane-parallel.
//!
//! The structure-level suites (E13/E14) measure whole update paths, where
//! hashing competes with memory traffic and counter updates. E17 isolates
//! the *field kernels* the lane-parallel layer replaced, so the artifact
//! records exactly how much the `lps_hash::simd` rewiring buys at the
//! arithmetic level:
//!
//! * `horner_k{2,4,16}` — k-wise polynomial hashing at the independence
//!   degrees the structures use (pairwise bucket/sign hashes, 4-wise AMS
//!   signs, high-k scaling-factor hashes);
//! * `pow_window` — windowed `r^index` fingerprint powers;
//! * `fingerprint_term` — the full per-update fingerprint contribution
//!   (`signed_field(δ) · r^index`) of sparse recovery / FIS-L0;
//! * `ams_polybank` — the rows×keys walk: all 128 AMS sign polynomials
//!   evaluated per key ([`lps_hash::simd::PolyBank`], in the power basis
//!   on both builds, vs a scalar Horner loop).
//!
//! Each kernel is measured in `scalar` mode (the per-key path the update
//! loops used before the rewiring) and `lanes` mode (the batch kernels the
//! `process_batch` impls now call). Both modes produce bit-identical
//! outputs — checked here on every run, not assumed — so the ratio is pure
//! throughput. The records ride in `BENCH_samplers.json` next to the E13
//! throughput records (`structure`/`mode` keyed the same way), and two of
//! the ratios are stamped as (ungated) headline keys.

use std::time::Instant;

use lps_hash::field::horner;
use lps_hash::simd::{self, PolyBank};
use lps_hash::{Fp, KWiseHash, PowTable, SeedSequence};
use lps_sketch::{fingerprint_term, fingerprint_terms};

use crate::report::{f1, int, Table};
use crate::throughput::{speedup, ThroughputRecord};

/// Nominal dimension stamped into the kernel records (keys are drawn from
/// `[0, 2^20)`, matching the structure-level suites).
const KERNEL_DIMENSION: u64 = 1 << 20;

/// Measure `run` over `ops` logical kernel evaluations.
fn time_kernel(
    structure: &'static str,
    mode: &'static str,
    ops: u64,
    mut run: impl FnMut(),
) -> ThroughputRecord {
    let start = Instant::now();
    run();
    let elapsed_ns = start.elapsed().as_nanos().max(1);
    ThroughputRecord {
        structure,
        mode,
        dimension: KERNEL_DIMENSION,
        updates: ops,
        elapsed_ns,
        updates_per_sec: ops as f64 / (elapsed_ns as f64 / 1e9),
    }
}

/// Deterministic keys in `[0, 2^20)` — the coordinate shape every structure
/// hashes.
fn kernel_keys(count: usize, master: u64) -> Vec<u64> {
    let mut seeds = SeedSequence::new(master);
    (0..count).map(|_| seeds.next_below(KERNEL_DIMENSION)).collect()
}

fn assert_identical(structure: &str, scalar: &[u64], lanes: &[u64]) {
    assert_eq!(scalar, lanes, "E17 {structure}: lane kernel diverged from scalar");
}

fn horner_pair(
    structure: &'static str,
    k: usize,
    keys: &[u64],
    passes: usize,
    out: &mut Vec<ThroughputRecord>,
) {
    let mut seeds = SeedSequence::new(0xE17 ^ k as u64);
    let hash = KWiseHash::new(k, &mut seeds);
    let coeffs: Vec<Fp> = hash.coefficients().to_vec();
    let ops = (keys.len() * passes) as u64;
    let mut scalar_out = vec![0u64; keys.len()];
    out.push(time_kernel(structure, "scalar", ops, || {
        for _ in 0..passes {
            for (o, &key) in scalar_out.iter_mut().zip(keys.iter()) {
                *o = horner(&coeffs, Fp::from_reduced(key)).value();
            }
            std::hint::black_box(&scalar_out);
        }
    }));
    let mut lanes_out = vec![0u64; keys.len()];
    out.push(time_kernel(structure, "lanes", ops, || {
        for _ in 0..passes {
            hash.hash_keys(keys, &mut lanes_out);
            std::hint::black_box(&lanes_out);
        }
    }));
    assert_identical(structure, &scalar_out, &lanes_out);
}

/// Run the E17 kernel suite. Quick mode shrinks the evaluation counts so CI
/// can afford it; both modes verify scalar/lane output equality inline.
pub fn kernel_suite(quick: bool) -> Vec<ThroughputRecord> {
    let keys = kernel_keys(if quick { 20_000 } else { 100_000 }, 0xE17);
    let passes = if quick { 5 } else { 20 };
    let mut out = Vec::new();

    horner_pair("horner_k2", 2, &keys, passes, &mut out);
    horner_pair("horner_k4", 4, &keys, passes, &mut out);
    horner_pair("horner_k16", 16, &keys, passes, &mut out);

    // windowed fingerprint powers r^index
    {
        let table = PowTable::new(Fp::new(0xF1A6_E521));
        let ops = (keys.len() * passes) as u64;
        let mut scalar_out = vec![0u64; keys.len()];
        out.push(time_kernel("pow_window", "scalar", ops, || {
            for _ in 0..passes {
                for (o, &key) in scalar_out.iter_mut().zip(keys.iter()) {
                    *o = table.pow(key).value();
                }
                std::hint::black_box(&scalar_out);
            }
        }));
        let mut lanes_out = vec![0u64; keys.len()];
        out.push(time_kernel("pow_window", "lanes", ops, || {
            for _ in 0..passes {
                simd::pow_many(&table, &keys, &mut lanes_out);
                std::hint::black_box(&lanes_out);
            }
        }));
        assert_identical("pow_window", &scalar_out, &lanes_out);
    }

    // the full fingerprint contribution signed_field(δ)·r^index
    {
        let table = PowTable::new(Fp::new(0x005A_1E77));
        let entries: Vec<(u64, i64)> = {
            let mut seeds = SeedSequence::new(0xF17);
            keys.iter()
                .map(|&i| (i, (seeds.next_below(19) as i64) - 9))
                .map(|(i, d)| (i, if d == 0 { 1 } else { d }))
                .collect()
        };
        let ops = (entries.len() * passes) as u64;
        let mut scalar_out: Vec<Fp> = Vec::new();
        out.push(time_kernel("fingerprint_term", "scalar", ops, || {
            for _ in 0..passes {
                scalar_out = entries.iter().map(|&(i, d)| fingerprint_term(i, d, &table)).collect();
                std::hint::black_box(&scalar_out);
            }
        }));
        let mut lanes_out: Vec<Fp> = Vec::new();
        out.push(time_kernel("fingerprint_term", "lanes", ops, || {
            for _ in 0..passes {
                lanes_out = fingerprint_terms(&entries, &table);
                std::hint::black_box(&lanes_out);
            }
        }));
        assert_eq!(scalar_out, lanes_out, "E17 fingerprint_term: lane kernel diverged");
    }

    // the AMS rows×keys walk: 128 sign polynomials per key
    {
        let mut seeds = SeedSequence::new(0xA5);
        let polys: Vec<Vec<Fp>> =
            (0..128).map(|_| KWiseHash::new(4, &mut seeds).coefficients().to_vec()).collect();
        let bank = PolyBank::new(polys.iter().map(|p| p.as_slice()));
        // the per-key cost is 128 polynomial evaluations, so fewer keys
        let bank_keys = &keys[..keys.len() / 10];
        let ops = (bank_keys.len() * passes) as u64;
        let mut scalar_out = vec![0u64; polys.len()];
        out.push(time_kernel("ams_polybank", "scalar", ops, || {
            for _ in 0..passes {
                for &key in bank_keys {
                    for (o, poly) in scalar_out.iter_mut().zip(polys.iter()) {
                        *o = horner(poly, Fp::from_reduced(key)).value();
                    }
                    std::hint::black_box(&scalar_out);
                }
            }
        }));
        let mut lanes_out = vec![0u64; polys.len()];
        out.push(time_kernel("ams_polybank", "lanes", ops, || {
            for _ in 0..passes {
                for &key in bank_keys {
                    bank.eval_key(key, &mut lanes_out);
                    std::hint::black_box(&lanes_out);
                }
            }
        }));
        assert_identical("ams_polybank", &scalar_out, &lanes_out);
    }

    out
}

/// Render the E17 records: one row per (kernel, mode) with the lane speedup.
pub fn kernel_table(records: &[ThroughputRecord]) -> Table {
    let backend = if cfg!(feature = "simd") {
        "avx2-multiversioned; ams_polybank portable"
    } else {
        "portable-lanes"
    };
    let mut table = Table::new(
        &format!(
            "E17: field-kernel throughput, scalar vs lane-parallel \
             (evals/sec; simd backend: {backend})"
        ),
        &["kernel", "mode", "evals", "evals_per_sec", "lanes_vs_scalar"],
    );
    for r in records {
        let ratio = speedup(records, r.structure, "lanes", "scalar").unwrap_or(1.0);
        table.row(&[
            r.structure.to_string(),
            r.mode.to_string(),
            int(r.updates),
            f1(r.updates_per_sec),
            format!("{ratio:.2}"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_suite_measures_every_kernel_in_both_modes() {
        let records = kernel_suite(true);
        let kernels = [
            "horner_k2",
            "horner_k4",
            "horner_k16",
            "pow_window",
            "fingerprint_term",
            "ams_polybank",
        ];
        assert_eq!(records.len(), kernels.len() * 2);
        for kernel in kernels {
            for mode in ["scalar", "lanes"] {
                assert!(
                    records.iter().any(|r| r.structure == kernel && r.mode == mode),
                    "missing E17 record {kernel}/{mode}"
                );
            }
            assert!(
                speedup(&records, kernel, "lanes", "scalar").is_some(),
                "no lane ratio for {kernel}"
            );
        }
        let table = kernel_table(&records).render();
        assert!(table.contains("E17"));
    }
}
