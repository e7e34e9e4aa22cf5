//! Experiment E12: the per-operation cost of every structure the paper
//! builds on — update, estimate and recovery for the linear sketches, update
//! and sample for the Lp and L0 samplers (Figure 1, Theorem 2) against the
//! AKO and FIS baselines, the per-letter and end-to-end cost of the Section 3
//! duplicate finders, and heavy-hitter update and report.
//!
//! Each row times a fixed number of calls per pass through `time_passes`,
//! the same timer as E13/E14 and E17, and keeps the median pass. The counts
//! are sized to the operation: up to 10^5 calls of a cheap update, a
//! handful of whole-structure queries (recover, sample, report), so a quick
//! pass lasts milliseconds, not seconds. Structures are built from fixed
//! seeds, so every run times the same states.

use std::hint::black_box;

use lps_core::{AkoSampler, FisL0Sampler, L0Sampler, LpSampler, PrecisionLpSampler};
use lps_duplicates::{DuplicateFinder, ShortStreamDuplicateFinder};
use lps_hash::SeedSequence;
use lps_heavy::{CountMinHeavyHitters, CountSketchHeavyHitters};
use lps_sketch::{AmsSketch, CountSketch, LinearSketch, PStableSketch, SparseRecovery};
use lps_stream::{duplicate_stream_n_plus_1, sparse_vector_stream, zipf_stream, Update};

use crate::report::{f1, int, Table};
use crate::throughput::{time_passes, ThroughputRecord, QUICK_PASSES};

/// Collects one record per timed operation.
struct Timer {
    /// Multiplier on every row's calls per pass: 1 quick, 10 full.
    scale: usize,
    passes: usize,
    records: Vec<ThroughputRecord>,
}

impl Timer {
    /// Time `calls` (× scale) calls of `call` per pass. `call` gets the
    /// running call number, which continues across passes, and its result
    /// is kept from the optimizer.
    fn time<R>(
        &mut self,
        structure: &'static str,
        operation: &'static str,
        dimension: u64,
        calls: usize,
        mut call: impl FnMut(u64) -> R,
    ) {
        let calls = calls * self.scale;
        let mut next = 0u64;
        self.records.push(time_passes(structure, operation, dimension, calls, self.passes, || {
            for _ in 0..calls {
                black_box(call(next));
                next += 1;
            }
        }));
    }
}

/// Run the E12 suite: 25 (structure, operation) rows. Quick mode keeps the
/// median of `QUICK_PASSES` passes; full mode times one pass of ten times
/// as many calls, as E13/E14 do.
pub fn ops_suite(quick: bool) -> Vec<ThroughputRecord> {
    let mut t = Timer {
        scale: if quick { 1 } else { 10 },
        passes: if quick { QUICK_PASSES } else { 1 },
        records: Vec::new(),
    };
    sketches(&mut t);
    samplers(&mut t);
    duplicates(&mut t);
    heavy_hitters(&mut t);
    t.records
}

/// Count-sketch, AMS, the p-stable norm estimator and exact sparse recovery.
fn sketches(t: &mut Timer) {
    let n: u64 = 1 << 16;
    for (m, name) in [(8, "count_sketch m=8"), (64, "count_sketch m=64")] {
        let mut seeds = SeedSequence::new(1);
        let mut cs = CountSketch::with_default_rows(n, m, &mut seeds);
        t.time(name, "update", n, 20_000, |i| cs.update(i % n, 1.0));
        t.time(name, "estimate", n, 20_000, |i| cs.estimate(i % n));
    }

    let mut seeds = SeedSequence::new(2);
    let mut ams = AmsSketch::with_default_shape(n, &mut seeds);
    t.time("ams_sketch", "update", n, 5_000, |i| ams.update(i % n, 1.0));
    let mut ps = PStableSketch::with_default_rows(n, 1.0, &mut seeds);
    t.time("pstable_sketch p=1", "update", n, 5_000, |i| ps.update(i % n, 1.0));

    for (cap, name, recover_calls) in
        [(8, "sparse_recovery s=8", 5_000), (64, "sparse_recovery s=64", 500)]
    {
        let mut seeds = SeedSequence::new(3);
        let mut rec = SparseRecovery::new(n, cap, &mut seeds);
        t.time(name, "update", n, 100_000, |i| rec.update(i % n, 1));
        // recovery of a vector at the sparsity capacity
        let mut seeds = SeedSequence::new(4);
        let mut full = SparseRecovery::new(n, cap, &mut seeds);
        for k in 0..cap as u64 {
            full.update(k * 97 % n, 3);
        }
        t.time(name, "recover", n, recover_calls, |_| full.recover());
    }
}

/// The precision Lp sampler and the Theorem 2 L0 sampler against the AKO
/// and FIS baselines.
fn samplers(t: &mut Timer) {
    let n: u64 = 1 << 14;
    for (p, name) in [(1.0, "precision_lp p=1 eps=0.25"), (1.5, "precision_lp p=1.5 eps=0.25")] {
        let mut seeds = SeedSequence::new(1);
        let mut sampler = PrecisionLpSampler::new(n, p, 0.25, &mut seeds);
        t.time(name, "update", n, 2_000, |i| sampler.process_update(Update::new(i % n, 1)));
    }
    // recovery on a small instance: decoding is O(n log n)
    let n_small: u64 = 1 << 10;
    let mut seeds = SeedSequence::new(2);
    let stream = sparse_vector_stream(n_small, 50, 20, &mut seeds);
    let mut sampler = PrecisionLpSampler::new(n_small, 1.0, 0.25, &mut seeds);
    sampler.process_stream(&stream);
    t.time("precision_lp p=1 eps=0.25", "sample", n_small, 20, |_| sampler.sample());

    let mut seeds = SeedSequence::new(3);
    let mut ako = AkoSampler::new(n, 1.0, 0.25, &mut seeds);
    t.time("ako_sampler p=1 eps=0.25", "update", n, 2_000, |i| {
        ako.process_update(Update::new(i % n, 1))
    });

    let mut seeds = SeedSequence::new(4);
    let mut ours = L0Sampler::new(n, 0.25, &mut seeds);
    t.time("l0_sampler", "update", n, 50_000, |i| ours.process_update(Update::new(i % n, 1)));
    let mut fis = FisL0Sampler::new(n, &mut seeds);
    t.time("fis_l0", "update", n, 5_000, |i| fis.process_update(Update::new(i % n, 1)));
    let mut seeds = SeedSequence::new(5);
    let stream = sparse_vector_stream(n, 100, 9, &mut seeds);
    let mut loaded = L0Sampler::new(n, 0.25, &mut seeds);
    loaded.process_stream(&stream);
    t.time("l0_sampler", "sample", n, 5_000, |_| loaded.sample());
}

/// The Theorem 3 (length n+1) and Theorem 4 (length n−s) duplicate finders.
fn duplicates(t: &mut Timer) {
    let n: u64 = 1 << 10;
    let mut seeds = SeedSequence::new(1);
    let mut finder = DuplicateFinder::new(n, 0.25, &mut seeds);
    t.time("theorem3_finder", "process_letter", n, 200, |i| finder.process_letter(i % n));
    let mut seeds = SeedSequence::new(2);
    let mut short = ShortStreamDuplicateFinder::new(n, 16, 0.25, &mut seeds);
    t.time("theorem4_finder s=16", "process_letter", n, 200, |i| short.process_letter(i % n));

    // a whole length-(n+1) stream, construction included
    let mut gen = SeedSequence::new(3);
    let (stream, _) = duplicate_stream_n_plus_1(n, 3, &mut gen);
    t.time("theorem3_finder", "end_to_end", n, 1, |call| {
        let mut seeds = SeedSequence::new(100 + call);
        let mut finder = DuplicateFinder::new(n, 0.25, &mut seeds);
        finder.process_stream(&stream);
        finder.report()
    });
}

/// Count-sketch vs count-min heavy hitters: update, and count-sketch report.
fn heavy_hitters(t: &mut Timer) {
    let n: u64 = 1 << 14;
    for (phi, cs_name, cm_name) in [
        (0.125, "cs_heavy_hitters phi=0.125", "cm_heavy_hitters phi=0.125"),
        (0.03125, "cs_heavy_hitters phi=0.03125", "cm_heavy_hitters phi=0.03125"),
    ] {
        let mut seeds = SeedSequence::new(1);
        let mut cs = CountSketchHeavyHitters::new(n, 1.0, phi, &mut seeds);
        t.time(cs_name, "update", n, 5_000, |i| cs.update(i % n, 1));
        let mut cm = CountMinHeavyHitters::new(n, phi, &mut seeds);
        t.time(cm_name, "update", n, 5_000, |i| cm.update(i % n, 1));
    }
    // reporting scans every coordinate, so a smaller n
    let n_small: u64 = 1 << 12;
    let mut gen = SeedSequence::new(2);
    let stream = zipf_stream(n_small, 20_000, 1.3, &mut gen);
    let mut seeds = SeedSequence::new(3);
    let mut loaded = CountSketchHeavyHitters::new(n_small, 1.0, 0.125, &mut seeds);
    loaded.process(&stream);
    t.time("cs_heavy_hitters phi=0.125", "report", n_small, 5, |_| loaded.report());
}

/// Render the E12 records: one row per (structure, operation).
pub fn ops_table(records: &[ThroughputRecord]) -> Table {
    let mut table = Table::new(
        "E12: per-operation cost (calls per pass; ns and calls/sec of the median pass)",
        &["structure", "operation", "log2(n)", "calls", "ns_per_call", "calls_per_sec"],
    );
    for r in records {
        table.row(&[
            r.structure.to_string(),
            r.mode.to_string(),
            int((r.dimension as f64).log2() as u64),
            int(r.updates),
            f1(r.elapsed_ns as f64 / r.updates as f64),
            f1(r.updates_per_sec),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_times_every_operation() {
        let records = ops_suite(true);
        let rows: Vec<(&str, &str)> = records.iter().map(|r| (r.structure, r.mode)).collect();
        assert_eq!(
            rows,
            [
                ("count_sketch m=8", "update"),
                ("count_sketch m=8", "estimate"),
                ("count_sketch m=64", "update"),
                ("count_sketch m=64", "estimate"),
                ("ams_sketch", "update"),
                ("pstable_sketch p=1", "update"),
                ("sparse_recovery s=8", "update"),
                ("sparse_recovery s=8", "recover"),
                ("sparse_recovery s=64", "update"),
                ("sparse_recovery s=64", "recover"),
                ("precision_lp p=1 eps=0.25", "update"),
                ("precision_lp p=1.5 eps=0.25", "update"),
                ("precision_lp p=1 eps=0.25", "sample"),
                ("ako_sampler p=1 eps=0.25", "update"),
                ("l0_sampler", "update"),
                ("fis_l0", "update"),
                ("l0_sampler", "sample"),
                ("theorem3_finder", "process_letter"),
                ("theorem4_finder s=16", "process_letter"),
                ("theorem3_finder", "end_to_end"),
                ("cs_heavy_hitters phi=0.125", "update"),
                ("cm_heavy_hitters phi=0.125", "update"),
                ("cs_heavy_hitters phi=0.03125", "update"),
                ("cm_heavy_hitters phi=0.03125", "update"),
                ("cs_heavy_hitters phi=0.125", "report"),
            ]
        );
        for r in &records {
            assert!(
                r.updates > 0 && r.updates_per_sec.is_finite() && r.updates_per_sec > 0.0,
                "E12 {} {}: rate {}",
                r.structure,
                r.mode,
                r.updates_per_sec
            );
        }
        assert_eq!(ops_table(&records).len(), 25);
    }
}
