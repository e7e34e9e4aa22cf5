//! Experiment E15: multi-tenant registry throughput under Zipf tenant
//! traffic.
//!
//! The registry's reason to exist is keyed workloads whose tenant
//! distribution is heavy-tailed: a few hot tenants absorb most updates while
//! an enormous tail sees a handful each. E15 drives a
//! [`SketchRegistry`] with Zipf(α)-distributed
//! tenant keys over 10^5 (quick) to 10^6 (full) tenants — far more tenants
//! than resident slots — and records, per scenario:
//!
//! * **updates/sec** and **tenants/sec** (distinct tenants touched per
//!   second) — the routing surface's sustained rate including LRU
//!   bookkeeping, lazy-log upkeep, eviction serialization, and restores;
//! * **eviction rate** — evictions per routed update, the price of bounding
//!   residency (restores and materializations stamped alongside);
//! * **resident memory** — the registry's own resident-bytes estimate at the
//!   end of the run, which the bounded-residency guarantee keeps independent
//!   of the tenant-space size.
//!
//! The records are appended to `BENCH_samplers.json` so the perf trajectory
//! tracks tenant-fleet routing next to the raw sketch update paths.

use std::collections::HashSet;
use std::time::Instant;

use lps_hash::SeedSequence;
use lps_registry::{MemorySpill, RegistryConfig, SketchRegistry};
use lps_sketch::SparseRecovery;
use lps_stream::{Update, Zipf};

use crate::report::{f1, int, Table};
use crate::throughput::QUICK_PASSES;

/// One measured E15 scenario.
#[derive(Debug, Clone)]
pub struct RegistryRecord {
    /// Scenario identifier, e.g. `"registry-memspill"`.
    pub scenario: &'static str,
    /// Size of the tenant key space the Zipf traffic draws from.
    pub tenants: u64,
    /// Distinct tenants actually touched by the traffic.
    pub tenants_touched: u64,
    /// Updates routed.
    pub updates: u64,
    /// Wall-clock nanoseconds for the routing loop (in quick mode, the
    /// median of `QUICK_PASSES` passes).
    pub elapsed_ns: u128,
    /// Routed updates per second.
    pub updates_per_sec: f64,
    /// Distinct tenants touched per second.
    pub tenants_per_sec: f64,
    /// Tenants serialized out of residency.
    pub evictions: u64,
    /// Tenants decoded back into residency.
    pub restores: u64,
    /// Sparse logs that crossed the density threshold.
    pub materializations: u64,
    /// Evictions per routed update.
    pub eviction_rate: f64,
    /// The configured residency cap.
    pub max_resident: usize,
    /// The registry's resident-bytes estimate after the run.
    pub resident_bytes: usize,
}

/// The residency cap every E15 scenario runs under — small relative to the
/// tenant space by design, so the traffic constantly overflows it.
pub const E15_MAX_RESIDENT: usize = 4096;

/// The Zipf exponent of the tenant-key distribution.
pub const E15_ZIPF_ALPHA: f64 = 1.05;

fn registry_config() -> RegistryConfig {
    RegistryConfig::new()
        .max_resident(E15_MAX_RESIDENT)
        .materialize_threshold(32)
        .spill_backlog(256)
}

/// The per-tenant structure E15 fleets are built from: exact 8-sparse
/// recovery (hash-compressed state, so the dense form is small and the
/// sparse→dense threshold actually matters).
fn tenant_proto(seed: u64) -> SparseRecovery {
    let mut seeds = SeedSequence::new(seed);
    SparseRecovery::new(1 << 20, 8, &mut seeds)
}

/// Pre-draw the Zipf tenant keys and per-update coordinates so sampling cost
/// stays out of the timed loop.
fn zipf_traffic(tenants: u64, updates: usize, master: u64) -> Vec<(u64, Update)> {
    let zipf = Zipf::new(tenants, E15_ZIPF_ALPHA);
    let mut seeds = SeedSequence::new(master);
    (0..updates)
        .map(|_| {
            let tenant = zipf.sample(&mut seeds);
            let update = Update::new(seeds.next_below(1 << 20), 1);
            (tenant, update)
        })
        .collect()
}

fn run_single(scenario: &'static str, tenants: u64, traffic: &[(u64, Update)]) -> RegistryRecord {
    let mut reg = SketchRegistry::new(tenant_proto(0xE15), registry_config(), MemorySpill::new());
    let start = Instant::now();
    for &(tenant, update) in traffic {
        reg.route_blocking(tenant, std::slice::from_ref(&update)).expect("route");
    }
    reg.drain().expect("drain");
    let elapsed_ns = start.elapsed().as_nanos().max(1);
    assert!(reg.resident_count() <= E15_MAX_RESIDENT, "residency cap violated");
    let touched = traffic.iter().map(|&(t, _)| t).collect::<HashSet<_>>().len() as u64;
    let secs = elapsed_ns as f64 / 1e9;
    let stats = reg.stats();
    RegistryRecord {
        scenario,
        tenants,
        tenants_touched: touched,
        updates: traffic.len() as u64,
        elapsed_ns,
        updates_per_sec: traffic.len() as f64 / secs,
        tenants_per_sec: touched as f64 / secs,
        evictions: stats.evictions,
        restores: stats.restores,
        materializations: stats.materializations,
        eviction_rate: stats.evictions as f64 / traffic.len() as f64,
        max_resident: E15_MAX_RESIDENT,
        resident_bytes: reg.resident_bytes_estimate(),
    }
}

/// Route `traffic` through `passes` fresh registries and keep the record
/// of the median pass by routing time. Every pass routes the same traffic
/// through the same configuration, so only the timing differs.
fn median_pass(
    scenario: &'static str,
    tenants: u64,
    traffic: &[(u64, Update)],
    passes: usize,
) -> RegistryRecord {
    let mut records: Vec<RegistryRecord> =
        (0..passes).map(|_| run_single(scenario, tenants, traffic)).collect();
    records.sort_by_key(|r| r.elapsed_ns);
    records.swap_remove(passes / 2)
}

/// Run the E15 suite. Quick mode routes Zipf traffic over 10^5 tenants (CI
/// scale) and keeps the median of `QUICK_PASSES` passes, as E13/E14 do;
/// full mode times one pass and adds the 10^6-tenant configuration. Both
/// stay far above [`E15_MAX_RESIDENT`], so every scenario exercises
/// eviction and restore, not just routing.
pub fn registry_suite(quick: bool) -> Vec<RegistryRecord> {
    let updates: usize = if quick { 60_000 } else { 600_000 };
    let passes = if quick { QUICK_PASSES } else { 1 };
    let mut out = Vec::new();

    let tenants: u64 = 100_000;
    let traffic = zipf_traffic(tenants, updates, 0x15A);
    out.push(median_pass("registry-memspill", tenants, &traffic, passes));

    if !quick {
        let tenants: u64 = 1_000_000;
        let traffic = zipf_traffic(tenants, updates, 0x15B);
        out.push(median_pass("registry-memspill-1m", tenants, &traffic, passes));
    }
    out
}

/// Render the E15 records as an experiment table.
pub fn registry_table(records: &[RegistryRecord]) -> Table {
    let mut table = Table::new(
        &format!(
            "E15: multi-tenant registry under Zipf(α={E15_ZIPF_ALPHA}) tenant traffic \
             (max_resident = {E15_MAX_RESIDENT}; eviction_rate = evictions per routed update)"
        ),
        &[
            "scenario",
            "tenants",
            "touched",
            "updates",
            "updates_per_sec",
            "tenants_per_sec",
            "eviction_rate",
            "restores",
            "resident_KiB",
        ],
    );
    for r in records {
        table.row(&[
            r.scenario.to_string(),
            int(r.tenants),
            int(r.tenants_touched),
            int(r.updates),
            f1(r.updates_per_sec),
            f1(r.tenants_per_sec),
            format!("{:.4}", r.eviction_rate),
            int(r.restores),
            int((r.resident_bytes / 1024) as u64),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_exercises_eviction_and_restore() {
        // a miniature run with the suite's own plumbing: traffic scaled down
        // so the test is cheap, but tenants >> max_resident still holds
        let traffic = zipf_traffic(50_000, 30_000, 0x7E57);
        let record = run_single("registry-memspill", 50_000, &traffic);
        assert_eq!(record.updates, 30_000);
        assert!(record.tenants_touched > 4096, "traffic must overflow residency");
        assert!(record.evictions > 0, "eviction must be exercised");
        assert!(record.restores > 0, "restore must be exercised");
        assert!(record.eviction_rate > 0.0 && record.eviction_rate < 1.0);
        assert!(record.resident_bytes > 0);
    }
}
