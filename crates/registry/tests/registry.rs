//! Registry lifecycle tests: routing, eviction, restore, query correctness,
//! and bounded residency under Zipf tenant traffic.

use std::task::Poll;

use lps_hash::SeedSequence;
use lps_registry::{FileSpill, MemorySpill, RegistryConfig, SketchRegistry};
use lps_sketch::{CountSketch, LinearSketch, Mergeable, SparseRecovery};
use lps_stream::{Update, Zipf};

fn recovery_proto(seed: u64) -> SparseRecovery {
    let mut seeds = SeedSequence::new(seed);
    SparseRecovery::new(1 << 16, 8, &mut seeds)
}

/// The exact recovered entries of a sparse tenant (panics on `Dense`).
fn recovered(s: &SparseRecovery) -> Vec<(u64, i64)> {
    s.recover().entries().expect("sparse tenant must recover").to_vec()
}

#[test]
fn tenants_are_isolated_and_queryable() {
    let proto = recovery_proto(1);
    let mut reg = SketchRegistry::new(proto.clone(), RegistryConfig::default(), MemorySpill::new());

    reg.route_blocking(10, &[Update::new(3, 5), Update::new(9, -2)]).unwrap();
    reg.route_blocking(20, &[Update::new(3, 100)]).unwrap();

    let ten = reg.query(10, recovered).unwrap().expect("tenant 10 exists");
    assert_eq!(ten, vec![(3, 5), (9, -2)]);
    let twenty = reg.query(20, recovered).unwrap().unwrap();
    assert_eq!(twenty, vec![(3, 100)]);
    assert!(reg.query(999, |_| ()).unwrap().is_none(), "unknown tenant is None");
}

#[test]
fn eviction_keeps_residency_bounded_and_restores_transparently() {
    let proto = recovery_proto(2);
    let config = RegistryConfig::new().max_resident(4).materialize_threshold(2).spill_backlog(2);
    let mut reg = SketchRegistry::new(proto, config, MemorySpill::new());

    // touch 32 tenants, each with a distinguishable update
    for tenant in 0..32u64 {
        reg.route_blocking(tenant, &[Update::new(tenant, tenant as i64 + 1)]).unwrap();
        assert!(reg.resident_count() <= 4, "residency cap violated");
    }
    assert!(reg.stats().evictions >= 28, "28 tenants must have been evicted");
    reg.drain().unwrap();
    assert_eq!(reg.resident_count() + reg.spilled_count(), 32);

    // touching a spilled tenant restores its exact state
    let restores_before = reg.stats().restores;
    reg.route_blocking(0, &[Update::new(100, 7)]).unwrap();
    assert!(reg.stats().restores > restores_before);
    let v = reg.query(0, recovered).unwrap().unwrap();
    assert_eq!(v, vec![(0, 1), (100, 7)]);

    // every tenant still answers correctly wherever it lives
    for tenant in 1..32u64 {
        let v = reg.query(tenant, recovered).unwrap().unwrap();
        assert_eq!(v, vec![(tenant, tenant as i64 + 1)], "tenant {tenant}");
    }
}

#[test]
fn route_is_sans_io_pending_until_drained() {
    let proto = recovery_proto(3);
    let config = RegistryConfig::new().max_resident(1).materialize_threshold(4).spill_backlog(3);
    let mut reg = SketchRegistry::new(proto, config, MemorySpill::new());

    // each new tenant evicts the previous one; after 4 evictions the outbox
    // exceeds the backlog of 3 and route reports Pending
    let mut pending_at = None;
    for tenant in 0..16u64 {
        match reg.route(tenant, &[Update::new(1, 1)]).unwrap() {
            Poll::Ready(n) => assert_eq!(n, 1),
            Poll::Pending => {
                pending_at = Some(tenant);
                break;
            }
        }
    }
    let stalled = pending_at.expect("outbox backlog must eventually stall route");
    assert_eq!(reg.outbox_len(), 4, "stalled just past the backlog of 3");

    reg.drain().unwrap();
    assert_eq!(reg.outbox_len(), 0);
    assert!(matches!(reg.route(stalled, &[Update::new(1, 1)]).unwrap(), Poll::Ready(1)));
}

#[test]
fn registry_matches_per_tenant_sequential_sketches() {
    // the registry under eviction pressure must agree with one plain sketch
    // per tenant fed the same per-tenant stream
    let proto = CountSketch::new(1 << 12, 16, 5, &mut SeedSequence::new(4));
    let config = RegistryConfig::new().max_resident(8).materialize_threshold(8).spill_backlog(16);
    let mut reg = SketchRegistry::new(proto.clone(), config, MemorySpill::new());

    let tenants = 64u64;
    let mut reference: Vec<CountSketch> = (0..tenants).map(|_| proto.clone()).collect();
    let mut stream_seeds = SeedSequence::new(5);
    for _ in 0..2000 {
        let tenant = stream_seeds.next_below(tenants);
        let index = stream_seeds.next_below(1 << 12);
        let delta = (stream_seeds.next_below(19) as i64) - 9;
        let update = [Update::new(index, if delta == 0 { 1 } else { delta })];
        reg.route_blocking(tenant, &update).unwrap();
        reference[tenant as usize].process_batch(&update);
    }

    for tenant in 0..tenants {
        let expected = reference[tenant as usize].state_digest();
        let got =
            reg.query(tenant, |s| s.state_digest()).unwrap().expect("every tenant was touched");
        assert_eq!(got, expected, "tenant {tenant} diverged from sequential");
    }
}

#[test]
fn zipf_traffic_over_many_tenants_stays_bounded() {
    // the acceptance-shaped scenario, scaled for CI: 10^5 tenants under Zipf
    // traffic, residency bounded, evictions and restores both exercised
    let tenants = 100_000u64;
    let proto = recovery_proto(6);
    let config =
        RegistryConfig::new().max_resident(512).materialize_threshold(16).spill_backlog(256);
    let mut reg = SketchRegistry::new(proto, config, MemorySpill::new());

    let zipf = Zipf::new(tenants, 1.1);
    let mut seeds = SeedSequence::new(7);
    for _ in 0..20_000 {
        let tenant = zipf.sample(&mut seeds);
        let index = seeds.next_below(1 << 16);
        reg.route_blocking(tenant, &[Update::new(index, 1)]).unwrap();
        assert!(reg.resident_count() <= 512);
    }
    reg.drain().unwrap();

    let stats = reg.stats();
    assert_eq!(stats.routed_updates, 20_000);
    assert!(stats.evictions > 0, "Zipf tail must overflow residency");
    assert!(stats.restores > 0, "hot tenants must cycle back in");
    // Zipf head tenants concentrate enough updates to materialize
    assert!(stats.materializations > 0, "head tenants must cross the density threshold");
    // the resident estimate stays far below the cost of 10^5 dense tenants
    let bytes = reg.resident_bytes_estimate();
    assert!(bytes > 0 && bytes < 512 * 1024 * 1024, "resident estimate implausible: {bytes}");
}

#[test]
fn file_spill_registry_survives_a_process_style_restart() {
    let mut path = std::env::temp_dir();
    path.push(format!("lps-registry-restart-{}.spill", std::process::id()));

    let proto = recovery_proto(9);
    let config = RegistryConfig::new().max_resident(2).materialize_threshold(2).spill_backlog(1);
    {
        let spill = FileSpill::create(&path).unwrap();
        let mut reg = SketchRegistry::new(proto.clone(), config.clone(), spill);
        for tenant in 0..12u64 {
            reg.route_blocking(tenant, &[Update::new(tenant, 2)]).unwrap();
        }
        reg.drain().unwrap();
        // evict everything still resident so the file holds all cold tenants
        for tenant in 100..102u64 {
            reg.route_blocking(tenant, &[Update::new(1, 1)]).unwrap();
        }
        reg.drain().unwrap();
    }

    // "restart": a fresh registry over the reopened spill file restores the
    // first process's tenants
    let spill = FileSpill::open(&path).unwrap();
    let mut reg = SketchRegistry::new(proto, config, spill);
    for tenant in 0..12u64 {
        let v = reg.query(tenant, recovered).unwrap().unwrap();
        assert_eq!(v, vec![(tenant, 2)], "tenant {tenant} lost across restart");
    }
    std::fs::remove_file(&path).ok();
}
