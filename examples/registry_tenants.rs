//! A multi-tenant sketch fleet behind one registry: millions of possible
//! tenant keys, a few thousand resident slots. Zipf-distributed tenant
//! traffic is routed through a [`SketchRegistry`], the LRU bound evicts cold
//! tenants into spill segments, hot ones materialize from sparse logs into
//! dense sketches, and evicted tenants restore transparently — with digests
//! bit-identical to a tenant that was never evicted.
//!
//! Run with `cargo run --release --example registry_tenants`.

use lp_samplers::prelude::*;
use lp_samplers::stream::Zipf;

fn main() {
    let tenants: u64 = 50_000;
    let updates = 40_000usize;
    let dimension: u64 = 1 << 20;

    // One prototype seeds the whole fleet: every tenant shares its seed
    // section, so any two tenants stay mutually mergeable.
    let mut seeds = SeedSequence::new(0xF1EE7);
    let proto = SparseRecovery::new(dimension, 8, &mut seeds);

    // Residency is bounded far below the tenant space, so the traffic must
    // constantly evict and restore.
    let config =
        RegistryConfig::new().max_resident(1024).materialize_threshold(32).spill_backlog(128);
    let mut registry = SketchRegistry::new(proto.clone(), config, MemorySpill::new());

    // Heavy-tailed tenant traffic: a handful of hot tenants absorb most
    // updates; the tail sees one or two each.
    let zipf = Zipf::new(tenants, 1.05);
    let mut traffic_seeds = SeedSequence::new(0x7E4A);
    let mut routed = 0u64;
    for _ in 0..updates {
        let tenant = zipf.sample(&mut traffic_seeds);
        let update = Update::new(traffic_seeds.next_below(dimension), 1);
        registry.route_blocking(tenant, std::slice::from_ref(&update)).expect("route");
        routed += 1;
    }
    registry.drain().expect("drain");

    let stats = registry.stats().clone();
    println!("routed {routed} updates over a {tenants}-tenant key space (Zipf α = 1.05)");
    println!(
        "residency: {} resident / {} spilled (cap 1024), ~{} KiB resident",
        registry.resident_count(),
        registry.spilled_count(),
        registry.resident_bytes_estimate() / 1024
    );
    println!(
        "lifecycle: {} evictions, {} restores, {} sparse→dense materializations",
        stats.evictions, stats.restores, stats.materializations
    );
    assert!(registry.resident_count() <= 1024, "residency cap must hold");
    assert!(stats.evictions > 0 && stats.restores > 0, "traffic must overflow residency");

    // Query never changes residency: tenant 1 (the hottest key) answers from
    // wherever it lives — resident slab, outbox, or spill segment.
    let recovered = registry
        .query(1, |sketch| sketch.recover().entries().map(<[_]>::to_vec))
        .expect("query")
        .expect("tenant 1 saw traffic");
    match recovered {
        Some(entries) => println!(
            "tenant 1 recovers exactly: {} nonzero coordinates, first {:?}",
            entries.len(),
            &entries[..entries.len().min(3)]
        ),
        None => println!("tenant 1 exceeded its 8-sparse recovery budget (expected for a hot key)"),
    }

    // The restore guarantee: route the same history into a roomy registry
    // that never evicts, and the digests match bit-for-bit.
    let roomy_config = RegistryConfig::new().max_resident(tenants as usize);
    let mut roomy = SketchRegistry::new(proto, roomy_config, MemorySpill::new());
    let zipf = Zipf::new(tenants, 1.05);
    let mut replay_seeds = SeedSequence::new(0x7E4A);
    for _ in 0..updates {
        let tenant = zipf.sample(&mut replay_seeds);
        let update = Update::new(replay_seeds.next_below(dimension), 1);
        roomy.route_blocking(tenant, std::slice::from_ref(&update)).expect("route");
    }
    let mut checked = 0;
    for tenant in [1u64, 2, 17, 4242] {
        let evicted_path = registry.digest(tenant).expect("digest");
        let roomy_path = roomy.digest(tenant).expect("digest");
        assert_eq!(evicted_path, roomy_path, "tenant {tenant} digest must survive eviction");
        if evicted_path.is_some() {
            checked += 1;
        }
    }
    println!("digest check: {checked} tenants bit-identical across evicted vs never-evicted paths");
}
