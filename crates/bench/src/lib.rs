//! # lps-bench
//!
//! The experiment harness of the reproduction: every experiment listed in
//! the README's Experiments section (E1–E11) has a function here that
//! regenerates its table, and the `experiments` binary runs them (`cargo run
//! --release -p lps-bench --bin experiments -- all`). The same binary runs
//! the per-operation cost suite E12 ([`e_ops`], `experiments -- e12`) and
//! the wall-clock throughput suites behind `BENCH_samplers.json` —
//! single-thread E13 and the sharded ingestion engine scaling E14
//! ([`throughput`]), the multi-tenant registry suite E15 ([`e_registry`])
//! and the field-kernel suite E17 ([`kernels`]) — via `experiments -- bench
//! --json`, together with the headline-ratio regression gate CI runs via
//! `experiments -- bench --check <baseline>`. E12, E13/E14 and E17 time
//! through one median-of-passes timer in [`throughput`].
//! The [`checkpoint`] module backs `experiments -- checkpoint`, the
//! cross-process checkpoint → shard files → merge → digest-compare pipeline,
//! and the [`crashtest`] module backs `experiments -- crashtest`, the
//! kill-a-child-mid-spill crash-recovery harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod cli;
pub mod crashtest;
pub mod e_duplicates;
pub mod e_heavy;
pub mod e_lower;
pub mod e_ops;
pub mod e_registry;
pub mod e_samplers;
pub mod kernels;
pub mod report;
pub mod service_loopback;
pub mod throughput;

pub use checkpoint::{checkpoint_merge, checkpoint_write, render_outcomes, CheckpointOutcome};
pub use cli::{Args, Flags, UsageError};
pub use crashtest::{crashtest_child, crashtest_parent, CrashOutcome};
pub use e_duplicates::{e5_duplicates, e6_duplicates_short, e7_duplicates_long};
pub use e_heavy::e8_heavy_hitters;
pub use e_lower::{e10_reductions, e11_hh_reduction, e9_ur_protocol};
pub use e_ops::{ops_suite, ops_table};
pub use e_registry::{
    registry_suite, registry_table, RegistryRecord, E15_MAX_RESIDENT, E15_ZIPF_ALPHA,
};
pub use e_samplers::{e1_sampler_accuracy, e2_sampler_space, e3_l0_sampler};
pub use kernels::{kernel_suite, kernel_table};
pub use report::Table;
pub use service_loopback::{feed_main, serve_main, servetest_main, SERVICE_DIM, SERVICE_SEED};
pub use throughput::{
    check_headline_regression, engine_scaling_suite, engine_scaling_table, headline_ratios,
    parse_headline, parse_mode, parse_runner_class, seed_baseline_advice, throughput_suite,
    throughput_table, to_json, BenchMeta, ThroughputRecord, GATED_HEADLINE_KEYS, GATE_TOLERANCE,
    SEED_RUNNER_CLASS,
};

/// Run every experiment and return the rendered tables in order.
pub fn run_all(quick: bool) -> Vec<String> {
    let mut out = Vec::new();
    out.push(e1_sampler_accuracy(quick).render());
    out.push(e2_sampler_space(quick).render());
    for t in e3_l0_sampler(quick) {
        out.push(t.render());
    }
    out.push(e5_duplicates(quick).render());
    out.push(e6_duplicates_short(quick).render());
    out.push(e7_duplicates_long(quick).render());
    out.push(e8_heavy_hitters(quick).render());
    out.push(e9_ur_protocol(quick).render());
    for t in e10_reductions(quick) {
        out.push(t.render());
    }
    out.push(e11_hh_reduction(quick).render());
    out
}
