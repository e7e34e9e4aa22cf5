//! # lps-workload
//!
//! Named, seeded, reusable stream generators ([`generators`]): `uniform`,
//! `zipf` and `turnstile`, each named by a [`GeneratorSpec`] and built by
//! [`build_generator`]. Every generator is deterministic from a single
//! `u64` seed and **chunk-boundary independent**: drawing 10 updates then
//! 90 yields the same stream as drawing 100 at once (property-tested).
//!
//! The service benchmark (`perfbench/`) draws its request streams from
//! these generators, and `tests/generator_laws.rs` pins the streams it
//! draws.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;

pub use generators::{build_generator, GeneratorSpec, UpdateGenerator};
