//! # lps-sketch
//!
//! Linear sketches used by the samplers of Jowhari–Sağlam–Tardos (PODS 2011):
//!
//! * [`count_sketch`] — the Charikar–Chen–Farach-Colton count-sketch with the
//!   Lemma 1 interface (point estimates, best m-sparse approximation).
//! * [`count_min`] — count-min and count-median baselines for heavy hitters.
//! * [`ams`] — the AMS tug-of-war sketch for `‖·‖₂` estimation, used to test
//!   the tail-error guard of the sampler's recovery stage.
//! * [`pstable`] — Indyk's p-stable sketch for `‖·‖_p` estimation (Lemma 2's
//!   2-approximation `r`).
//! * [`sparse_recovery`] — exact s-sparse recovery with 1-sparse detection
//!   cells and peeling (Lemma 5), used by the L0 sampler, by Theorem 4's
//!   duplicates algorithm and by the universal-relation protocol.
//! * [`linear`] — the [`LinearSketch`] trait every sketch implements (merge /
//!   subtract), which is what makes the recovery-stage algebra and the
//!   communication reductions work.
//! * [`mergeable`] — the [`Mergeable`] trait promoting merge to a
//!   first-class capability with bit-level state digests, the contract the
//!   parallel sharded ingestion engine (`lps-engine`) builds on.
//! * [`persist`] — the [`Persist`] trait and versioned little-endian wire
//!   format (magic + version + structure tag + seed section + counter
//!   section) that lets every `Mergeable` state be checkpointed, shipped
//!   between machines, and merged across OS processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ams;
pub mod compensated;
pub mod count_min;
pub mod count_sketch;
pub mod linear;
pub mod mergeable;
pub mod persist;
pub mod pstable;
pub mod sparse_recovery;

pub use ams::AmsSketch;
pub use compensated::kahan_add;
pub use count_min::{CountMedianSketch, CountMinSketch};
pub use count_sketch::{median, rows_for_dimension, CountSketch, SparseApprox, WIDTH_FACTOR};
pub use linear::LinearSketch;
pub use mergeable::{Mergeable, StateDigest};
pub use persist::{
    read_header, seed_section, DecodeError, Persist, WireHeader, WireReader, WireWriter,
    WIRE_MAGIC, WIRE_VERSION,
};
pub use pstable::{stable_sample, PStableSketch};
pub use sparse_recovery::{
    fingerprint_term, fingerprint_terms, signed_field, CellState, OneSparseCell, RecoveryOutput,
    SparseRecovery,
};
