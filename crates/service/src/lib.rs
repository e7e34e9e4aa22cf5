//! # lps-service
//!
//! The streaming sketch service: the workspace's wire-ready byte formats
//! (`Persist` payloads, `PlanEnvelope`s, checksummed records) finally put
//! behind a socket. Three layers, strictly stacked:
//!
//! * [`proto`] — a **sans-io framed protocol**: `LPSW`-magic frames with a
//!   length prefix and an FNV-1a payload checksum, decoded by the pure
//!   [`FrameCodec`] state machine. Decoding is total and typed like
//!   `persist::DecodeError`: no input panics, every malformed byte stream
//!   maps to a [`ProtoError`].
//! * [`merge`] — the **merge service**: a catalog of exact-arithmetic
//!   structures fed by lps-engine's worker pool (tenant-0 updates summed
//!   into one coalesced window, so cancelling updates never reach a
//!   structure, and each sealed window shared by `Arc` with workers sized
//!   to the host) plus a multi-tenant `SketchRegistry`, absorbing shard
//!   [`Frame::CheckpointUpload`]s (validated against the service plan — a
//!   mismatched envelope is a protocol [`Frame::Error`], not a
//!   disconnect) and publishing periodic
//!   merged snapshots that answer live queries **without pausing
//!   ingestion** (snapshot swap under an `Arc`; reads never take the
//!   core lock).
//! * [`server`] / [`client`] — a **blocking socket front-end** (std-only:
//!   `TcpListener`/`UnixListener`, a thread per connection applying
//!   ingest-ordered frames to the core under one lock, so backpressure
//!   lands on connections and never on the acceptor) and the matching
//!   client library.
//!
//! Every failure across the stack converges on [`ServiceError`], which the
//! server maps to typed protocol [`Frame::Error`]s instead of
//! string-formatting — the error-API unification the crates grew toward:
//! `EngineError`, `RegistryError`, `DecodeError` and [`ProtoError`] all
//! convert in via `From` and stay inspectable via `Error::source`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod client;
pub mod merge;
pub mod proto;
pub mod server;

pub use catalog::{CatalogPrototypes, ServeQuery, CATALOG_STRUCTURES};
pub use client::ServiceClient;
pub use merge::{MergeService, ServiceConfig, ServiceCore, SnapshotHandle};
pub use proto::{ErrorCode, Frame, FrameCodec, ProtoError, Query, Reply};
pub use server::RunningServer;

use lps_engine::EngineError;
use lps_registry::RegistryError;
use lps_sketch::DecodeError;

/// The service's unified error type: every layer below the socket —
/// engine, registry, wire codecs, the framing protocol, plain I/O — folds
/// into one enum with `From` conversions, `Display`, and `source()`
/// chaining, so the server can map any internal failure to a typed
/// protocol [`Frame::Error`] and a client can match on what came back.
#[derive(Debug)]
pub enum ServiceError {
    /// The framing layer rejected the byte stream (see [`ProtoError`]).
    Proto(ProtoError),
    /// An uploaded buffer failed `Persist`/envelope decoding; the
    /// `DecodeError::PlanMismatch` case is how a checkpoint taken under
    /// the wrong shard plan surfaces.
    Decode(DecodeError),
    /// The ingest engine failed (see `lps_engine::EngineError`).
    Engine(EngineError),
    /// The tenant registry failed (see `lps_registry::RegistryError`).
    Registry(RegistryError),
    /// A socket or channel I/O failure.
    Io(std::io::Error),
    /// The peer answered with a protocol [`Frame::Error`] (client side).
    Remote {
        /// Machine-readable failure class from the wire.
        code: ErrorCode,
        /// Human-readable detail from the wire.
        detail: String,
    },
    /// The referenced structure tag is not in the service catalog.
    UnknownStructure {
        /// The `Persist` tag the request named.
        tag: u16,
    },
    /// The structure exists but does not answer this query kind.
    Unsupported {
        /// Catalog name of the structure.
        structure: &'static str,
        /// What was asked of it.
        query: &'static str,
    },
    /// The peer closed the connection mid-conversation.
    Closed,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Proto(e) => write!(f, "protocol error: {e}"),
            ServiceError::Decode(e) => write!(f, "upload rejected: {e}"),
            ServiceError::Engine(e) => write!(f, "engine error: {e}"),
            ServiceError::Registry(e) => write!(f, "registry error: {e}"),
            ServiceError::Io(e) => write!(f, "i/o error: {e}"),
            ServiceError::Remote { code, detail } => {
                write!(f, "server reported {code:?}: {detail}")
            }
            ServiceError::UnknownStructure { tag } => {
                write!(f, "structure tag {tag:#06x} is not in the service catalog")
            }
            ServiceError::Unsupported { structure, query } => {
                write!(f, "structure {structure} does not answer {query} queries")
            }
            ServiceError::Closed => write!(f, "peer closed the connection mid-conversation"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Proto(e) => Some(e),
            ServiceError::Decode(e) => Some(e),
            ServiceError::Engine(e) => Some(e),
            ServiceError::Registry(e) => Some(e),
            ServiceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtoError> for ServiceError {
    fn from(e: ProtoError) -> Self {
        ServiceError::Proto(e)
    }
}

impl From<DecodeError> for ServiceError {
    fn from(e: DecodeError) -> Self {
        ServiceError::Decode(e)
    }
}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        ServiceError::Engine(e)
    }
}

impl From<RegistryError> for ServiceError {
    fn from(e: RegistryError) -> Self {
        ServiceError::Registry(e)
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl ServiceError {
    /// The wire classification of this failure — what a server stamps into
    /// the [`Frame::Error`] it sends back.
    pub fn error_code(&self) -> ErrorCode {
        match self {
            ServiceError::Proto(_) => ErrorCode::Proto,
            ServiceError::Decode(DecodeError::PlanMismatch { .. }) => ErrorCode::PlanMismatch,
            ServiceError::Decode(_) => ErrorCode::Decode,
            ServiceError::Engine(_) => ErrorCode::Engine,
            ServiceError::Registry(_) => ErrorCode::Registry,
            ServiceError::UnknownStructure { .. } => ErrorCode::UnknownStructure,
            ServiceError::Unsupported { .. } => ErrorCode::Unsupported,
            ServiceError::Remote { code, .. } => *code,
            ServiceError::Io(_) | ServiceError::Closed => ErrorCode::Internal,
        }
    }

    /// Render this failure as the protocol [`Frame::Error`] a server sends.
    pub fn to_error_frame(&self) -> Frame {
        Frame::Error { code: self.error_code(), detail: self.to_string() }
    }
}
