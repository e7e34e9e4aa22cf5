//! The framed wire protocol: a sans-io codec between byte streams and
//! typed [`Frame`]s.
//!
//! Every frame is length-prefixed and checksummed, mirroring the
//! `FileSpill` v2 commit-record discipline (`lps_registry::record_checksum`
//! is literally the same FNV-1a). Little-endian throughout:
//!
//! | offset | size | field                                    |
//! |--------|------|------------------------------------------|
//! | 0      | 4    | frame magic `LPSW`                       |
//! | 4      | 2    | protocol version (u16) — currently `1`   |
//! | 6      | 2    | frame tag (u16)                          |
//! | 8      | 4    | payload length `L` (u32)                 |
//! | 12     | 8    | FNV-1a checksum of the payload (u64)     |
//! | 20     | `L`  | the frame payload                        |
//!
//! [`FrameCodec`] is a pure state machine in the `IngestSession` mold: no
//! sockets, no clocks. [`FrameCodec::feed`] appends bytes and reports
//! `Poll::Pending` until a whole frame is buffered; decoding is **total** —
//! any malformed input (bad magic, unknown version or tag, oversized
//! length, checksum mismatch, payload that does not parse) returns a typed
//! [`ProtoError`] and never panics, exactly the `persist::DecodeError`
//! contract. After an error the codec stays poisoned: a byte stream that
//! has lost framing cannot be resynchronized, so the connection must be
//! torn down. (Application-level rejections — a checkpoint upload under the
//! wrong plan, say — are *not* codec errors: they travel back as
//! [`Frame::Error`] and the stream keeps going.)

use std::task::Poll;

use lps_registry::record_checksum;
use lps_stream::Update;

/// Leading magic of every frame: `LPSW` ("LPS wire").
pub const FRAME_MAGIC: [u8; 4] = *b"LPSW";

/// Current protocol version, stamped in every frame header and negotiated
/// by [`Frame::Hello`].
pub const PROTOCOL_VERSION: u16 = 1;

/// Fixed byte length of the frame header ahead of the payload.
pub const FRAME_HEADER_LEN: usize = 20;

/// Upper bound on a frame payload. A declared length beyond this is
/// rejected as [`ProtoError::Oversized`] *before* any allocation, so a
/// corrupt length field can never trigger a speculative multi-gigabyte
/// `Vec` (the same discipline as `WireReader::claim`).
pub const MAX_PAYLOAD_LEN: u32 = 64 << 20;

/// Frame tags (u16, append-only like `persist::tags`).
pub mod tags {
    /// [`super::Frame::Hello`].
    pub const HELLO: u16 = 0x0001;
    /// [`super::Frame::UpdateBatch`].
    pub const UPDATE_BATCH: u16 = 0x0002;
    /// [`super::Frame::CheckpointUpload`].
    pub const CHECKPOINT_UPLOAD: u16 = 0x0003;
    /// [`super::Frame::Query`].
    pub const QUERY: u16 = 0x0004;
    /// [`super::Frame::Reply`].
    pub const REPLY: u16 = 0x0005;
    /// [`super::Frame::Error`].
    pub const ERROR: u16 = 0x0006;
    /// [`super::Frame::Shutdown`].
    pub const SHUTDOWN: u16 = 0x0007;
}

/// A typed rejection from the frame codec. Total decoding: every malformed
/// input maps to exactly one of these, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The buffer does not start with [`FRAME_MAGIC`].
    BadMagic {
        /// The four bytes found (zero-padded if fewer were available).
        found: [u8; 4],
    },
    /// The header's protocol version is not one this codec speaks.
    UnsupportedVersion {
        /// The version stamped in the header.
        found: u16,
    },
    /// The header carries a frame tag this codec does not know.
    UnknownFrameTag {
        /// The tag stamped in the header.
        found: u16,
    },
    /// The declared payload length exceeds [`MAX_PAYLOAD_LEN`].
    Oversized {
        /// The declared length.
        len: u32,
    },
    /// The payload bytes do not hash to the checksum in the header.
    ChecksumMismatch {
        /// Checksum stamped in the header.
        expected: u64,
        /// FNV-1a of the payload actually received.
        found: u64,
    },
    /// The payload arrived intact but its body violates the frame's
    /// layout (truncated field, unknown kind byte, trailing bytes, …).
    Malformed {
        /// Which layout invariant was violated.
        context: &'static str,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadMagic { found } => {
                write!(f, "bad frame magic {found:?} (expected \"LPSW\")")
            }
            ProtoError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported protocol version {found} (this codec speaks {PROTOCOL_VERSION})"
                )
            }
            ProtoError::UnknownFrameTag { found } => write!(f, "unknown frame tag {found:#06x}"),
            ProtoError::Oversized { len } => {
                write!(f, "declared payload length {len} exceeds the {MAX_PAYLOAD_LEN}-byte cap")
            }
            ProtoError::ChecksumMismatch { expected, found } => {
                write!(f, "payload checksum mismatch: header says {expected:016x}, bytes hash to {found:016x}")
            }
            ProtoError::Malformed { context } => write!(f, "malformed frame payload: {context}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Machine-readable class of a protocol [`Frame::Error`], so clients can
/// react without parsing the human-readable detail string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The peer's bytes broke the framing layer ([`ProtoError`]).
    Proto,
    /// An uploaded buffer failed wire-format decoding.
    Decode,
    /// An uploaded checkpoint was produced under a different shard plan
    /// than the service is configured with. The connection stays open.
    PlanMismatch,
    /// The ingest engine failed (a worker panicked).
    Engine,
    /// The tenant registry failed (spill backend or quarantine).
    Registry,
    /// The referenced structure tag is not in the service catalog.
    UnknownStructure,
    /// The structure exists but does not answer this query kind.
    Unsupported,
    /// Any other server-side failure.
    Internal,
    /// The connection did not present the authentication token the server
    /// requires (absent or mismatched `Hello` token, or a non-`Hello`
    /// frame before authenticating).
    Unauthorized,
}

impl ErrorCode {
    /// The u16 this code travels as.
    pub fn to_u16(self) -> u16 {
        match self {
            ErrorCode::Proto => 1,
            ErrorCode::Decode => 2,
            ErrorCode::PlanMismatch => 3,
            ErrorCode::Engine => 4,
            ErrorCode::Registry => 5,
            ErrorCode::UnknownStructure => 6,
            ErrorCode::Unsupported => 7,
            ErrorCode::Internal => 8,
            ErrorCode::Unauthorized => 9,
        }
    }

    /// Decode a wire code; unknown values map to [`ErrorCode::Internal`]
    /// (forward compatibility — an error is an error).
    pub fn from_u16(v: u16) -> ErrorCode {
        match v {
            1 => ErrorCode::Proto,
            2 => ErrorCode::Decode,
            3 => ErrorCode::PlanMismatch,
            4 => ErrorCode::Engine,
            5 => ErrorCode::Registry,
            6 => ErrorCode::UnknownStructure,
            7 => ErrorCode::Unsupported,
            9 => ErrorCode::Unauthorized,
            _ => ErrorCode::Internal,
        }
    }
}

/// A query against the service's latest published snapshot (or, for the
/// digest kinds, against linearized post-ingest state).
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Draw the current sample from an L0-sampler structure.
    Sample {
        /// `Persist` structure tag of the sampler.
        structure: u16,
    },
    /// Point-estimate one coordinate's frequency from a counter sketch.
    PointEstimate {
        /// `Persist` structure tag of the sketch.
        structure: u16,
        /// Coordinate to estimate.
        index: u64,
    },
    /// Recover the duplicate coordinates (entries with count ≥ 2) from the
    /// sparse-recovery structure.
    Duplicates {
        /// `Persist` structure tag (sparse recovery).
        structure: u16,
    },
    /// The structure's `state_digest` — answered under the core lock after
    /// a fresh publish, so it reflects everything applied before it.
    Digest {
        /// `Persist` structure tag.
        structure: u16,
    },
    /// A registry tenant's `state_digest` (or absent if never touched).
    TenantDigest {
        /// Tenant id in the multi-tenant registry.
        tenant: u64,
    },
}

/// A successful answer to an [`Frame::UpdateBatch`], [`Frame::CheckpointUpload`]
/// or [`Frame::Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Ingestion accepted; `accepted` counts updates routed by this server
    /// over its lifetime (monotone, so clients can assert progress).
    Ack {
        /// Total updates accepted so far.
        accepted: u64,
    },
    /// Answer to [`Query::Sample`]; `None` when the sampler's current state
    /// yields no sample.
    Sample {
        /// The sampled coordinate and its estimate, if any.
        sample: Option<(u64, f64)>,
    },
    /// Answer to [`Query::PointEstimate`].
    Estimate {
        /// The estimated frequency.
        value: f64,
    },
    /// Answer to [`Query::Duplicates`]: the recovered `(index, count)`
    /// entries with count ≥ 2, sorted by index.
    Duplicates {
        /// The duplicate coordinates and their exact counts.
        entries: Vec<(u64, i64)>,
    },
    /// Answer to [`Query::Digest`].
    Digest {
        /// The structure's `state_digest`.
        digest: u64,
    },
    /// Answer to [`Query::TenantDigest`]; `None` for a never-touched tenant.
    TenantDigest {
        /// The tenant's digest, if the tenant exists.
        digest: Option<u64>,
    },
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Version negotiation; first frame in each direction. A server
    /// rejects a `major` it does not speak with a [`Frame::Error`]
    /// (code [`ErrorCode::Proto`]) and closes. A server configured with an
    /// authentication token additionally rejects a mismatched or absent
    /// `token` with [`ErrorCode::Unauthorized`] and closes.
    Hello {
        /// Major protocol version; must match exactly.
        major: u16,
        /// Minor version; informational.
        minor: u16,
        /// Optional authentication token. Encodes to the original 4-byte
        /// hello payload when absent, so tokenless peers stay
        /// wire-compatible with version-1 frames.
        token: Option<String>,
    },
    /// A tenant-tagged run of turnstile updates. Tenant 0 addresses the
    /// shared catalog (every structure ingests the run); any other tenant
    /// routes into the multi-tenant registry.
    UpdateBatch {
        /// Destination tenant (0 = the shared catalog).
        tenant: u64,
        /// The updates, in stream order.
        updates: Vec<Update>,
    },
    /// One shard's engine checkpoint: a `PlanEnvelope` + `Persist` payload,
    /// byte-for-byte the buffer `IngestSession::checkpoint` produced — the
    /// service merges it once the shard set completes.
    CheckpointUpload {
        /// The enveloped checkpoint buffer, verbatim.
        buffer: Vec<u8>,
    },
    /// A read against the service (see [`Query`]).
    Query(
        /// The query.
        Query,
    ),
    /// A successful answer (see [`Reply`]).
    Reply(
        /// The answer.
        Reply,
    ),
    /// A typed application-level failure. Unlike a [`ProtoError`] it does
    /// **not** poison the stream: the connection continues.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Ask the server to finish queued work and exit (used by the CI
    /// loopback harness for a clean two-process teardown).
    Shutdown,
}

impl Frame {
    fn tag(&self) -> u16 {
        match self {
            Frame::Hello { .. } => tags::HELLO,
            Frame::UpdateBatch { .. } => tags::UPDATE_BATCH,
            Frame::CheckpointUpload { .. } => tags::CHECKPOINT_UPLOAD,
            Frame::Query(_) => tags::QUERY,
            Frame::Reply(_) => tags::REPLY,
            Frame::Error { .. } => tags::ERROR,
            Frame::Shutdown => tags::SHUTDOWN,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { major, minor, token } => {
                out.extend_from_slice(&major.to_le_bytes());
                out.extend_from_slice(&minor.to_le_bytes());
                // An absent token encodes to nothing: the payload is the
                // original 4-byte layout, decodable by pre-token peers.
                if let Some(token) = token {
                    out.push(1);
                    out.extend_from_slice(&(token.len() as u64).to_le_bytes());
                    out.extend_from_slice(token.as_bytes());
                }
            }
            Frame::UpdateBatch { tenant, updates } => {
                out.extend_from_slice(&tenant.to_le_bytes());
                out.extend_from_slice(&(updates.len() as u64).to_le_bytes());
                for u in updates {
                    out.extend_from_slice(&u.index.to_le_bytes());
                    out.extend_from_slice(&u.delta.to_le_bytes());
                }
            }
            Frame::CheckpointUpload { buffer } => out.extend_from_slice(buffer),
            Frame::Query(q) => match q {
                Query::Sample { structure } => {
                    out.push(0);
                    out.extend_from_slice(&structure.to_le_bytes());
                }
                Query::PointEstimate { structure, index } => {
                    out.push(1);
                    out.extend_from_slice(&structure.to_le_bytes());
                    out.extend_from_slice(&index.to_le_bytes());
                }
                Query::Duplicates { structure } => {
                    out.push(2);
                    out.extend_from_slice(&structure.to_le_bytes());
                }
                Query::Digest { structure } => {
                    out.push(3);
                    out.extend_from_slice(&structure.to_le_bytes());
                }
                Query::TenantDigest { tenant } => {
                    out.push(4);
                    out.extend_from_slice(&tenant.to_le_bytes());
                }
            },
            Frame::Reply(r) => match r {
                Reply::Ack { accepted } => {
                    out.push(0);
                    out.extend_from_slice(&accepted.to_le_bytes());
                }
                Reply::Sample { sample } => {
                    out.push(1);
                    match sample {
                        Some((index, estimate)) => {
                            out.push(1);
                            out.extend_from_slice(&index.to_le_bytes());
                            out.extend_from_slice(&estimate.to_le_bytes());
                        }
                        None => out.push(0),
                    }
                }
                Reply::Estimate { value } => {
                    out.push(2);
                    out.extend_from_slice(&value.to_le_bytes());
                }
                Reply::Duplicates { entries } => {
                    out.push(3);
                    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
                    for (index, count) in entries {
                        out.extend_from_slice(&index.to_le_bytes());
                        out.extend_from_slice(&count.to_le_bytes());
                    }
                }
                Reply::Digest { digest } => {
                    out.push(4);
                    out.extend_from_slice(&digest.to_le_bytes());
                }
                Reply::TenantDigest { digest } => {
                    out.push(5);
                    match digest {
                        Some(d) => {
                            out.push(1);
                            out.extend_from_slice(&d.to_le_bytes());
                        }
                        None => out.push(0),
                    }
                }
            },
            Frame::Error { code, detail } => {
                out.extend_from_slice(&code.to_u16().to_le_bytes());
                out.extend_from_slice(&(detail.len() as u64).to_le_bytes());
                out.extend_from_slice(detail.as_bytes());
            }
            Frame::Shutdown => {}
        }
    }

    fn decode_payload(tag: u16, payload: &[u8]) -> Result<Frame, ProtoError> {
        let mut r = PayloadReader { bytes: payload, pos: 0 };
        let frame = match tag {
            tags::HELLO => {
                let major = r.u16("hello major")?;
                let minor = r.u16("hello minor")?;
                // Token field: absent entirely (the 4-byte layout), or a
                // presence byte followed by a length-prefixed UTF-8 string.
                let token = if r.remaining() == 0 {
                    None
                } else {
                    match r.u8("hello token presence")? {
                        0 => None,
                        1 => {
                            let len = r.u64("hello token length")?;
                            if len > r.remaining() as u64 {
                                return Err(ProtoError::Malformed {
                                    context: "hello token length exceeds the payload bytes",
                                });
                            }
                            let bytes = r.raw(len as usize, "hello token")?;
                            Some(String::from_utf8(bytes.to_vec()).map_err(|_| {
                                ProtoError::Malformed { context: "hello token is not UTF-8" }
                            })?)
                        }
                        _ => {
                            return Err(ProtoError::Malformed {
                                context: "hello token presence byte must be 0 or 1",
                            })
                        }
                    }
                };
                Frame::Hello { major, minor, token }
            }
            tags::UPDATE_BATCH => {
                let tenant = r.u64("batch tenant")?;
                let count = r.u64("batch count")?;
                // Each update is 16 bytes; the count must fit what actually
                // arrived, so a corrupt count can never drive a huge
                // speculative allocation.
                if count > (r.remaining() / 16) as u64 {
                    return Err(ProtoError::Malformed {
                        context: "update count exceeds the payload bytes",
                    });
                }
                let mut updates = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let index = r.u64("update index")?;
                    let delta = r.i64("update delta")?;
                    updates.push(Update { index, delta });
                }
                Frame::UpdateBatch { tenant, updates }
            }
            tags::CHECKPOINT_UPLOAD => {
                let buffer = payload.to_vec();
                r.pos = payload.len();
                Frame::CheckpointUpload { buffer }
            }
            tags::QUERY => match r.u8("query kind")? {
                0 => Frame::Query(Query::Sample { structure: r.u16("query structure")? }),
                1 => Frame::Query(Query::PointEstimate {
                    structure: r.u16("query structure")?,
                    index: r.u64("query index")?,
                }),
                2 => Frame::Query(Query::Duplicates { structure: r.u16("query structure")? }),
                3 => Frame::Query(Query::Digest { structure: r.u16("query structure")? }),
                4 => Frame::Query(Query::TenantDigest { tenant: r.u64("query tenant")? }),
                _ => return Err(ProtoError::Malformed { context: "unknown query kind" }),
            },
            tags::REPLY => match r.u8("reply kind")? {
                0 => Frame::Reply(Reply::Ack { accepted: r.u64("ack accepted")? }),
                1 => {
                    let sample = match r.u8("sample presence")? {
                        0 => None,
                        1 => Some((r.u64("sample index")?, r.f64("sample estimate")?)),
                        _ => {
                            return Err(ProtoError::Malformed {
                                context: "sample presence byte must be 0 or 1",
                            })
                        }
                    };
                    Frame::Reply(Reply::Sample { sample })
                }
                2 => Frame::Reply(Reply::Estimate { value: r.f64("estimate value")? }),
                3 => {
                    let count = r.u64("duplicates count")?;
                    if count > (r.remaining() / 16) as u64 {
                        return Err(ProtoError::Malformed {
                            context: "duplicate count exceeds the payload bytes",
                        });
                    }
                    let mut entries = Vec::with_capacity(count as usize);
                    for _ in 0..count {
                        entries.push((r.u64("duplicate index")?, r.i64("duplicate count")?));
                    }
                    Frame::Reply(Reply::Duplicates { entries })
                }
                4 => Frame::Reply(Reply::Digest { digest: r.u64("digest")? }),
                5 => {
                    let digest = match r.u8("tenant digest presence")? {
                        0 => None,
                        1 => Some(r.u64("tenant digest")?),
                        _ => {
                            return Err(ProtoError::Malformed {
                                context: "tenant digest presence byte must be 0 or 1",
                            })
                        }
                    };
                    Frame::Reply(Reply::TenantDigest { digest })
                }
                _ => return Err(ProtoError::Malformed { context: "unknown reply kind" }),
            },
            tags::ERROR => {
                let code = ErrorCode::from_u16(r.u16("error code")?);
                let len = r.u64("error detail length")?;
                if len > r.remaining() as u64 {
                    return Err(ProtoError::Malformed {
                        context: "error detail length exceeds the payload bytes",
                    });
                }
                let bytes = r.raw(len as usize, "error detail")?;
                let detail = String::from_utf8(bytes.to_vec())
                    .map_err(|_| ProtoError::Malformed { context: "error detail is not UTF-8" })?;
                Frame::Error { code, detail }
            }
            tags::SHUTDOWN => Frame::Shutdown,
            found => return Err(ProtoError::UnknownFrameTag { found }),
        };
        if r.pos != payload.len() {
            return Err(ProtoError::Malformed {
                context: "trailing bytes after the frame payload",
            });
        }
        Ok(frame)
    }
}

/// Bounds-checked little-endian payload reader (the `WireReader` discipline,
/// reporting [`ProtoError`] instead of `DecodeError`).
struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn raw(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Malformed { context });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, ProtoError> {
        Ok(self.raw(1, context)?[0])
    }

    fn u16(&mut self, context: &'static str) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.raw(2, context)?.try_into().unwrap()))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.raw(8, context)?.try_into().unwrap()))
    }

    fn i64(&mut self, context: &'static str) -> Result<i64, ProtoError> {
        Ok(i64::from_le_bytes(self.raw(8, context)?.try_into().unwrap()))
    }

    fn f64(&mut self, context: &'static str) -> Result<f64, ProtoError> {
        Ok(f64::from_le_bytes(self.raw(8, context)?.try_into().unwrap()))
    }
}

/// The sans-io frame state machine: bytes in, [`Frame`]s out.
///
/// ```
/// use std::task::Poll;
/// use lps_service::proto::{Frame, FrameCodec};
///
/// let mut wire = Vec::new();
/// FrameCodec::encode(&Frame::Hello { major: 1, minor: 0, token: None }, &mut wire);
///
/// let mut codec = FrameCodec::new();
/// // feed the bytes one at a time: Pending until the frame completes
/// let mut decoded = None;
/// for b in &wire {
///     if let Poll::Ready(frame) = codec.feed(std::slice::from_ref(b)).unwrap() {
///         decoded = Some(frame);
///     }
/// }
/// assert_eq!(decoded, Some(Frame::Hello { major: 1, minor: 0, token: None }));
/// ```
#[derive(Debug, Default)]
pub struct FrameCodec {
    buf: Vec<u8>,
    poisoned: Option<ProtoError>,
}

impl FrameCodec {
    /// A fresh codec with an empty buffer.
    pub fn new() -> Self {
        FrameCodec::default()
    }

    /// Append `bytes` to the internal buffer and try to decode the next
    /// frame: `Poll::Pending` until a whole frame is buffered, a typed
    /// [`ProtoError`] if the stream is (or previously became) malformed.
    /// Call [`FrameCodec::poll`] with no new bytes to drain additional
    /// frames that arrived in the same read.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Poll<Frame>, ProtoError> {
        if self.poisoned.is_none() {
            self.buf.extend_from_slice(bytes);
        }
        self.poll()
    }

    /// Try to decode the next buffered frame without appending new bytes.
    pub fn poll(&mut self) -> Result<Poll<Frame>, ProtoError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        match self.try_decode() {
            Ok(poll) => Ok(poll),
            Err(e) => {
                // A framing error is unrecoverable: there is no resync
                // point in the stream, so every later poll repeats it.
                self.poisoned = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Number of buffered, not-yet-decoded bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    fn try_decode(&mut self) -> Result<Poll<Frame>, ProtoError> {
        // The magic and the fixed header decode incrementally: reject bad
        // prefixes as soon as the offending bytes arrive rather than
        // waiting for a full header that will never come.
        let have = self.buf.len();
        let magic_len = have.min(4);
        if self.buf[..magic_len] != FRAME_MAGIC[..magic_len] {
            let mut found = [0u8; 4];
            found[..magic_len].copy_from_slice(&self.buf[..magic_len]);
            return Err(ProtoError::BadMagic { found });
        }
        if have >= 6 {
            let version = u16::from_le_bytes([self.buf[4], self.buf[5]]);
            if version != PROTOCOL_VERSION {
                return Err(ProtoError::UnsupportedVersion { found: version });
            }
        }
        if have >= 12 {
            let len = u32::from_le_bytes(self.buf[8..12].try_into().unwrap());
            if len > MAX_PAYLOAD_LEN {
                return Err(ProtoError::Oversized { len });
            }
        }
        if have < FRAME_HEADER_LEN {
            return Ok(Poll::Pending);
        }
        let tag = u16::from_le_bytes([self.buf[6], self.buf[7]]);
        let len = u32::from_le_bytes(self.buf[8..12].try_into().unwrap()) as usize;
        let expected_sum = u64::from_le_bytes(self.buf[12..20].try_into().unwrap());
        if have < FRAME_HEADER_LEN + len {
            return Ok(Poll::Pending);
        }
        let payload = &self.buf[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
        let found_sum = record_checksum(payload);
        if found_sum != expected_sum {
            return Err(ProtoError::ChecksumMismatch { expected: expected_sum, found: found_sum });
        }
        let frame = Frame::decode_payload(tag, payload)?;
        self.buf.drain(..FRAME_HEADER_LEN + len);
        Ok(Poll::Ready(frame))
    }

    /// Append `frame`, fully framed (header + checksum + payload), to `out`.
    pub fn encode(frame: &Frame, out: &mut Vec<u8>) {
        let mut payload = Vec::new();
        frame.encode_payload(&mut payload);
        assert!(
            payload.len() <= MAX_PAYLOAD_LEN as usize,
            "frame payload exceeds MAX_PAYLOAD_LEN; split the batch"
        );
        out.extend_from_slice(&FRAME_MAGIC);
        out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        out.extend_from_slice(&frame.tag().to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&record_checksum(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_frames_in_one_feed_drain_in_order() {
        let mut wire = Vec::new();
        FrameCodec::encode(&Frame::Shutdown, &mut wire);
        FrameCodec::encode(&Frame::Hello { major: 1, minor: 2, token: None }, &mut wire);
        let mut codec = FrameCodec::new();
        assert_eq!(codec.feed(&wire).unwrap(), Poll::Ready(Frame::Shutdown));
        assert_eq!(
            codec.poll().unwrap(),
            Poll::Ready(Frame::Hello { major: 1, minor: 2, token: None })
        );
        assert_eq!(codec.poll().unwrap(), Poll::Pending);
        assert_eq!(codec.buffered(), 0);
    }

    #[test]
    fn hello_token_round_trips_and_tokenless_hello_is_four_bytes() {
        let with = Frame::Hello { major: 1, minor: 0, token: Some("s3cret ✓".to_string()) };
        let without = Frame::Hello { major: 1, minor: 0, token: None };
        for frame in [&with, &without] {
            let mut wire = Vec::new();
            FrameCodec::encode(frame, &mut wire);
            let mut codec = FrameCodec::new();
            assert_eq!(codec.feed(&wire).unwrap(), Poll::Ready(frame.clone()));
        }
        let mut wire = Vec::new();
        FrameCodec::encode(&without, &mut wire);
        assert_eq!(wire.len(), FRAME_HEADER_LEN + 4, "tokenless hello keeps the v1 layout");
    }

    #[test]
    fn poisoned_codec_repeats_its_error() {
        let mut codec = FrameCodec::new();
        let err = codec.feed(b"XXXX").unwrap_err();
        assert!(matches!(err, ProtoError::BadMagic { .. }));
        assert_eq!(codec.poll().unwrap_err(), err);
        // further bytes are ignored, not buffered
        assert_eq!(codec.feed(b"LPSW").unwrap_err(), err);
    }

    #[test]
    fn oversized_length_rejected_before_payload_arrives() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&FRAME_MAGIC);
        wire.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        wire.extend_from_slice(&tags::SHUTDOWN.to_le_bytes());
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut codec = FrameCodec::new();
        assert!(matches!(codec.feed(&wire).unwrap_err(), ProtoError::Oversized { len: u32::MAX }));
    }
}
