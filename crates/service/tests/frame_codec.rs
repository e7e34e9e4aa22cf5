//! Property tests of the frame codec: total decoding under the
//! `persist::DecodeError` discipline, now at the framing layer.
//!
//! The laws:
//!
//! * **Round-trip** — any frame encodes and decodes back bit-identically,
//!   regardless of how the bytes are chunked on the way in.
//! * **Prefix totality** — every proper prefix of a valid frame is
//!   `Poll::Pending`, never an error, never a panic.
//! * **Corruption totality** — flipping any single bit of a valid wire
//!   image yields `Pending`, a typed [`ProtoError`], or a *different*
//!   frame; it never panics and never reproduces the original frame.
//! * **Typed rejections** — wrong version, unknown tag, corrupted checksum
//!   each map to their specific error variant.

use std::task::Poll;

use lps_service::proto::{
    tags, Frame, FrameCodec, ProtoError, Query, Reply, FRAME_MAGIC, PROTOCOL_VERSION,
};
use lps_service::ErrorCode;
use lps_stream::Update;
use proptest::prelude::*;

/// Deterministically build one frame of any wire kind from primitive
/// randomness (the vendored proptest has no `prop_oneof`/`prop_map`, so
/// variants are selected by an explicit kind byte).
#[allow(clippy::too_many_arguments)]
fn make_frame(
    kind: u8,
    tenant: u64,
    index: u64,
    value: f64,
    structure: u16,
    flag: bool,
    entries: &[(u64, i64)],
) -> Frame {
    match kind % 16 {
        // Both hello layouts: the 4-byte tokenless frame and the extended
        // frame carrying an arbitrary-content authentication token.
        0 => Frame::Hello {
            major: structure,
            minor: index as u16,
            token: flag.then(|| format!("tok-{tenant:#x} ünïcode ✓")),
        },
        1 => Frame::UpdateBatch {
            tenant,
            updates: entries.iter().map(|&(i, d)| Update { index: i, delta: d }).collect(),
        },
        2 => Frame::CheckpointUpload {
            buffer: entries
                .iter()
                .flat_map(|&(i, d)| {
                    let mut b = i.to_le_bytes().to_vec();
                    b.extend_from_slice(&d.to_le_bytes());
                    b
                })
                .collect(),
        },
        3 => Frame::Query(Query::Sample { structure }),
        4 => Frame::Query(Query::PointEstimate { structure, index }),
        5 => Frame::Query(Query::Duplicates { structure }),
        6 => Frame::Query(Query::Digest { structure }),
        7 => Frame::Query(Query::TenantDigest { tenant }),
        8 => Frame::Reply(Reply::Ack { accepted: tenant }),
        9 => Frame::Reply(Reply::Sample { sample: flag.then_some((index, value)) }),
        10 => Frame::Reply(Reply::Estimate { value }),
        11 => Frame::Reply(Reply::Duplicates { entries: entries.to_vec() }),
        12 => Frame::Reply(Reply::Digest { digest: tenant }),
        13 => Frame::Reply(Reply::TenantDigest { digest: flag.then_some(tenant) }),
        14 => Frame::Error {
            code: ErrorCode::from_u16(structure % 9),
            detail: format!("detail {tenant:#x} — ünïcode ✗"),
        },
        _ => Frame::Shutdown,
    }
}

fn encode(frame: &Frame) -> Vec<u8> {
    let mut wire = Vec::new();
    FrameCodec::encode(frame, &mut wire);
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_frame_round_trips_whole(
        kind in 0u8..16,
        tenant in any::<u64>(),
        index in any::<u64>(),
        value in any::<f64>(),
        structure in any::<u16>(),
        flag in any::<bool>(),
        entries in prop::collection::vec((any::<u64>(), -1_000i64..1_000), 0..24),
    ) {
        let frame = make_frame(kind, tenant, index, value, structure, flag, &entries);
        let wire = encode(&frame);
        let mut codec = FrameCodec::new();
        prop_assert_eq!(codec.feed(&wire).unwrap(), Poll::Ready(frame));
        prop_assert_eq!(codec.buffered(), 0);
        prop_assert_eq!(codec.poll().unwrap(), Poll::Pending);
    }

    #[test]
    fn byte_at_a_time_completes_exactly_at_the_last_byte(
        kind in 0u8..16,
        tenant in any::<u64>(),
        index in any::<u64>(),
        value in any::<f64>(),
        structure in any::<u16>(),
        flag in any::<bool>(),
        entries in prop::collection::vec((any::<u64>(), -1_000i64..1_000), 0..8),
    ) {
        let frame = make_frame(kind, tenant, index, value, structure, flag, &entries);
        let wire = encode(&frame);
        let mut codec = FrameCodec::new();
        let mut decoded = None;
        for (i, b) in wire.iter().enumerate() {
            match codec.feed(std::slice::from_ref(b)).unwrap() {
                Poll::Ready(f) => {
                    prop_assert_eq!(i, wire.len() - 1, "frame completed before its last byte");
                    decoded = Some(f);
                }
                Poll::Pending => prop_assert!(i < wire.len() - 1, "last byte left the codec pending"),
            }
        }
        prop_assert_eq!(decoded, Some(frame));
    }

    #[test]
    fn every_proper_prefix_is_pending(
        kind in 0u8..16,
        tenant in any::<u64>(),
        index in any::<u64>(),
        value in any::<f64>(),
        structure in any::<u16>(),
        flag in any::<bool>(),
        entries in prop::collection::vec((any::<u64>(), -1_000i64..1_000), 0..8),
    ) {
        let frame = make_frame(kind, tenant, index, value, structure, flag, &entries);
        let wire = encode(&frame);
        for cut in 0..wire.len() {
            let mut codec = FrameCodec::new();
            prop_assert_eq!(
                codec.feed(&wire[..cut]).unwrap(),
                Poll::Pending,
                "prefix of {} bytes out of {} was not pending", cut, wire.len()
            );
        }
    }

    #[test]
    fn single_bit_corruption_never_panics_and_never_forges(
        kind in 0u8..16,
        tenant in any::<u64>(),
        index in any::<u64>(),
        value in any::<f64>(),
        structure in any::<u16>(),
        flag in any::<bool>(),
        entries in prop::collection::vec((any::<u64>(), -1_000i64..1_000), 0..8),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let frame = make_frame(kind, tenant, index, value, structure, flag, &entries);
        let mut wire = encode(&frame);
        let pos = pos % wire.len();
        wire[pos] ^= 1 << bit;
        let mut codec = FrameCodec::new();
        match codec.feed(&wire) {
            // a bigger declared length just waits for more bytes
            Ok(Poll::Pending) => {}
            // a flipped tag can legitimately re-frame the payload (e.g. any
            // payload is a valid CheckpointUpload) — but never as the
            // original frame, since every byte participates in decoding
            Ok(Poll::Ready(decoded)) => prop_assert_ne!(decoded, frame),
            // and the typed rejection must persist: the codec is poisoned
            Err(e) => prop_assert_eq!(codec.poll().unwrap_err(), e),
        }
    }

    #[test]
    fn arbitrary_garbage_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut codec = FrameCodec::new();
        let first = codec.feed(&bytes);
        // whatever happened, the codec stays total: more polls and feeds
        // keep returning Results, and a poisoned codec repeats its error
        let again = codec.poll();
        if let Err(e) = first {
            prop_assert_eq!(again.unwrap_err(), e);
        }
        let _ = codec.feed(&bytes);
    }

    #[test]
    fn random_chunking_preserves_the_frame_sequence(
        kinds in prop::collection::vec(0u8..16, 1..6),
        chunk in 1usize..33,
        tenant in any::<u64>(),
        index in any::<u64>(),
        value in any::<f64>(),
        structure in any::<u16>(),
        flag in any::<bool>(),
        entries in prop::collection::vec((any::<u64>(), -1_000i64..1_000), 0..8),
    ) {
        // vary the fields per frame so equal kinds still differ
        let frames: Vec<Frame> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let i = i as u64;
                make_frame(
                    k,
                    tenant.wrapping_add(i),
                    index.wrapping_mul(i + 1),
                    value + i as f64,
                    structure.wrapping_add(i as u16),
                    flag ^ (i % 2 == 1),
                    &entries,
                )
            })
            .collect();
        let mut wire = Vec::new();
        for f in &frames {
            FrameCodec::encode(f, &mut wire);
        }
        let mut codec = FrameCodec::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            let mut step = codec.feed(piece).unwrap();
            while let Poll::Ready(f) = step {
                decoded.push(f);
                step = codec.poll().unwrap();
            }
        }
        prop_assert_eq!(decoded, frames);
        prop_assert_eq!(codec.buffered(), 0);
    }

    #[test]
    fn unsupported_version_is_rejected_at_the_version_bytes(
        version in any::<u16>(),
    ) {
        prop_assume!(version != PROTOCOL_VERSION);
        let mut wire = Vec::new();
        wire.extend_from_slice(&FRAME_MAGIC);
        wire.extend_from_slice(&version.to_le_bytes());
        let mut codec = FrameCodec::new();
        prop_assert_eq!(
            codec.feed(&wire).unwrap_err(),
            ProtoError::UnsupportedVersion { found: version }
        );
    }

    #[test]
    fn unknown_tags_are_rejected(
        tag in 8u16..=u16::MAX,
    ) {
        let mut wire = Vec::new();
        FrameCodec::encode(&Frame::Shutdown, &mut wire);
        wire[6..8].copy_from_slice(&tag.to_le_bytes());
        let mut codec = FrameCodec::new();
        prop_assert_eq!(codec.feed(&wire).unwrap_err(), ProtoError::UnknownFrameTag { found: tag });
    }

    #[test]
    fn checksum_corruption_is_specifically_typed(
        kind in 0u8..16,
        tenant in any::<u64>(),
        index in any::<u64>(),
        value in any::<f64>(),
        structure in any::<u16>(),
        flag in any::<bool>(),
        entries in prop::collection::vec((any::<u64>(), -1_000i64..1_000), 0..8),
        offset in 12usize..20,
        bit in 0u8..8,
    ) {
        let frame = make_frame(kind, tenant, index, value, structure, flag, &entries);
        let mut wire = encode(&frame);
        wire[offset] ^= 1 << bit;
        let mut codec = FrameCodec::new();
        prop_assert!(matches!(
            codec.feed(&wire).unwrap_err(),
            ProtoError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn bad_magic_is_rejected_on_the_first_divergent_byte(
        pos in 0usize..4,
        byte in any::<u8>(),
    ) {
        prop_assume!(byte != FRAME_MAGIC[pos]);
        let mut wire = FRAME_MAGIC.to_vec();
        wire[pos] = byte;
        let mut codec = FrameCodec::new();
        // feeding even just past the divergent byte must already reject
        prop_assert!(matches!(
            codec.feed(&wire[..=pos]).unwrap_err(),
            ProtoError::BadMagic { .. }
        ));
    }

    #[test]
    fn update_batch_count_lies_are_rejected_without_allocation(
        claimed in 1u64..u64::MAX,
    ) {
        // a batch that claims `claimed` updates but carries none
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&claimed.to_le_bytes());
        let mut wire = Vec::new();
        wire.extend_from_slice(&FRAME_MAGIC);
        wire.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        wire.extend_from_slice(&tags::UPDATE_BATCH.to_le_bytes());
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&lps_registry::record_checksum(&payload).to_le_bytes());
        wire.extend_from_slice(&payload);
        let mut codec = FrameCodec::new();
        prop_assert_eq!(
            codec.feed(&wire).unwrap_err(),
            ProtoError::Malformed { context: "update count exceeds the payload bytes" }
        );
    }
}
