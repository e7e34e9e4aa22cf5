//! Wire-format round-trip properties for the heavy-hitter drivers.

use lps_hash::SeedSequence;
use lps_heavy::{CountMinHeavyHitters, CountSketchHeavyHitters};
use lps_sketch::{Mergeable, Persist};
use lps_stream::Update;
use proptest::prelude::*;

const DIM: u64 = 256;

fn updates_strategy(max_len: usize) -> impl Strategy<Value = Vec<(u64, i64)>> {
    prop::collection::vec((0..DIM, -20i64..20), 0..max_len)
}

fn to_updates(updates: &[(u64, i64)]) -> Vec<Update> {
    updates.iter().map(|&(i, d)| Update::new(i, d)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn count_sketch_hh_roundtrip(a in updates_strategy(30), b in updates_strategy(30), seed in any::<u64>()) {
        let mut seeds = SeedSequence::new(seed);
        let proto = CountSketchHeavyHitters::new(DIM, 1.0, 0.25, &mut seeds);
        let mut sa = proto.clone();
        let mut sb = proto.clone();
        sa.process_batch(&to_updates(&a));
        sb.process_batch(&to_updates(&b));
        for s in [&sa, &sb] {
            let decoded = CountSketchHeavyHitters::decode_state(&s.encode_to_vec()).unwrap();
            prop_assert_eq!(decoded.state_digest(), s.state_digest());
            prop_assert_eq!(decoded.report(), s.report());
        }
        let mut merged = sa.clone();
        merged.merge_from(&sb);
        let decoded = CountSketchHeavyHitters::decode_state(&merged.encode_to_vec()).unwrap();
        prop_assert_eq!(decoded.state_digest(), merged.state_digest());
    }

    #[test]
    fn count_min_hh_roundtrip(a in updates_strategy(30), b in updates_strategy(30), seed in any::<u64>()) {
        let mut seeds = SeedSequence::new(seed);
        let proto = CountMinHeavyHitters::new(DIM, 0.25, &mut seeds);
        let mut sa = proto.clone();
        let mut sb = proto.clone();
        sa.process_batch(&to_updates(&a));
        sb.process_batch(&to_updates(&b));
        for s in [&sa, &sb] {
            let decoded = CountMinHeavyHitters::decode_state(&s.encode_to_vec()).unwrap();
            prop_assert_eq!(decoded.state_digest(), s.state_digest());
            prop_assert_eq!(decoded.report(), s.report());
        }
        let mut merged = sa.clone();
        merged.merge_from(&sb);
        let decoded = CountMinHeavyHitters::decode_state(&merged.encode_to_vec()).unwrap();
        prop_assert_eq!(decoded.state_digest(), merged.state_digest());
    }
}

#[test]
fn malformed_buffers_rejected_for_every_heavy_hitter_driver() {
    let mut seeds = SeedSequence::new(3);
    let mut hh = CountSketchHeavyHitters::new(DIM, 1.0, 0.25, &mut seeds);
    hh.update(7, 100);
    let good = hh.encode_to_vec();
    for cut in [0, 3, 8, 15, good.len() / 2, good.len() - 1] {
        assert!(CountSketchHeavyHitters::decode_state(&good[..cut]).is_err());
    }
    let mut cm = CountMinHeavyHitters::new(DIM, 0.25, &mut seeds);
    cm.update(7, 100);
    match CountMinHeavyHitters::decode_state(&good) {
        Err(lps_sketch::DecodeError::WrongStructure { .. }) => {}
        other => panic!("expected WrongStructure, got {other:?}"),
    }
    let step = (good.len() / 48).max(1);
    for pos in (0..good.len()).step_by(step) {
        let mut bad = good.clone();
        bad[pos] ^= 0xFF;
        let _ = CountSketchHeavyHitters::decode_state(&bad); // must not panic
    }
}
