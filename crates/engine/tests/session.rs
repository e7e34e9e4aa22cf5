//! Behavior of the [`IngestSession`]: blocking backpressure that delivers
//! every update exactly once and in per-shard stream order, a worker panic
//! that releases a dispatcher parked on its channel, the approximate-tolerance
//! gate for float structures, and the in-memory `snapshot` of a live session.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use lps_engine::{
    EngineBuilder, IngestSession, KeyRange, RoundRobin, ShardIngest, ShardPlan, Tolerance,
};
use lps_hash::SeedSequence;
use lps_sketch::{Mergeable, PStableSketch, SparseRecovery, StateDigest};
use lps_stream::Update;

/// A test structure whose ingestion can be *blocked from the outside*: while
/// the shared gate is closed, any worker entering `ingest_batch` parks on the
/// condvar. This lets the tests create real, deterministic backpressure —
/// workers stalled, channels full, the dispatcher parked in its `send`.
/// Once the gate is open, a batch holding the [`BOMB`] delta panics the
/// worker.
#[derive(Clone)]
struct GatedSketch {
    gate: Arc<(Mutex<bool>, Condvar)>,
    /// Set the first time a worker had to park on the closed gate.
    stalled: Arc<AtomicBool>,
    /// Per-shard state: deltas in arrival order (merge = concatenation).
    seen: Vec<i64>,
}

impl GatedSketch {
    fn new() -> Self {
        GatedSketch {
            gate: Arc::new((Mutex::new(false), Condvar::new())),
            stalled: Arc::new(AtomicBool::new(false)),
            seen: Vec::new(),
        }
    }

    fn open_gate(&self) {
        let (lock, cvar) = &*self.gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }

    /// A thread that opens the gate once a worker has parked on it, after
    /// giving the dispatcher time to fill that worker's channel and park
    /// in its own `send`. Nothing reports that the dispatcher has parked,
    /// so the pause only makes that interleaving the likely one; what the
    /// tests assert holds under every interleaving.
    fn open_after_stall(&self) -> std::thread::JoinHandle<()> {
        let gated = self.clone();
        std::thread::spawn(move || {
            while !gated.stalled.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(50));
            gated.open_gate();
        })
    }
}

impl Mergeable for GatedSketch {
    fn merge_from(&mut self, other: &Self) {
        self.seen.extend_from_slice(&other.seen);
    }

    fn state_digest(&self) -> u64 {
        let mut d = StateDigest::new();
        for &v in &self.seen {
            d.write_i64(v);
        }
        d.finish()
    }
}

impl ShardIngest for GatedSketch {
    fn ingest_batch(&mut self, updates: &[Update]) {
        let (lock, cvar) = &*self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            self.stalled.store(true, Ordering::SeqCst);
            open = cvar.wait(open).unwrap();
        }
        drop(open);
        for u in updates {
            assert_ne!(u.delta, BOMB, "bomb delta ingested: worker goes down");
            self.seen.push(u.delta);
        }
    }
}

fn updates(n: usize) -> Vec<Update> {
    (0..n).map(|i| Update::new((i % 64) as u64, i as i64 + 1)).collect()
}

/// A seeded turnstile stream over `[0, 1024)` with deltas in `-4..=4 \ {0}`.
fn turnstile(n: usize, seed: u64) -> Vec<Update> {
    let mut s = SeedSequence::new(seed);
    (0..n)
        .map(|_| {
            let delta = (s.next_below(9) as i64) - 4;
            Update::new(s.next_below(1 << 10), if delta == 0 { 1 } else { delta })
        })
        .collect()
}

/// With every worker parked on the closed gate, `ingest_blocking` fills the
/// channels and parks in `send` until a second thread opens the gate. Every
/// update must then arrive exactly once: in stream order with one shard
/// (a shard's batches may not overtake one another), and as the same
/// multiset with two.
#[test]
fn per_shard_order_is_preserved_across_backpressure() {
    for shards in [1, 2] {
        let proto = GatedSketch::new();
        // 125 batches of 4: far more than the parked workers' channels hold
        let mut session = EngineBuilder::new(&proto).shards(shards).batch_size(4).session();
        let ups = updates(500);
        let opener = proto.open_after_stall();
        session.ingest_blocking(&ups);
        opener.join().unwrap();
        let mut got = session.seal().unwrap().seen;
        let mut want: Vec<i64> = ups.iter().map(|u| u.delta).collect();
        if shards == 1 {
            assert_eq!(got, want, "single-shard ingestion must preserve stream order");
        } else {
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "updates were lost or duplicated under backpressure");
        }
    }
}

/// A worker that panics while the dispatcher is parked on its full channel
/// drops the channel's receiver, which fails the parked `send`: the shard
/// is marked dead, the rest of its batches are dropped, `ingest_blocking`
/// returns instead of hanging, and `seal` reports the typed error.
#[test]
fn worker_panic_releases_a_dispatcher_parked_on_its_full_channel() {
    let proto = GatedSketch::new();
    // batch size 1: the worker parks on the bomb's batch, the next batches
    // fill its channel, and the dispatcher parks on the one after
    let mut session = EngineBuilder::new(&proto).shards(1).batch_size(1).session();
    let mut ups = vec![Update::new(0, BOMB)];
    ups.extend(updates(100));
    let opener = proto.open_after_stall();
    let (returned, ingested) = std::sync::mpsc::channel();
    let dispatcher = std::thread::spawn(move || {
        session.ingest_blocking(&ups);
        returned.send(session).unwrap();
    });
    let session = ingested
        .recv_timeout(Duration::from_secs(60))
        .expect("ingest_blocking hung on a dead worker's channel");
    dispatcher.join().unwrap();
    opener.join().unwrap();
    assert_eq!(session.seal().err(), Some(EngineError::WorkerPanicked { shard: 0 }));
}

/// A mid-stream `snapshot` is the merged state of exactly the prefix
/// accepted so far — partial staging buffers included — under every plan
/// and shard count, and it leaves the session live: ingestion continues on
/// the same workers and `seal` still lands on the whole stream's bits.
#[test]
fn mid_stream_snapshot_matches_the_sequential_prefix_and_the_session_continues() {
    fn run<P: ShardPlan + std::fmt::Debug>(
        mut session: IngestSession<SparseRecovery, P>,
        ups: &[Update],
        cut: usize,
        prefix: u64,
        whole: u64,
    ) {
        let label = format!("{:?}", session);
        session.ingest_blocking(&ups[..cut]);
        assert_eq!(session.snapshot().unwrap().state_digest(), prefix, "{label}: prefix");
        // nothing new accepted: a second snapshot reads the same state
        assert_eq!(session.snapshot().unwrap().state_digest(), prefix, "{label}: repeat");
        session.ingest_blocking(&ups[cut..]);
        assert_eq!(session.accepted(), ups.len() as u64);
        assert_eq!(session.seal().unwrap().state_digest(), whole, "{label}: whole stream");
    }

    let mut seeds = SeedSequence::new(44);
    let proto = SparseRecovery::new(1 << 10, 8, &mut seeds);
    let ups = turnstile(6000, 45);
    // not a multiple of the batch size: some updates are still staged
    let cut = 2345;
    let digest = |slice: &[Update]| {
        let mut sequential = proto.clone();
        sequential.process_batch(slice);
        sequential.state_digest()
    };
    let (prefix, whole) = (digest(&ups[..cut]), digest(&ups));

    for shards in [1, 2, 3] {
        let session = EngineBuilder::new(&proto).shards(shards).batch_size(128).session();
        run(session, &ups, cut, prefix, whole);
    }
    let session =
        EngineBuilder::new(&proto).plan(KeyRange::new(1 << 10, 3)).batch_size(128).session();
    run(session, &ups, cut, prefix, whole);
}

/// Float structures may only be sharded behind an explicit approximate plan.
#[test]
#[should_panic(expected = "approximate-tolerance plan")]
fn float_structure_under_exact_plan_is_refused() {
    let mut seeds = SeedSequence::new(5);
    let proto = PStableSketch::with_default_rows(1 << 10, 1.0, &mut seeds);
    let _ = EngineBuilder::new(&proto).shards(2).session();
}

/// With the opt-in, float structures shard fine (estimator-level bounds are
/// pinned separately in `tests/float_sharding.rs`).
#[test]
fn float_structure_under_approximate_plan_builds() {
    let mut seeds = SeedSequence::new(6);
    let proto = PStableSketch::with_default_rows(1 << 10, 1.0, &mut seeds);
    let mut session = EngineBuilder::new(&proto).plan(RoundRobin::approximate(2)).session();
    session.ingest_blocking(&updates(100));
    let _ = session.seal().unwrap();
}

/// The plan accessor reports what was configured.
#[test]
fn session_exposes_its_plan() {
    let mut seeds = SeedSequence::new(7);
    let proto = SparseRecovery::new(256, 4, &mut seeds);
    let session: IngestSession<_, KeyRange> =
        EngineBuilder::new(&proto).plan(KeyRange::new(256, 4)).session();
    assert_eq!(session.shards(), 4);
    assert_eq!(session.plan().tolerance(), Tolerance::Exact);
    assert_eq!(session.plan().range(0), 0..64);
    let _ = session.seal().unwrap();
}

// ---------------------------------------------------------------------------
// Worker panic containment
// ---------------------------------------------------------------------------

use lps_engine::EngineError;
use lps_sketch::{DecodeError, Persist, WireReader, WireWriter};

/// The delta that makes a [`BombSketch`] worker panic mid-ingest.
const BOMB: i64 = i64::MIN;

/// A test structure that panics when it ingests the [`BOMB`] delta —
/// deterministic worker death, targeted at whichever shard the plan routes
/// the bomb to.
#[derive(Clone, Debug, PartialEq)]
struct BombSketch {
    seen: Vec<i64>,
}

impl BombSketch {
    fn new() -> Self {
        BombSketch { seen: Vec::new() }
    }
}

impl Mergeable for BombSketch {
    fn merge_from(&mut self, other: &Self) {
        self.seen.extend_from_slice(&other.seen);
    }

    fn state_digest(&self) -> u64 {
        let mut d = StateDigest::new();
        for &v in &self.seen {
            d.write_i64(v);
        }
        d.finish()
    }
}

impl ShardIngest for BombSketch {
    fn ingest_batch(&mut self, updates: &[Update]) {
        for u in updates {
            assert_ne!(u.delta, BOMB, "bomb delta ingested: worker goes down");
            self.seen.push(u.delta);
        }
    }
}

impl Persist for BombSketch {
    const TAG: u16 = 0x7777; // test-only tag, never on a real wire

    fn encode_seeds(&self, _w: &mut WireWriter<'_>) {}

    fn encode_counters(&self, w: &mut WireWriter<'_>) {
        w.write_len(self.seen.len());
        for &v in &self.seen {
            w.write_i64(v);
        }
    }

    fn decode_parts(
        _seeds: &mut WireReader<'_>,
        counters: &mut WireReader<'_>,
    ) -> Result<Self, DecodeError> {
        let n = counters.read_count(8)?;
        Ok(BombSketch { seen: counters.read_i64s(n)? })
    }
}

/// A worker panic must surface at `seal` as a typed error naming the dead
/// shard — not propagate as a panic into the caller.
#[test]
fn worker_panic_surfaces_as_typed_engine_error() {
    let proto = BombSketch::new();
    // batch_size 2 and round-robin dealing: updates 0..2 -> shard 0,
    // 2..4 -> shard 1, 4..6 -> shard 2
    let mut session = EngineBuilder::new(&proto).shards(3).batch_size(2).session();
    let ups = vec![
        Update::new(0, BOMB), // shard 0 dies on this batch
        Update::new(1, 2),
        Update::new(2, 3),
        Update::new(3, 4),
        Update::new(4, 5),
        Update::new(5, 6),
    ];
    session.ingest_blocking(&ups);
    assert_eq!(session.seal(), Err(EngineError::WorkerPanicked { shard: 0 }));
}

/// After one worker dies mid-stream, the session keeps accepting and
/// routing a long tail of further updates without panicking or hanging —
/// containment under continued load, not just at the terminal call.
#[test]
fn session_survives_a_dead_worker_under_continued_load() {
    let proto = BombSketch::new();
    let mut session = EngineBuilder::new(&proto).shards(2).batch_size(2).session();
    session.ingest_blocking(&[Update::new(0, BOMB), Update::new(1, 1)]);
    // thousands more updates, half of them routed at the dead shard
    let tail: Vec<Update> = (0..4000).map(|i| Update::new(i % 64, i as i64 + 1)).collect();
    session.ingest_blocking(&tail);
    match session.seal() {
        Err(EngineError::WorkerPanicked { shard: 0 }) => {}
        other => panic!("expected shard 0 reported dead, got {other:?}"),
    }
}

/// `checkpoint` refuses to persist a stream with a hole in it, with the
/// same typed error as `seal`.
#[test]
fn checkpoint_reports_the_panicked_shard() {
    let proto = BombSketch::new();
    let mut session = EngineBuilder::new(&proto).shards(2).batch_size(1).session();
    session.ingest_blocking(&[Update::new(0, 1), Update::new(1, BOMB)]);
    assert_eq!(session.checkpoint(), Err(EngineError::WorkerPanicked { shard: 1 }));
}

/// `snapshot` reports a dead worker with the same typed error as `seal`,
/// including a worker that dies on the very batch the snapshot flushed:
/// its queued snapshot request is dropped with it, so the call returns
/// instead of waiting on a reply that can never come. The session stays
/// usable in its degraded state.
#[test]
fn snapshot_reports_the_panicked_shard() {
    let proto = BombSketch::new();
    let mut session = EngineBuilder::new(&proto).shards(2).batch_size(4).session();
    // below the batch size: the bomb is still staged for shard 0 until
    // the snapshot's own flush hands it over
    session.ingest_blocking(&[Update::new(0, 1), Update::new(1, BOMB)]);
    assert_eq!(session.snapshot(), Err(EngineError::WorkerPanicked { shard: 0 }));
    session.ingest_blocking(&updates(100));
    assert_eq!(session.snapshot(), Err(EngineError::WorkerPanicked { shard: 0 }));
    assert_eq!(session.seal(), Err(EngineError::WorkerPanicked { shard: 0 }));
}

/// The degraded path: every surviving shard's state is checkpointed behind
/// its true-index plan envelope, the dead shard is reported, and the
/// surviving buffers decode back to exactly what those shards ingested.
#[test]
fn surviving_shards_checkpoint_and_decode_after_a_panic() {
    let proto = BombSketch::new();
    let mut session = EngineBuilder::new(&proto).shards(3).batch_size(2).session();
    let ups = vec![
        Update::new(0, BOMB), // batch 0 -> shard 0 (dies)
        Update::new(1, 2),
        Update::new(2, 3), // batch 1 -> shard 1
        Update::new(3, 4),
        Update::new(4, 5), // batch 2 -> shard 2
        Update::new(5, 6),
    ];
    session.ingest_blocking(&ups);
    let (buffers, panicked) = session.checkpoint_surviving();
    assert_eq!(panicked, vec![0]);
    assert_eq!(buffers.len(), 2);

    let mut recovered = Vec::new();
    for (shard, buf) in &buffers {
        let (envelope, payload) = lps_engine::read_envelope(buf).unwrap();
        assert_eq!(usize::from(envelope.shard), *shard, "envelope stamps the true shard index");
        assert_eq!(envelope.shard_count, 3, "envelope keeps the full fleet size");
        let state = BombSketch::decode_state(payload).unwrap();
        recovered.push((*shard, state.seen.clone()));
    }
    recovered.sort();
    assert_eq!(recovered, vec![(1, vec![3, 4]), (2, vec![5, 6])]);
}

/// With no panic, `checkpoint_surviving` is just `checkpoint` with indices:
/// all shards survive and nothing is reported dead.
#[test]
fn checkpoint_surviving_with_healthy_workers_reports_no_deaths() {
    let proto = BombSketch::new();
    let mut session = EngineBuilder::new(&proto).shards(2).batch_size(2).session();
    session.ingest_blocking(&[Update::new(0, 1), Update::new(1, 2)]);
    let (buffers, panicked) = session.checkpoint_surviving();
    assert!(panicked.is_empty());
    assert_eq!(buffers.len(), 2);
    assert_eq!(buffers.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![0, 1]);
}
