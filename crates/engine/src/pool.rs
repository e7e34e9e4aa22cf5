//! The engine's one worker pool, [`WorkerPool`]: [`IngestSession`] and the
//! service's catalog both ingest through it.
//!
//! [`IngestSession`]: crate::IngestSession

use std::any::Any;
use std::cmp::Ordering;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use lps_stream::{coalesce_updates, Update, DEFAULT_BATCH_SIZE};

use crate::{EngineError, ShardIngest, Tolerance};

/// How many chunks may wait unprocessed in each worker's channel before
/// the stager parks. A chunk holds at most [`DEFAULT_BATCH_SIZE`] entries,
/// so a snapshot finds at most `WORKER_BACKLOG × DEFAULT_BATCH_SIZE`
/// entries queued ahead of its request, whatever the batch size is.
const WORKER_BACKLOG: usize = 10;

/// One (structure, replica) state a pool worker owns, behind a vtable so
/// that one pool can hold structures of several types. Every
/// [`ShardIngest`] structure is one.
pub trait PoolUnit: Send {
    /// The structure's merge-fidelity class: a pool coalesces only when
    /// every unit it holds is [`Tolerance::Exact`], the default.
    fn tolerance(&self) -> Tolerance {
        Tolerance::Exact
    }
    /// Apply one chunk of a sealed window.
    fn apply(&mut self, entries: &[(u64, i64)]);
    /// A clone: how a snapshot copies a unit, and how a caller builds
    /// replicas, or respawns a worker, from a prototype.
    fn boxed_clone(&self) -> Box<dyn PoolUnit>;
    /// The state itself, for the caller to downcast.
    fn into_state(self: Box<Self>) -> Box<dyn Any + Send>;
}

impl<T: ShardIngest + 'static> PoolUnit for T {
    fn tolerance(&self) -> Tolerance {
        T::TOLERANCE
    }

    fn apply(&mut self, entries: &[(u64, i64)]) {
        self.apply_coalesced(entries);
    }

    fn boxed_clone(&self) -> Box<dyn PoolUnit> {
        Box::new(self.clone())
    }

    fn into_state(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }
}

/// Place the `costs.len() × replicas` (structure, replica) units on
/// `min(workers, units)` workers, longest first: each unit, costliest
/// first, goes to the least-loaded worker (ties to the lowest index). A
/// unit costs its structure's cost ÷ `replicas`. Returns each worker's
/// units. With one structure and `replicas` workers, worker `r` owns
/// replica `r`.
fn place(costs: &[f64], replicas: usize, workers: usize) -> Vec<Vec<(usize, usize)>> {
    let mut units: Vec<(usize, usize)> =
        (0..costs.len()).flat_map(|s| (0..replicas).map(move |r| (s, r))).collect();
    // stable: equal costs keep (structure, replica) order
    units.sort_by(|a, b| costs[b.0].total_cmp(&costs[a.0]));
    let workers = workers.min(units.len()).max(1);
    let mut placed = vec![Vec::new(); workers];
    let mut load = vec![0.0f64; workers];
    for unit in units {
        let w = (0..workers).min_by(|&a, &b| load[a].total_cmp(&load[b])).expect("a worker");
        load[w] += costs[unit.0] / replicas as f64;
        placed[w].push(unit);
    }
    placed
}

/// What travels down a worker's channel.
enum Message {
    /// One chunk of a sealed window, at most [`DEFAULT_BATCH_SIZE`]
    /// entries, for every unit of replica `replica`.
    Chunk { replica: usize, entries: Arc<[(u64, i64)]> },
    /// A request for clones of the worker's units, in its placement order,
    /// as of every chunk queued before it.
    Snapshot(SyncSender<Vec<Box<dyn PoolUnit>>>),
}

/// One pool thread.
struct Worker {
    /// The (structure, replica) units this worker owns.
    units: Vec<(usize, usize)>,
    sender: SyncSender<Message>,
    /// Yields the units' states, in placement order, once the channel
    /// closes.
    handle: JoinHandle<Vec<Box<dyn Any + Send>>>,
    /// Set once a send to the worker failed or it dropped a snapshot
    /// request: it panicked, and its units are lost.
    dead: bool,
}

impl Worker {
    /// Spawn a worker owning `units`, whose states are `states` in the
    /// same order.
    fn spawn(units: Vec<(usize, usize)>, states: Vec<Box<dyn PoolUnit>>) -> Self {
        let mut states: Vec<(usize, Box<dyn PoolUnit>)> =
            units.iter().map(|&(_, r)| r).zip(states).collect();
        let (sender, receiver) = sync_channel::<Message>(WORKER_BACKLOG);
        let handle = std::thread::spawn(move || {
            while let Ok(message) = receiver.recv() {
                match message {
                    Message::Chunk { replica, entries } => {
                        for (_, unit) in states.iter_mut().filter(|(r, _)| *r == replica) {
                            unit.apply(&entries);
                        }
                    }
                    // a requester that gave up is not an error
                    Message::Snapshot(reply) => {
                        drop(reply.send(states.iter().map(|(_, u)| u.boxed_clone()).collect()))
                    }
                }
            }
            states.into_iter().map(|(_, u)| u.into_state()).collect()
        });
        Worker { units, sender, handle, dead: false }
    }

    /// Send `message` unless the worker is known dead, parking while its
    /// channel is full. A send to a panicked worker fails at once and marks
    /// it dead. Returns whether the message was queued.
    fn send(&mut self, message: Message) -> bool {
        if !self.dead && self.sender.send(message).is_err() {
            self.dead = true;
        }
        !self.dead
    }
}

/// The open window: for a coalescing pool, the coalesced sum of every
/// update folded since it last sealed, sorted by index, distinct, with
/// every sum of zero dropped — what `coalesce_updates` of those updates
/// returns; otherwise the updates themselves, in stream order.
struct Window {
    coalesce: bool,
    entries: Vec<(u64, i64)>,
    /// The merge's output, swapped with `entries` after each fold; both
    /// buffers keep their capacity from one window to the next.
    merged: Vec<(u64, i64)>,
}

impl Window {
    fn new(coalesce: bool) -> Self {
        Window { coalesce, entries: Vec::new(), merged: Vec::new() }
    }

    /// Fold `updates` in: one `coalesce_updates`, then one linear merge
    /// with the window, in which the indices whose sums reach zero drop out.
    /// A window that does not coalesce appends them.
    fn fold(&mut self, updates: &[Update]) {
        if !self.coalesce {
            self.entries.extend(updates.iter().map(|u| (u.index, u.delta)));
            return;
        }
        let piece = coalesce_updates(updates);
        let (window, merged) = (&self.entries, &mut self.merged);
        merged.clear();
        let (mut i, mut j) = (0, 0);
        while let (Some(&(a, da)), Some(&(b, db))) = (window.get(i), piece.get(j)) {
            match a.cmp(&b) {
                Ordering::Less => {
                    merged.push((a, da));
                    i += 1;
                }
                Ordering::Greater => {
                    merged.push((b, db));
                    j += 1;
                }
                Ordering::Equal => {
                    if da + db != 0 {
                        merged.push((a, da + db));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&window[i..]);
        merged.extend_from_slice(&piece[j..]);
        std::mem::swap(&mut self.entries, &mut self.merged);
    }
}

/// The engine's one worker pool: a staging buffer of accepted updates, the
/// open window they fold into a piece at a time, and the worker threads each
/// sealed window is sent to. An `IngestSession` and the service's catalog
/// both ingest through it.
///
/// Every structure the engine drives is a linear map of the frequency
/// vector, so one coalesced `(index, Δ)` list is a correct input for all of
/// them, an insertion that a later deletion cancels can be summed away
/// before any structure sees it, and any partition of the stream across
/// identically-seeded replicas merges back to the same state. So the pool
/// stages updates without sorting or waiting ([`WorkerPool::stage`]); folds
/// them a piece at a time, one `coalesce_updates` each, into one open
/// *window* sorted by index, from which sums of zero drop out
/// ([`WorkerPool::fan_out`]); and once the window holds `batch_size`
/// distinct coordinates, and at every snapshot, sends it in chunks of at
/// most [`DEFAULT_BATCH_SIZE`] entries, each one `Arc` shared by the workers
/// that own a unit of the next replica. Replica `r` takes sent windows
/// `r, r + replicas, …`; a window that cancelled to nothing is not sent.
/// Every (structure, replica) unit lives on one worker, placed
/// longest-first by per-update cost. The floating-point structures
/// ([`Tolerance::Approximate`]) are not coalesced, since summing their
/// deltas first changes their rounding: their window holds their updates in
/// stream order.
///
/// A worker that panics loses its units. The pool marks it dead when a send
/// to it fails or it drops a snapshot request, sends it nothing more, and
/// reports it from every later [`WorkerPool::snapshot`] as
/// [`EngineError::WorkerPanicked`] until [`WorkerPool::respawn_dead`]
/// replaces it. Respawning is the caller's policy: the service respawns
/// after the publish that reported it, a session never does.
///
/// Bounds, for `batch_size` = `b`, [`DEFAULT_BATCH_SIZE`] = `B` and the
/// piece `p = min(b, B)`:
///
/// * the window holds fewer than `b + p` entries: it seals once it holds
///   `b`, and one fold adds at most `p`;
/// * [`WorkerPool::fan_out`] leaves fewer than `p` updates staged;
/// * a unit's `apply` sees at most `B` entries: a window travels in chunks;
/// * a worker channel holds at most `WORKER_BACKLOG × B` queued entries:
///   `WORKER_BACKLOG` (10) chunks.
pub struct WorkerPool {
    /// Structures in the pool; every one has `replicas` units.
    structures: usize,
    replicas: usize,
    /// Window entries at which it seals.
    batch_size: usize,
    /// Staged updates folded at a time.
    piece: usize,
    /// Accepted updates not folded yet, oldest first.
    staging: Vec<Update>,
    window: Window,
    /// Windows sent so far: window `i` goes to replica `i % replicas`.
    sent: u64,
    workers: Vec<Worker>,
}

impl WorkerPool {
    /// Spawn the workers for `units`, where `units[s][r]` is the initial
    /// state of replica `r` of structure `s`, placed by `costs` (one per
    /// structure; only the ratios matter) on `min(workers, units)` threads.
    /// The window seals at `batch_size` entries. Panics unless every
    /// structure has the same positive number of replicas, `costs` one
    /// cost per structure, and `batch_size` is positive.
    pub fn new(
        units: Vec<Vec<Box<dyn PoolUnit>>>,
        costs: &[f64],
        batch_size: usize,
        workers: usize,
    ) -> Self {
        assert!(batch_size >= 1, "batch size must be positive");
        assert_eq!(units.len(), costs.len(), "one cost per structure");
        let replicas = units.first().map_or(0, Vec::len);
        assert!(
            replicas >= 1 && units.iter().all(|r| r.len() == replicas),
            "every structure needs the same positive number of replicas"
        );
        let coalesce = units.iter().flatten().all(|u| u.tolerance() == Tolerance::Exact);
        let structures = units.len();
        let mut states: Vec<Vec<Option<Box<dyn PoolUnit>>>> =
            units.into_iter().map(|r| r.into_iter().map(Some).collect()).collect();
        let workers = place(costs, replicas, workers)
            .into_iter()
            .map(|units| {
                let owned = units
                    .iter()
                    .map(|&(s, r)| states[s][r].take().expect("each unit is placed once"))
                    .collect();
                Worker::spawn(units, owned)
            })
            .collect();
        let piece = batch_size.min(DEFAULT_BATCH_SIZE);
        WorkerPool {
            structures,
            replicas,
            batch_size,
            piece,
            staging: Vec::with_capacity(piece),
            window: Window::new(coalesce),
            sent: 0,
            workers,
        }
    }

    /// Staged updates folded into the window at a time:
    /// `min(batch_size, DEFAULT_BATCH_SIZE)`.
    pub fn piece(&self) -> usize {
        self.piece
    }

    /// The staged updates not folded yet, oldest first.
    pub fn staged(&self) -> &[Update] {
        &self.staging
    }

    /// Entries in the open window.
    pub fn open_window(&self) -> usize {
        self.window.entries.len()
    }

    /// Windows sent so far; window `i` went to replica `i % replicas`.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Stage `updates`, copied once: sorts nothing, never waits on a worker.
    pub fn stage(&mut self, updates: &[Update]) {
        self.staging.extend_from_slice(updates);
    }

    /// Fold every full piece of the staged updates into the window, oldest
    /// first, sealing the window whenever it reaches the batch size; fewer
    /// than [`WorkerPool::piece`] updates stay staged. Parks on a full
    /// worker channel: the backpressure point, which leaves the cores to
    /// the workers it waits on.
    pub fn fan_out(&mut self) {
        self.fold(self.staging.len() / self.piece * self.piece);
    }

    /// Fold the oldest `count` staged updates into the window, one piece at
    /// a time, sealing the window whenever it reaches `batch_size` entries.
    fn fold(&mut self, count: usize) {
        let mut staging = std::mem::take(&mut self.staging);
        for piece in staging[..count].chunks(self.piece) {
            self.window.fold(piece);
            if self.window.entries.len() >= self.batch_size {
                self.seal();
            }
        }
        staging.drain(..count);
        self.staging = staging;
    }

    /// Send the window to every worker owning a unit of the next replica,
    /// in chunks of at most [`DEFAULT_BATCH_SIZE`] entries, and empty it;
    /// an empty window sends nothing and takes no replica's turn. A send to
    /// a panicked worker fails at once; its state is already lost.
    fn seal(&mut self) {
        if self.window.entries.is_empty() {
            return;
        }
        let replica = (self.sent % self.replicas as u64) as usize;
        self.sent += 1;
        for chunk in self.window.entries.chunks(DEFAULT_BATCH_SIZE) {
            let entries: Arc<[(u64, i64)]> = chunk.into();
            let owners =
                self.workers.iter_mut().filter(|w| w.units.iter().any(|&(_, r)| r == replica));
            for worker in owners {
                worker.send(Message::Chunk { replica, entries: Arc::clone(&entries) });
            }
        }
        self.window.entries.clear();
    }

    /// Fold every staged update and seal the window.
    fn flush(&mut self) {
        self.fold(self.staging.len());
        self.seal();
    }

    /// Fold every staged update and seal the window, then collect a clone
    /// of every unit, grouped by structure, each structure's replicas in
    /// worker order. One snapshot request goes to each worker, queued
    /// behind its chunks, and every request is sent before any reply is
    /// awaited, so the workers copy in parallel. The pool keeps running.
    ///
    /// A dead worker, found now or before, fails the call with
    /// [`EngineError::WorkerPanicked`] naming the lowest dead worker index.
    pub fn snapshot(&mut self) -> Result<Vec<Vec<Box<dyn Any + Send>>>, EngineError> {
        self.flush();
        let replies: Vec<_> = self
            .workers
            .iter_mut()
            .map(|w| {
                let (reply, clones) = sync_channel(1);
                w.send(Message::Snapshot(reply)).then_some(clones)
            })
            .collect();
        let mut states: Vec<Vec<Box<dyn Any + Send>>> =
            std::iter::repeat_with(Vec::new).take(self.structures).collect();
        for (worker, clones) in self.workers.iter_mut().zip(replies) {
            // a worker that panics drops its queued request, and with it
            // the reply sender, so `recv` fails instead of hanging
            match clones.and_then(|c| c.recv().ok()) {
                Some(clones) => {
                    for (&(s, _), clone) in worker.units.iter().zip(clones) {
                        states[s].push(clone.into_state());
                    }
                }
                None => worker.dead = true,
            }
        }
        match self.workers.iter().position(|w| w.dead) {
            Some(shard) => Err(EngineError::WorkerPanicked { shard }),
            None => Ok(states),
        }
    }

    /// Replace every dead worker with a fresh one owning the same units,
    /// each a clone of its structure's prototype in `protos` (one per
    /// structure, in the order the pool was built with).
    pub fn respawn_dead(&mut self, protos: &[Box<dyn PoolUnit>]) {
        for worker in self.workers.iter_mut().filter(|w| w.dead) {
            let states = worker.units.iter().map(|&(s, _)| protos[s].boxed_clone()).collect();
            let fresh = Worker::spawn(worker.units.clone(), states);
            let dead = std::mem::replace(worker, fresh);
            drop(dead.sender);
            // its panic is what `snapshot` reported
            let _ = dead.handle.join();
        }
    }

    /// Fold every staged update, seal the window, then stop the workers
    /// once they have drained their channels: each worker's unit states in
    /// placement order, or `None` for a worker that panicked. The panic
    /// payloads are swallowed — containment, not propagation.
    pub fn finish(mut self) -> Vec<Option<Vec<Box<dyn Any + Send>>>> {
        self.flush();
        self.join()
    }

    /// Close every channel, then join the workers.
    fn join(&mut self) -> Vec<Option<Vec<Box<dyn Any + Send>>>> {
        let (senders, handles): (Vec<_>, Vec<_>) =
            self.workers.drain(..).map(|w| (w.sender, w.handle)).unzip();
        drop(senders);
        handles.into_iter().map(|handle| handle.join().ok()).collect()
    }
}

impl Drop for WorkerPool {
    /// Close every channel, then join the workers once they have drained
    /// their queued chunks.
    fn drop(&mut self) {
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::{channel, Receiver};
    use std::sync::Mutex;
    use std::time::Duration;

    use proptest::prelude::*;

    use super::*;

    /// Per-update cost in ns of each structure of the service's
    /// seven-structure catalog: its placement weights.
    const CATALOG_COST_NS: [f64; 7] = [113.0, 263.0, 777.0, 427.0, 68.0, 71.0, 389.0];

    /// A pool over `replicas` clones of each prototype.
    fn pool_of(
        protos: &[Box<dyn PoolUnit>],
        costs: &[f64],
        replicas: usize,
        batch_size: usize,
        workers: usize,
    ) -> WorkerPool {
        let units = protos.iter().map(|p| (0..replicas).map(|_| p.boxed_clone()).collect());
        WorkerPool::new(units.collect(), costs, batch_size, workers)
    }

    #[test]
    fn placement_puts_every_unit_once_within_one_unit_of_balance() {
        for replicas in [1, 2] {
            let cost = |&(s, _): &(usize, usize)| CATALOG_COST_NS[s] / replicas as f64;
            let every: Vec<(usize, usize)> =
                (0..7).flat_map(|s| (0..replicas).map(move |r| (s, r))).collect();
            let total: f64 = every.iter().map(cost).sum();
            let largest = every.iter().map(cost).fold(0.0, f64::max);
            for requested in [1, 2, 3, 7, 8] {
                let placed = place(&CATALOG_COST_NS, replicas, requested);
                assert_eq!(placed.len(), requested.min(every.len()), "{requested} requested");
                assert!(placed.iter().all(|w| !w.is_empty()), "an empty worker: {placed:?}");
                let mut units = placed.concat();
                units.sort_unstable();
                assert_eq!(units, every, "each unit placed exactly once");
                if placed.len() == every.len() {
                    assert!(placed.iter().all(|w| w.len() == 1), "one unit per worker");
                }
                let heaviest =
                    placed.iter().map(|w| w.iter().map(cost).sum::<f64>()).fold(0.0, f64::max);
                assert!(heaviest <= total / placed.len() as f64 + largest, "{placed:?}");
            }
        }
        // two workers, one replica: 1068 ns against the bound max(2108 / 2, 777)
        let placed = place(&CATALOG_COST_NS, 1, 2);
        let heaviest = placed
            .iter()
            .map(|w| w.iter().map(|&(s, _)| CATALOG_COST_NS[s]).sum::<f64>())
            .fold(0.0, f64::max);
        let total: f64 = CATALOG_COST_NS.iter().sum();
        let bound = (total / 2.0).max(777.0);
        assert!(heaviest <= 1.02 * bound, "heaviest worker {heaviest} ns against {bound} ns");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Indices from a range of 16 make collisions and exact
        /// cancellations common.
        #[test]
        fn folding_two_lists_equals_coalescing_their_concatenation(
            first in prop::collection::vec((0..16u64, -3i64..4), 0..64),
            second in prop::collection::vec((0..16u64, -3i64..4), 0..64),
        ) {
            let first: Vec<Update> = first.iter().map(|&(i, d)| Update::new(i, d)).collect();
            let second: Vec<Update> = second.iter().map(|&(i, d)| Update::new(i, d)).collect();
            let mut window = Window::new(true);
            window.fold(&first);
            window.fold(&second);
            prop_assert_eq!(&window.entries, &coalesce_updates(&[first, second].concat()));
            prop_assert!(window.entries.windows(2).all(|w| w[0].0 < w[1].0), "sorted, distinct");
            prop_assert!(window.entries.iter().all(|&(_, d)| d != 0), "no zero sums");
        }
    }

    /// Records each chunk it applies, after waiting in `apply` until its
    /// gate, if any, sends or closes; panics on a marked delta.
    #[derive(Clone)]
    struct Recorder {
        chunks: Vec<Vec<(u64, i64)>>,
        panics_on: Option<i64>,
        gate: Option<Arc<Mutex<Receiver<()>>>>,
    }

    impl PoolUnit for Recorder {
        fn apply(&mut self, entries: &[(u64, i64)]) {
            if let Some(gate) = &self.gate {
                let _ = gate.lock().expect("gate lock").recv();
            }
            let marked = self.panics_on;
            assert!(entries.iter().all(|&(_, d)| Some(d) != marked), "marked delta");
            self.chunks.push(entries.to_vec());
        }

        fn boxed_clone(&self) -> Box<dyn PoolUnit> {
            Box::new(self.clone())
        }

        fn into_state(self: Box<Self>) -> Box<dyn Any + Send> {
            Box::new(self.chunks)
        }
    }

    fn recorder(panics_on: Option<i64>, gate: Option<Receiver<()>>) -> Box<dyn PoolUnit> {
        let gate = gate.map(|g| Arc::new(Mutex::new(g)));
        Box::new(Recorder { chunks: Vec::new(), panics_on, gate })
    }

    /// The chunks a recorder state returned by `snapshot` applied.
    fn chunks(state: &dyn Any) -> &Vec<Vec<(u64, i64)>> {
        state.downcast_ref::<Vec<Vec<(u64, i64)>>>().expect("recorder state")
    }

    #[test]
    fn sealed_windows_rotate_over_the_replicas() {
        // one structure on as many workers as replicas, and batch size 1:
        // worker r owns replica r, and every update seals its own window
        let mut pool = pool_of(&[recorder(None, None)], &[1.0], 3, 1, 3);
        pool.stage(&(0..4).map(|i| Update::new(i, 1)).collect::<Vec<_>>());
        pool.fan_out();
        let replicas: Vec<_> =
            pool.snapshot().expect("answers")[0].iter().map(|s| chunks(&**s).concat()).collect();
        assert_eq!(replicas, [vec![(0, 1), (3, 1)], vec![(1, 1)], vec![(2, 1)]], "it wraps");
    }

    #[test]
    fn a_worker_panic_fails_one_publish_and_respawns_the_worker_empty() {
        const MARKED: i64 = 99;
        let protos = [recorder(Some(MARKED), None), recorder(None, None)];
        // costs 2:1 on two workers: structure 0 alone on worker 0; each
        // snapshot folds what is staged into one window
        let mut pool = pool_of(&protos, &[2.0, 1.0], 1, DEFAULT_BATCH_SIZE, 2);
        assert_eq!(pool.workers[0].units, [(0, 0)]);
        assert_eq!(pool.workers[1].units, [(1, 0)]);

        let before: Vec<Update> = (0..8).map(|i| Update::new(i % 5, 1)).collect();
        // an index nothing else writes, so the window keeps the delta whole
        let marked = [Update::new(7, MARKED)];
        let after: Vec<Update> = (0..6).map(|i| Update::new(i % 3, -2)).collect();
        pool.stage(&before);
        pool.stage(&marked);
        match pool.snapshot() {
            Err(EngineError::WorkerPanicked { shard: 0 }) => {}
            Err(e) => panic!("expected worker 0 to be reported panicked, got {e}"),
            Ok(_) => panic!("a snapshot after a worker panic must fail"),
        }
        assert!(pool.snapshot().is_err(), "a dead worker stays reported until respawned");

        pool.respawn_dead(&protos);
        pool.stage(&after);
        let states = pool.snapshot().expect("the respawned worker serves the next snapshot");
        let first = coalesce_updates(&[&before[..], &marked].concat());
        let second = coalesce_updates(&after);
        assert_eq!(chunks(&*states[1][0]).concat(), [first, second.clone()].concat(), "both");
        assert_eq!(chunks(&*states[0][0]).concat(), second, "the respawned worker starts empty");
    }

    #[test]
    fn staging_never_waits_on_a_blocked_worker() {
        let (release, gate) = channel::<()>();
        let mut pool = pool_of(&[recorder(None, Some(gate))], &[1.0], 1, 4, 1);
        let piece = pool.piece();
        assert_eq!(piece, 4, "a batch size below DEFAULT_BATCH_SIZE folds pieces of its size");
        // each piece sums to 4 coordinates, so each fold seals a window:
        // one for the worker to block on, then one more than its channel
        // holds, the last of which would park if staging sent it
        let updates: Vec<Update> = (0..(WORKER_BACKLOG + 2) * piece)
            .map(|i| Update::new(i as u64 % 7, 1 + i as i64 % 3))
            .collect();
        pool.stage(&updates[..piece]);
        pool.fan_out();
        assert_eq!(pool.sent(), 1, "the first piece sealed a window");
        let (done, staged) = channel();
        let staging = {
            let updates = updates[piece..].to_vec();
            std::thread::spawn(move || {
                pool.stage(&updates);
                let _ = done.send(pool);
            })
        };
        let staged = staged.recv_timeout(Duration::from_secs(5));
        // open the gate for good, whether or not staging returned
        drop(release);
        let mut pool = staged.expect("staging returned while the worker was blocked");
        staging.join().expect("staging thread");

        assert_eq!(pool.staged().len(), (WORKER_BACKLOG + 1) * piece);
        assert_eq!(pool.open_window(), 0, "staging folds nothing");
        pool.fan_out();
        assert!(pool.staged().is_empty());
        let states = pool.snapshot().expect("the released worker answers");
        let sealed: Vec<Vec<(u64, i64)>> = updates.chunks(piece).map(coalesce_updates).collect();
        assert_eq!(
            *chunks(&*states[0][0]),
            sealed,
            "every coordinate, coalesced once, in seal order"
        );
    }

    #[test]
    fn a_sealed_window_reaches_the_workers_in_chunks() {
        let mut pool = pool_of(&[recorder(None, None)], &[1.0], 1, 1 << 20, 1);
        let updates: Vec<Update> = (0..2500).map(|i| Update::new(i, 1)).collect();
        pool.stage(&updates);
        pool.fan_out();
        assert_eq!(pool.open_window(), 2 * DEFAULT_BATCH_SIZE, "two pieces folded");
        let states = pool.snapshot().expect("the worker answers");
        let chunks = chunks(&*states[0][0]);
        let lengths: Vec<usize> = chunks.iter().map(Vec::len).collect();
        assert_eq!(
            lengths,
            [DEFAULT_BATCH_SIZE, DEFAULT_BATCH_SIZE, 2500 - 2 * DEFAULT_BATCH_SIZE]
        );
        assert_eq!(chunks.concat(), coalesce_updates(&updates), "one window, in order");
    }
}
