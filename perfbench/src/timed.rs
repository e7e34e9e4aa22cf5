//! The timed run, tracing off: set-up, a closed-loop ingest phase and a
//! sleep-paced open loop against the real socket service on loopback,
//! then the correctness gate.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use lps_service::{RunningServer, ServiceClient, ServiceConfig, ServiceError};

use crate::stats::{self, Samples};
use crate::workload::{
    is_saturated, ReadSource, Reference, Workload, WriteSource, CATALOG_SEED, DIMENSION,
    STREAM_CLOSED, STREAM_OPEN,
};

/// Client connections: one per core of the 2-core host the benchmark was
/// written for. The closed loop drives both; the open loop sends writes
/// on the first and reads on the second.
pub const CONNECTIONS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Share of the measured time planned for the closed-loop phase.
const CLOSED_SHARE: f64 = 0.3;

pub type Client = ServiceClient<TcpStream>;

pub fn service_config() -> ServiceConfig {
    ServiceConfig::new(DIMENSION, CATALOG_SEED)
}

/// Bind the service on loopback and hand-shake every client connection,
/// the connections concurrently, as independent clients would.
pub fn start() -> Result<(RunningServer, Vec<Client>), ServiceError> {
    let server = RunningServer::bind_tcp("127.0.0.1:0", service_config())?;
    let addr = server.local_addr().expect("a TCP server has an address");
    let clients = std::thread::scope(|s| {
        let handles: Vec<_> =
            (0..CONNECTIONS).map(|_| s.spawn(move || ServiceClient::connect_tcp(addr))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connecting client panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok((server, clients))
}

/// Close the clients first, so connection threads see end-of-stream and
/// the server stops without waiting out its read poll.
pub fn stop(server: RunningServer, clients: Vec<Client>) {
    drop(clients);
    server.stop();
}

/// One sleep-paced open-loop stream: `count` requests at `rate` per
/// second from `start`, each timed from its scheduled send.
#[derive(Default)]
pub struct Paced {
    pub latency: Samples,
    pub late: Samples,
    pub sent: u64,
    pub failed: u64,
    pub saturated: u64,
    pub cpu: Duration,
    pub threads: u64,
}

/// A request stream the open loop paces.
trait Stream {
    /// Send the prepared request and wait for its answer.
    fn send(&mut self) -> Result<(), ServiceError>;
    /// Build the next request, off the clock: called after the previous
    /// answer is timed and before sleeping to the next scheduled send.
    fn prepare(&mut self) {}
}

struct Writes<'a> {
    client: &'a mut Client,
    source: WriteSource,
    next: (u64, Vec<lps_stream::Update>),
}

impl Stream for Writes<'_> {
    fn send(&mut self) -> Result<(), ServiceError> {
        self.client.send_updates(self.next.0, &self.next.1).map(|_| ())
    }

    fn prepare(&mut self) {
        self.next = self.source.next_request();
    }
}

struct Reads<'a> {
    client: &'a mut Client,
    source: ReadSource,
}

impl Stream for Reads<'_> {
    fn send(&mut self) -> Result<(), ServiceError> {
        self.client.query(self.source.next_query()).map(|_| ())
    }
}

fn paced(rate: f64, count: u64, start: Instant, stream: &mut dyn Stream) -> Paced {
    let cpu0 = stats::thread_cpu();
    let mut out = Paced::default();
    let mut previous_done = start;
    for i in 0..count {
        let scheduled = start + Duration::from_secs_f64(i as f64 / rate);
        // Sleep, never spin: the cores belong to the service's workers.
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        // The driver's own lag: how long after the later of the scheduled
        // time and the previous answer this request went out (sleep
        // overshoot plus request preparation).
        out.late.push(Instant::now().saturating_duration_since(scheduled.max(previous_done)));
        match stream.send() {
            Ok(()) => {}
            Err(e) if is_saturated(&e) => out.saturated += 1,
            Err(_) => out.failed += 1,
        }
        previous_done = Instant::now();
        out.latency.push(previous_done - scheduled);
        out.sent += 1;
        stream.prepare();
        if i == count / 2 {
            out.threads = stats::thread_count();
        }
    }
    out.cpu = stats::thread_cpu() - cpu0;
    out
}

/// Everything the timed phases measured.
pub struct Timed {
    pub setup: Samples,
    pub ingest_updates_per_s: f64,
    pub writes: Paced,
    pub reads: Paced,
    pub cpu_us_per_request: f64,
    pub driver_cpu_share: f64,
    pub peak_rss_mib: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The gate's verdict: digests compared, or the first mismatch.
    pub gate: Result<usize, String>,
}

/// Run set-up, the closed loop and the open loop for `seconds`, then the
/// correctness gate.
pub fn run(w: &Workload, seed: u64, seconds: f64, doctor: bool) -> Result<Timed, ServiceError> {
    let mut setup = Samples::default();
    let mut live = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let (server, clients) = start()?;
        setup.push(t0.elapsed());
        if i + 1 == SETUPS {
            live = Some((server, clients));
        } else {
            stop(server, clients);
        }
    }
    let (server, mut clients) = live.expect("at least one set-up");

    // Closed loop: every connection sends a fixed number of write batches
    // back to back, sized to take `CLOSED_SHARE` of the run at the
    // workload's measured capacity. A fixed count, not a fixed time, keeps
    // the service's publish schedule in the same place in every run.
    let per_connection =
        (w.capacity_rps * seconds * CLOSED_SHARE / CONNECTIONS as f64).round().max(1.0) as u64;
    let start = Instant::now();
    let results: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                s.spawn(move || {
                    let mut source = WriteSource::new(w, seed, STREAM_CLOSED + k as u64);
                    let (mut acked, mut failed) = (0u64, 0u64);
                    for _ in 0..per_connection {
                        let (tenant, batch) = source.next_request();
                        match client.send_updates(tenant, &batch) {
                            Ok(_) => acked += batch.len() as u64,
                            Err(_) => failed += 1,
                        }
                    }
                    (acked, failed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop client panicked")).collect()
    });
    let acked: u64 = results.iter().map(|r| r.0).sum();
    let ingest_updates_per_s = acked as f64 / start.elapsed().as_secs_f64();

    // Open loop: writes on one connection, reads on the other, each at its
    // fixed rate, both paced from the same start.
    let open = seconds * (1.0 - CLOSED_SHARE);
    let write_count = (w.write_rps * open).round().max(1.0) as u64;
    let read_count = (w.read_rps * open).round().max(1.0) as u64;
    let start = Instant::now() + Duration::from_millis(5);
    let (writer, reader) = clients.split_at_mut(1);
    let cpu0 = stats::process_cpu();
    let (writes, reads) = std::thread::scope(|s| {
        let writes = s.spawn(|| {
            let mut source = WriteSource::new(w, seed, STREAM_OPEN);
            let next = source.next_request();
            let mut stream = Writes { client: &mut writer[0], source, next };
            paced(w.write_rps, write_count, start, &mut stream)
        });
        let reads = s.spawn(|| {
            let mut stream =
                Reads { client: &mut reader[0], source: ReadSource::new(w, seed, STREAM_OPEN) };
            paced(w.read_rps, read_count, start, &mut stream)
        });
        (writes.join().expect("writer panicked"), reads.join().expect("reader panicked"))
    });
    let process_cpu = stats::process_cpu() - cpu0;
    let peak_rss_mib = stats::peak_rss_mib();
    let requests = writes.sent + reads.sent;

    // Gate: regenerate every write stream from the seed and compare.
    let mut reference = Reference::default();
    let mut streams: Vec<(u64, u64)> =
        (0..CONNECTIONS as u64).map(|k| (STREAM_CLOSED + k, per_connection)).collect();
    streams.push((STREAM_OPEN, writes.sent));
    reference.replay(w, seed, &streams);
    let client = &mut clients[0];
    let gate = reference.verify(&mut |q| client.query(q), doctor);
    stop(server, clients);

    let closed_sent = per_connection * CONNECTIONS as u64;
    let closed_failed: u64 = results.iter().map(|r| r.1).sum();
    Ok(Timed {
        setup,
        ingest_updates_per_s,
        cpu_us_per_request: process_cpu.as_secs_f64() * 1e6 / requests as f64,
        driver_cpu_share: (writes.cpu + reads.cpu).as_secs_f64()
            / process_cpu.as_secs_f64().max(1e-9),
        peak_rss_mib,
        attempted: closed_sent + requests,
        failed: closed_failed + writes.failed + reads.failed,
        writes,
        reads,
        gate,
    })
}
