//! The blocking socket front-end: std-only listeners feeding the sans-io
//! [`ServiceCore`], which connection threads share under one lock.
//!
//! ## Threading model
//!
//! * **Acceptor thread** — polls a non-blocking listener, spawns one
//!   connection thread per accepted socket, and joins them on shutdown. It
//!   never takes the core lock, so a stalled ingest pipeline cannot stop new
//!   connections from being accepted.
//! * **Connection threads** — frame the byte stream through a per-connection
//!   [`FrameCodec`], answer live queries (sample / point-estimate /
//!   duplicates) directly from the [`SnapshotHandle`] without any ingest
//!   coordination, and apply ingest-ordered frames (update batches,
//!   checkpoint uploads, digest queries, shutdown) themselves, under the
//!   core's mutex. Arrival order is lock order, so a digest is linearized
//!   with the writes before it. The guard is dropped before the reply is
//!   encoded and written: a slow socket never holds ingestion.
//!
//! An update batch is acknowledged once it is staged and counted under the
//! core lock. The tenant-0 batches it seals reach the catalog's workers
//! right after the ack is written: the connection locks the core again and
//! sends every sealed batch still unsent, whichever connection sealed it.
//! Every publish sends what is staged first, so digests stay linearized.
//!
//! Backpressure parks the producing connection, on the core lock or on a
//! full channel of a catalog worker: that wait comes after its ack, before
//! it reads its next frame. Lock order is the core lock, then the
//! snapshot-store lock inside a publish; live queries take only the
//! snapshot-store lock.
//!
//! Failures stay scoped to their connection: a malformed byte stream earns
//! a best-effort [`Frame::Error`] and a close, a rejected upload (for
//! example a [`PlanMismatch`](lps_sketch::DecodeError::PlanMismatch)
//! envelope) earns a typed [`Frame::Error`] **and the connection keeps
//! going** — the protocol distinguishes "your request was bad" from "this
//! conversation is over".

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::Poll;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::merge::{ServiceConfig, ServiceCore, SnapshotHandle};
use crate::proto::{ErrorCode, Frame, FrameCodec, Query, Reply, PROTOCOL_VERSION};
use crate::ServiceError;

/// How long blocking reads wait before re-checking the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(250);
/// How long the acceptor sleeps when no connection is pending or an
/// accept failed.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// The socket transports a connection thread can sit on. Both TCP and Unix
/// streams qualify; the trait erases the difference so one connection loop
/// serves both listeners.
trait Connection: Read + Write + Send {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
}

impl Connection for TcpStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, dur)
    }
}

#[cfg(unix)]
impl Connection for UnixStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, dur)
    }
}

/// A non-blocking accept source (TCP or Unix listener).
trait Acceptor: Send {
    /// Accept one pending connection, or `None` when none is waiting.
    fn poll_accept(&self) -> io::Result<Option<Box<dyn Connection>>>;
}

impl Acceptor for TcpListener {
    fn poll_accept(&self) -> io::Result<Option<Box<dyn Connection>>> {
        match self.accept() {
            Ok((stream, _)) => Ok(Some(Box::new(stream))),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(unix)]
impl Acceptor for UnixListener {
    fn poll_accept(&self) -> io::Result<Option<Box<dyn Connection>>> {
        match self.accept() {
            Ok((stream, _)) => Ok(Some(Box::new(stream))),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// A running service instance: the acceptor and its connection threads,
/// stoppable from the handle.
///
/// ```no_run
/// use lps_service::{RunningServer, ServiceConfig};
///
/// let config = ServiceConfig::new(1 << 12, 0xC0FE);
/// let server = RunningServer::bind_tcp("127.0.0.1:0", config).unwrap();
/// println!("listening on {}", server.local_addr().unwrap());
/// server.stop();
/// ```
pub struct RunningServer {
    addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    core: Arc<Mutex<ServiceCore>>,
    acceptor: Option<JoinHandle<()>>,
}

impl RunningServer {
    /// Bind a TCP listener (use port 0 to let the OS choose, then read it
    /// back from [`RunningServer::local_addr`]) and start serving.
    pub fn bind_tcp<A: ToSocketAddrs>(
        addr: A,
        config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        Ok(Self::start(Box::new(listener), Some(local), config))
    }

    /// Bind a Unix-domain listener at `path` and start serving.
    #[cfg(unix)]
    pub fn bind_unix<P: AsRef<Path>>(path: P, config: ServiceConfig) -> Result<Self, ServiceError> {
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Ok(Self::start(Box::new(listener), None, config))
    }

    fn start(listener: Box<dyn Acceptor>, addr: Option<SocketAddr>, config: ServiceConfig) -> Self {
        let core = ServiceCore::new(&config);
        let snapshots = core.snapshot_handle();
        let core = Arc::new(Mutex::new(core));
        let shutdown = Arc::new(AtomicBool::new(false));
        let auth_token = config.auth_token.clone().map(Arc::new);
        let acceptor = {
            let core = Arc::clone(&core);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || accept_loop(listener, core, snapshots, shutdown, auth_token))
        };
        RunningServer { addr, shutdown, core, acceptor: Some(acceptor) }
    }

    /// The bound TCP address (`None` for Unix-domain servers).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Stop the server from this side: flag shutdown, then join the
    /// acceptor (which joins its connections). Returns the total updates
    /// the core accepted.
    pub fn stop(mut self) -> u64 {
        self.shutdown.store(true, Ordering::SeqCst);
        self.join_threads()
    }

    /// Wait for the server to be shut down by a client's
    /// [`Frame::Shutdown`], then join everything. Returns the total
    /// updates the core accepted.
    pub fn join(mut self) -> u64 {
        self.join_threads()
    }

    /// Join the acceptor, which returns once shutdown is flagged and its
    /// connections have closed, then read the final count. A core whose
    /// lock a panic poisoned reports 0.
    fn join_threads(&mut self) -> u64 {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        self.core.lock().map(|core| core.accepted()).unwrap_or(0)
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.join_threads();
    }
}

/// The acceptor thread: polls the listener, spawns connection threads, and
/// joins them all once shutdown is flagged.
fn accept_loop(
    listener: Box<dyn Acceptor>,
    core: Arc<Mutex<ServiceCore>>,
    snapshots: SnapshotHandle,
    shutdown: Arc<AtomicBool>,
    auth_token: Option<Arc<String>>,
) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.poll_accept() {
            Ok(Some(conn)) => {
                let core = Arc::clone(&core);
                let snapshots = snapshots.clone();
                let shutdown = Arc::clone(&shutdown);
                let auth_token = auth_token.clone();
                connections.push(std::thread::spawn(move || {
                    serve_connection(conn, core, snapshots, shutdown, auth_token)
                }));
            }
            // accept(2) fails transiently (an aborted connection, a pending
            // network error, EMFILE until descriptors are freed), and the
            // caller must retry: a failed accept waits like an empty one.
            Ok(None) | Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
        connections.retain(|handle| !handle.is_finished());
    }
    for handle in connections {
        let _ = handle.join();
    }
}

/// Encode and write one frame.
fn write_frame(conn: &mut dyn Connection, frame: &Frame) -> io::Result<()> {
    let mut wire = Vec::new();
    FrameCodec::encode(frame, &mut wire);
    conn.write_all(&wire)
}

/// One connection's full lifetime: frame the byte stream, route each frame,
/// write each reply.
fn serve_connection(
    mut conn: Box<dyn Connection>,
    core: Arc<Mutex<ServiceCore>>,
    snapshots: SnapshotHandle,
    shutdown: Arc<AtomicBool>,
    auth_token: Option<Arc<String>>,
) {
    if conn.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    // An open server starts authenticated; a tokened one requires a
    // matching `Hello` before any other frame is served.
    let mut authed = auth_token.is_none();
    let mut codec = FrameCodec::new();
    let mut chunk = [0u8; 16 * 1024];
    'conn: loop {
        let n = match conn.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        let mut pending = &chunk[..n];
        loop {
            // Feed once, then keep polling: one read may complete several
            // frames, and each must be answered in order.
            let step = if pending.is_empty() { codec.poll() } else { codec.feed(pending) };
            pending = &[];
            match step {
                Ok(Poll::Pending) => break,
                Ok(Poll::Ready(frame)) => {
                    if !handle_frame(
                        conn.as_mut(),
                        frame,
                        &core,
                        &shutdown,
                        &snapshots,
                        auth_token.as_deref(),
                        &mut authed,
                    ) {
                        break 'conn;
                    }
                }
                Err(e) => {
                    // The codec is poisoned: the stream cannot be re-framed
                    // past this point, so report and hang up.
                    let _ = write_frame(
                        conn.as_mut(),
                        &Frame::Error { code: ErrorCode::Proto, detail: e.to_string() },
                    );
                    break 'conn;
                }
            }
        }
    }
}

/// Run `f` on the core under its lock, then write its reply once the guard
/// is dropped: a slow socket never holds ingestion. If the core then holds
/// sealed batches its workers have not been sent (this frame's, or another
/// connection's), lock again and send them all: the ack goes out before
/// the fan-out, and a full worker channel parks this connection before it
/// reads its next frame. A core that is shutting down, or whose lock a
/// panic mid-apply poisoned, gets a typed `Internal` refusal instead, and
/// `false` closes the connection.
fn apply_locked(
    conn: &mut dyn Connection,
    core: &Mutex<ServiceCore>,
    shutdown: &AtomicBool,
    f: impl FnOnce(&mut ServiceCore) -> Frame,
) -> bool {
    let response = match core.lock() {
        Ok(mut guard) if !shutdown.load(Ordering::SeqCst) => {
            Some((f(&mut guard), guard.has_unsent()))
        }
        _ => None,
    };
    match response {
        Some((response, unsent)) => {
            let open = write_frame(conn, &response).is_ok();
            if unsent {
                if let Ok(mut guard) = core.lock() {
                    guard.fan_out();
                }
            }
            open
        }
        None => {
            let detail = "service is shutting down".to_string();
            let _ = write_frame(conn, &Frame::Error { code: ErrorCode::Internal, detail });
            false
        }
    }
}

/// Route one decoded frame; `false` means the connection should close.
fn handle_frame(
    conn: &mut dyn Connection,
    frame: Frame,
    core: &Mutex<ServiceCore>,
    shutdown: &AtomicBool,
    snapshots: &SnapshotHandle,
    auth_token: Option<&String>,
    authed: &mut bool,
) -> bool {
    // A tokened server serves nothing before a successful `Hello`: every
    // other frame earns a typed rejection and a close.
    if !*authed && !matches!(frame, Frame::Hello { .. }) {
        let _ = write_frame(
            conn,
            &Frame::Error {
                code: ErrorCode::Unauthorized,
                detail: "authenticate with a hello frame first".to_string(),
            },
        );
        return false;
    }
    match frame {
        Frame::Hello { major, token, .. } => {
            if major != PROTOCOL_VERSION {
                let _ = write_frame(
                    conn,
                    &Frame::Error {
                        code: ErrorCode::Unsupported,
                        detail: format!(
                            "protocol major {major} is not supported (server speaks {PROTOCOL_VERSION})"
                        ),
                    },
                );
                return false;
            }
            if let Some(required) = auth_token {
                if token.as_ref() != Some(required) {
                    // Absent and mismatched tokens are rejected alike; the
                    // detail never echoes the expected token.
                    let _ = write_frame(
                        conn,
                        &Frame::Error {
                            code: ErrorCode::Unauthorized,
                            detail: "hello token is missing or does not match".to_string(),
                        },
                    );
                    return false;
                }
                *authed = true;
            }
            write_frame(conn, &Frame::Hello { major: PROTOCOL_VERSION, minor: 0, token: None })
                .is_ok()
        }
        // Live queries: answered from the published snapshot, never
        // taking the core lock — ingestion load cannot delay them.
        Frame::Query(
            query @ (Query::Sample { .. } | Query::PointEstimate { .. } | Query::Duplicates { .. }),
        ) => {
            let response = match snapshots.serve(&query) {
                Ok(reply) => Frame::Reply(reply),
                Err(e) => e.to_error_frame(),
            };
            write_frame(conn, &response).is_ok()
        }
        Frame::Shutdown => {
            // The flag is set under the lock, so every frame that takes the
            // lock after this one is refused: nothing is applied after the
            // ack. One final publish lets a post-mortem reader of the
            // snapshot handle see everything.
            apply_locked(conn, core, shutdown, |core| {
                shutdown.store(true, Ordering::SeqCst);
                match core.publish_all() {
                    Ok(()) => Frame::Reply(Reply::Ack { accepted: core.accepted() }),
                    Err(e) => e.to_error_frame(),
                }
            });
            false
        }
        // Everything else is ingest-ordered: update batches, checkpoint
        // uploads, digest queries. Waiting for the lock, or for a full
        // worker channel in the fan-out after the ack, is the backpressure
        // point.
        frame @ (Frame::UpdateBatch { .. } | Frame::CheckpointUpload { .. } | Frame::Query(_)) => {
            apply_locked(conn, core, shutdown, |core| {
                core.accept(frame).unwrap_or_else(|e| e.to_error_frame())
            })
        }
        // A server never expects replies or errors from a client; flag it
        // but keep the conversation open.
        Frame::Reply(_) | Frame::Error { .. } => write_frame(
            conn,
            &Frame::Error {
                code: ErrorCode::Proto,
                detail: "unexpected reply/error frame from client".to_string(),
            },
        )
        .is_ok(),
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::ServiceClient;

    /// A scripted listener: each poll pops the next accept result.
    impl Acceptor for Mutex<Vec<io::Result<UnixStream>>> {
        fn poll_accept(&self) -> io::Result<Option<Box<dyn Connection>>> {
            match self.lock().expect("no test thread panics holding it").pop() {
                Some(accepted) => accepted.map(|conn| Some(Box::new(conn) as Box<dyn Connection>)),
                None => Ok(None),
            }
        }
    }

    #[test]
    fn the_acceptor_keeps_accepting_after_a_failed_accept() {
        let (server_end, client_end) = UnixStream::pair().expect("socket pair");
        // popped from the back: a peer that reset before `accept` returned, then a live one
        let script = vec![Ok(server_end), Err(io::ErrorKind::ConnectionAborted.into())];
        let server = RunningServer::start(
            Box::new(Mutex::new(script)),
            None,
            ServiceConfig::new(1 << 10, 7),
        );
        client_end.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
        ServiceClient::handshake(client_end).expect("the connection after the failure is served");
        server.stop();
    }
}
