//! The two systems a workload can drive, behind one trait.
//!
//! [`WorkloadTarget`] abstracts "something that accepts update batches
//! and answers live queries" so the ramping driver measures the
//! in-process engine and the socket service with the same code path —
//! the difference between the two *is* the measurement.

use std::net::{TcpStream, ToSocketAddrs};

use lps_service::{
    Frame, Query, Reply, ServiceClient, ServiceConfig, ServiceCore, ServiceError, SnapshotHandle,
};
use lps_stream::Update;

/// A load-test target: a sink for update batches and a live-query server.
pub trait WorkloadTarget {
    /// Short name stamped into reports (`"engine"` / `"service"`).
    fn name(&self) -> &'static str;

    /// Apply one batch of updates for `tenant` (0 = the shared catalog).
    fn write(&mut self, tenant: u64, updates: &[Update]) -> Result<(), ServiceError>;

    /// Answer one live query, discarding the reply's content (the driver
    /// measures latency, not answers — answer *quality* is covered by the
    /// service and bench test suites).
    fn read(&mut self, query: Query) -> Result<(), ServiceError>;
}

/// The in-process target: a [`ServiceCore`] driven directly, with reads
/// served from its published snapshots — the service's data path minus
/// the socket, framing, and thread hand-off.
pub struct EngineTarget {
    core: ServiceCore,
    snapshots: SnapshotHandle,
}

impl EngineTarget {
    /// Build a standard catalog core from `config`.
    pub fn new(config: &ServiceConfig) -> Self {
        let core = ServiceCore::new(config);
        let snapshots = core.snapshot_handle();
        EngineTarget { core, snapshots }
    }

    /// Total updates the core accepted (for throughput accounting).
    pub fn accepted(&self) -> u64 {
        self.core.accepted()
    }
}

impl WorkloadTarget for EngineTarget {
    fn name(&self) -> &'static str {
        "engine"
    }

    fn write(&mut self, tenant: u64, updates: &[Update]) -> Result<(), ServiceError> {
        match self.core.apply(Frame::UpdateBatch { tenant, updates: updates.to_vec() })? {
            Frame::Reply(Reply::Ack { .. }) => Ok(()),
            other => Err(ServiceError::Proto(lps_service::ProtoError::Malformed {
                context: unexpected_reply(&other),
            })),
        }
    }

    fn read(&mut self, query: Query) -> Result<(), ServiceError> {
        self.snapshots.serve(&query).map(|_| ())
    }
}

/// The socket target: a [`ServiceClient`] over TCP, measuring the full
/// stack — framing, checksums, the connection thread's apply under the
/// core lock (a write completes at its ack, once staged and counted), and
/// snapshot reads on the connection thread.
pub struct SocketTarget {
    client: ServiceClient<TcpStream>,
}

impl SocketTarget {
    /// Connect and handshake (optionally authenticating with `token`).
    pub fn connect<A: ToSocketAddrs>(addr: A, token: Option<&str>) -> Result<Self, ServiceError> {
        let client = match token {
            Some(t) => ServiceClient::connect_tcp_with_token(addr, t)?,
            None => ServiceClient::connect_tcp(addr)?,
        };
        Ok(SocketTarget { client })
    }

    /// Send the shutdown frame and recover the server's accepted count.
    pub fn shutdown(self) -> Result<u64, ServiceError> {
        self.client.shutdown()
    }
}

impl WorkloadTarget for SocketTarget {
    fn name(&self) -> &'static str {
        "service"
    }

    fn write(&mut self, tenant: u64, updates: &[Update]) -> Result<(), ServiceError> {
        self.client.send_updates(tenant, updates).map(|_| ())
    }

    fn read(&mut self, query: Query) -> Result<(), ServiceError> {
        self.client.query(query).map(|_| ())
    }
}

fn unexpected_reply(_frame: &Frame) -> &'static str {
    "update batch was not acknowledged"
}
