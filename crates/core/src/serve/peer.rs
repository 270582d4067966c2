//! The peer-process side of the serving tier: a thread-per-connection
//! server, frames read through a per-connection buffer and written in
//! one piece, hosting this process's share of the DHT stripes.
//!
//! Every peer process builds the *same* logical network — full overlay,
//! full membership, same `dfmax`/replication — but only ever receives
//! data-plane traffic for the stripes it owns (`stripe % nprocs ==
//! proc_index`), so the processes' stores are disjoint and their
//! traffic meters sum to the single-process equivalent. Control-plane
//! messages (joins, departures, restarts, settings, gossip rounds) are
//! broadcast to all processes, keeping each local overlay/membership
//! replica consistent.
//!
//! [`PeerHost::handle`] is the whole application: a pure function from
//! request frame to reply frame over an ordinary in-process backend — the
//! same handler every other backend runs. The connection loop around it
//! only moves frames, and performs the one thing a frame cannot: the
//! graceful shutdown ([`WireRequest::Shutdown`]) — acknowledge, take the
//! write lock (draining every in-flight request, which runs under the
//! read lock), seal the hot tier to the segment logs, exit. A
//! `SegmentStore`-backed process restarted over the same directory
//! recovers losslessly (`tests/serving_shutdown.rs`).

use crate::config::StoreConfig;
use crate::global_index::{local_backend, IndexResponse, IndexStore, IndexSweep};
use crate::serve::codec::{WireRequest, WireResponse, WIRE_VERSION};
use hdk_p2p::wire::{read_frame, write_frame, WireError, WireResult};
use hdk_p2p::{InProc, NetworkBackend, PGrid, PeerId, Request, Response};
use parking_lot::RwLock;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// Geometry of one peer process — everything the [`WireRequest::Hello`]
/// handshake verifies.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// Total peer processes hosting the stripes.
    pub nprocs: usize,
    /// This process's slot in `0..nprocs`.
    pub proc_index: usize,
    /// Logical peers in the overlay (across all processes).
    pub num_peers: usize,
    /// The paper's `DFmax`.
    pub dfmax: u32,
    /// Structural replication factor.
    pub replication: usize,
    /// Entry storage (in-memory, or a segment store for durability).
    pub store: StoreConfig,
}

/// One peer process: hosts its stripe share behind a listener.
pub struct PeerHost {
    config: PeerConfig,
    /// Read access for the data plane (the stripes have their own locks;
    /// this one only fences against control messages), write access for
    /// the control plane.
    backend: RwLock<InProc<IndexStore>>,
}

impl PeerHost {
    /// Builds the process-local backend: the full logical overlay over an
    /// empty store (content arrives over the wire).
    pub fn new(config: PeerConfig) -> Self {
        assert!(config.proc_index < config.nprocs, "proc_index out of range");
        let peer_ids: Vec<PeerId> = (0..config.num_peers as u64).map(PeerId).collect();
        let overlay = Box::new(PGrid::new(peer_ids));
        let backend = local_backend(overlay, config.dfmax, config.replication, &config.store);
        PeerHost {
            config,
            backend: RwLock::new(backend),
        }
    }

    /// Answers one request frame. A function of the request and this
    /// host's state only — no socket — so tests drive it directly.
    pub fn handle(&self, request: WireRequest) -> WireResponse {
        match request {
            WireRequest::Hello {
                version,
                nprocs,
                proc_index,
                num_peers,
                dfmax,
                replication,
            } => {
                let config = &self.config;
                let expect = (
                    WIRE_VERSION,
                    config.nprocs as u32,
                    config.proc_index as u32,
                    config.num_peers as u32,
                    config.dfmax,
                    config.replication as u32,
                );
                let got = (version, nprocs, proc_index, num_peers, dfmax, replication);
                if got == expect {
                    WireResponse::HelloOk
                } else {
                    WireResponse::Err(format!(
                        "handshake mismatch: front-end sent \
                         (version, nprocs, proc, peers, dfmax, r) = {got:?}, \
                         this process is {expect:?}"
                    ))
                }
            }
            WireRequest::Rpc(request) => reply(self.backend.read().call(&request)),
            WireRequest::Control(control) => reply(self.backend.write().control(control)),
            WireRequest::Snapshot => {
                WireResponse::Snapshot(Box::new(self.backend.read().snapshot()))
            }
            WireRequest::Health => WireResponse::Healthy {
                keys: self.backend.read().dht().num_keys() as u64,
            },
            // The drain-sync-exit sequence belongs to the connection that
            // delivers this acknowledgement.
            WireRequest::Shutdown => WireResponse::ShuttingDown,
        }
    }

    /// Serves connections until a [`WireRequest::Shutdown`] arrives
    /// (which exits the process). Each connection gets its own thread.
    pub fn serve(self, listener: TcpListener) -> std::io::Result<()> {
        let host = Arc::new(self);
        for stream in listener.incoming() {
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let host = Arc::clone(&host);
            std::thread::spawn(move || {
                let _ = host.serve_connection(stream);
            });
        }
        Ok(())
    }

    /// Runs one connection's request loop. Returns when the peer closes,
    /// errors out, or a malformed frame arrives (the connection is
    /// dropped — a corrupt stream cannot be resynchronized).
    fn serve_connection(&self, stream: TcpStream) -> WireResult<()> {
        stream.set_nodelay(true)?;
        // Requests are read through the buffer (a frame that fits it is
        // one `read`), replies written straight to the socket.
        let mut stream = BufReader::new(stream);
        loop {
            let payload = match read_frame(&mut stream) {
                Ok(p) => p,
                Err(WireError::Closed) => return Ok(()),
                Err(e) => return Err(e),
            };
            let response = match WireRequest::decode(&payload) {
                Ok(request) => self.handle(request),
                Err(e) => WireResponse::Err(format!("bad request frame: {e}")),
            };
            write_frame(stream.get_mut(), &response.encode())?;
            if matches!(response, WireResponse::ShuttingDown) {
                // Acknowledged (the front-end's request completed); now
                // drain: the write lock waits out every in-flight
                // request. Seal the hot tier so a segment-backed process
                // restarts losslessly, and exit.
                let backend = self.backend.write();
                backend.call(&Request::Sweep(IndexSweep::SyncStorage));
                std::process::exit(0);
            }
        }
    }
}

/// A refusal by the handler travels as the frame-level refusal, so the
/// front-end counts it like any other failed exchange.
fn reply(response: IndexResponse) -> WireResponse {
    match response {
        Response::Err(reason) => WireResponse::Err(reason),
        response => WireResponse::Rpc(response),
    }
}
