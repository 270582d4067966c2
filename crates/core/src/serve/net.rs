//! `TcpNet` — the third [`NetworkBackend`]: real sockets, N peer
//! processes.
//!
//! The index's 128 lock stripes are partitioned across `nprocs` peer
//! processes by `stripe % nprocs`, each running the same in-process
//! backend over its share. `TcpNet` is only the *delivery policy* in
//! front of them — per message one **scatter rule** and one **fold**:
//!
//! | message | goes to | replies |
//! |---|---|---|
//! | `InsertBatch`, `LookupMany` | each item to its stripe's owner | stitched back into request order |
//! | `Notify` | one process | — |
//! | `Repair`, `Rebalance`, every `Sweep` | every process | folded with [`Absorb`] |
//! | every [`Control`] | the mirror, then every process | folded with [`Absorb`] |
//!
//! The front-end keeps a zero-entry **mirror** `InProc` whose job is to
//! hold the authoritative overlay, membership and gossip state — what
//! [`NetworkBackend::dht`] shows — so routing decisions and liveness
//! checks need no round trip. Being empty, it also answers every
//! broadcast message with that message's neutral reply, which seeds the
//! fold: an unreachable process is then simply missing from the sum.
//!
//! Failure contract: a dead process costs a bounded timeout (or an
//! immediate connect error), never a hang — failed inserts come back
//! unacknowledged, failed lookups come back `None`, and the transport
//! error counter ticks so callers can distinguish "absent key" from
//! "absent peer".
//!
//! Because the stripe partition is exact and every process meters its
//! own traffic with the full logical peer set, summing the per-process
//! [`TrafficSnapshot`]s reproduces the single-process `InProc` counters
//! bit for bit (pinned by `tests/serving_multiproc.rs`, and without
//! sockets by `crates/core/tests/prop_backend.rs`).

use crate::config::net_timeout_from_env;
use crate::global_index::{IndexRequest, IndexResponse, IndexStore, KeyEntry};
use crate::serve::codec::{WireRequest, WireResponse, WIRE_VERSION};
use hdk_p2p::wire::{read_frame, write_frame, WireError, WireResult};
use hdk_p2p::{
    stripe_of, Absorb, Control, Dht, GossipMetering, InProc, KeyHash, LatencyHistogram, MsgKind,
    NetworkBackend, Overlay, PeerId, Request, Response, TrafficSnapshot, NUM_KINDS, NUM_STRIPES,
};
use parking_lot::Mutex;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Pooled persistent connections per peer process.
const POOL: usize = 4;

/// How [`TcpNet`] reaches its peer processes. Over TCP in production;
/// tests substitute an in-memory fleet to drive codec, scatter, fold and
/// handler without sockets.
pub trait Fleet: Send + Sync {
    /// How many peer processes host the stripes.
    fn nprocs(&self) -> usize;

    /// One exchange with process `proc`: delivers a request frame's
    /// payload, returns the reply frame's. A failed exchange may be
    /// repeated once only when `idempotent` — after the bytes left this
    /// host, the remote effect of anything else is in doubt.
    fn exchange(&self, proc: usize, payload: &[u8], idempotent: bool) -> WireResult<Vec<u8>>;
}

/// One peer process's client half: a small pool of lazily (re)connected
/// sockets, handed out round-robin so concurrent query threads don't
/// serialize on one stream.
struct PeerClient {
    addr: String,
    hello: Vec<u8>,
    pool: Vec<Mutex<Option<TcpStream>>>,
    next: AtomicUsize,
    timeout: Duration,
}

impl PeerClient {
    /// Opens a socket, applies the deadline and runs the handshake.
    fn open(&self) -> WireResult<TcpStream> {
        let mut last = WireError::Closed;
        for addr in std::net::ToSocketAddrs::to_socket_addrs(self.addr.as_str())? {
            match TcpStream::connect_timeout(&addr, self.timeout) {
                Ok(mut stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(self.timeout))?;
                    stream.set_write_timeout(Some(self.timeout))?;
                    write_frame(&mut stream, &self.hello)?;
                    return match WireResponse::decode(&read_frame(&mut stream)?)? {
                        WireResponse::HelloOk => Ok(stream),
                        WireResponse::Err(msg) => Err(WireError::Protocol(msg)),
                        other => Err(WireError::Protocol(format!(
                            "handshake answered with {other:?}"
                        ))),
                    };
                }
                Err(e) => last = e.into(),
            }
        }
        Err(last)
    }
}

/// The TCP fleet: one `PeerClient` per process. A stale pooled stream
/// (the process restarted since the last request) is dropped and
/// reconnected once for an idempotent exchange; anything else surfaces
/// the first error.
impl Fleet for Vec<PeerClient> {
    fn nprocs(&self) -> usize {
        self.len()
    }

    fn exchange(&self, proc: usize, payload: &[u8], idempotent: bool) -> WireResult<Vec<u8>> {
        let client = &self[proc];
        let slot = client.next.fetch_add(1, Ordering::Relaxed) % client.pool.len();
        let mut guard = client.pool[slot].lock();
        let attempts = if idempotent && guard.is_some() { 2 } else { 1 };
        let mut last = WireError::Closed;
        for _ in 0..attempts {
            let stream = match guard.as_mut() {
                Some(stream) => stream,
                None => guard.insert(client.open()?),
            };
            match write_frame(stream, payload).and_then(|()| read_frame(stream)) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    *guard = None;
                    last = e;
                }
            }
        }
        Err(last)
    }
}

/// The multi-process serving backend. See the module docs for the
/// stripe-partition, scatter-and-fold and mirror design.
pub struct TcpNet {
    /// Zero-entry local backend holding the authoritative overlay,
    /// membership and settings. Its stripes never receive data and its
    /// meter is never read.
    mirror: InProc<IndexStore>,
    fleet: Box<dyn Fleet>,
    /// Front-end wall-clock latency per request kind (the real-network
    /// analogue of SimNet's virtual histograms).
    rpc_latency: Mutex<[LatencyHistogram; NUM_KINDS]>,
    errors: AtomicU64,
}

impl TcpNet {
    /// Connects to `addrs` (one peer process each), verifying protocol
    /// version and index geometry with every process before any traffic
    /// flows. The overlay must describe the *full* logical peer set —
    /// the same construction every process ran.
    pub fn connect(
        addrs: &[String],
        overlay: Box<dyn Overlay>,
        dfmax: u32,
        replication: usize,
    ) -> WireResult<TcpNet> {
        let timeout = net_timeout_from_env();
        let clients: Vec<PeerClient> = addrs
            .iter()
            .enumerate()
            .map(|(i, addr)| PeerClient {
                addr: addr.clone(),
                hello: WireRequest::Hello {
                    version: WIRE_VERSION,
                    nprocs: addrs.len() as u32,
                    proc_index: i as u32,
                    num_peers: overlay.len() as u32,
                    dfmax,
                    replication: replication as u32,
                }
                .encode(),
                pool: (0..POOL).map(|_| Mutex::new(None)).collect(),
                next: AtomicUsize::new(0),
                timeout,
            })
            .collect();
        Self::over(Box::new(clients), overlay, dfmax, replication)
    }

    /// [`TcpNet::connect`] over an arbitrary [`Fleet`], whose processes
    /// must host the same geometry (`overlay`'s peers, `dfmax`,
    /// `replication`, stripes by `stripe % nprocs`).
    pub fn over(
        fleet: Box<dyn Fleet>,
        overlay: Box<dyn Overlay>,
        dfmax: u32,
        replication: usize,
    ) -> WireResult<TcpNet> {
        let nprocs = fleet.nprocs();
        if nprocs == 0 || nprocs > NUM_STRIPES {
            return Err(WireError::Protocol(format!(
                "the serving tier needs 1..={NUM_STRIPES} peer processes, got {nprocs}"
            )));
        }
        let net = TcpNet {
            mirror: InProc::replicated(overlay, IndexStore::new(dfmax), replication),
            fleet,
            rpc_latency: Mutex::new([LatencyHistogram::default(); NUM_KINDS]),
            errors: AtomicU64::new(0),
        };
        // Fail fast on a wrong topology: reach every process now.
        let health = WireRequest::Health.encode();
        for proc in 0..nprocs {
            match net.send(proc, &health, true)? {
                WireResponse::Healthy { .. } => {}
                other => {
                    return Err(WireError::Protocol(format!(
                        "process {proc} answered health with {other:?}"
                    )))
                }
            }
        }
        Ok(net)
    }

    /// The process hosting `route`'s stripe.
    fn owner_of(&self, route: KeyHash) -> usize {
        stripe_of(route) % self.fleet.nprocs()
    }

    fn note_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// One exchange with process `proc`. Every failure — transport,
    /// undecodable reply, refusal — ticks the error counter.
    fn send(&self, proc: usize, payload: &[u8], idempotent: bool) -> WireResult<WireResponse> {
        let reply = self
            .fleet
            .exchange(proc, payload, idempotent)
            .and_then(|reply| WireResponse::decode(&reply))
            .and_then(|reply| match reply {
                WireResponse::Err(msg) => Err(WireError::Protocol(msg)),
                reply => Ok(reply),
            });
        if reply.is_err() {
            self.note_error();
        }
        reply
    }

    /// Delivers `payload_of(p)` to every listed process `p` —
    /// concurrently when there are several, so a slow (or dead) process
    /// costs its own timeout, not the sum of everyone's — recording each
    /// exchange's wall-clock latency under `kind`. Returns the replies in
    /// `procs` order, `None` where none arrived (already counted as an
    /// error).
    fn deliver<'a>(
        &self,
        procs: &[usize],
        payload_of: impl Fn(usize) -> &'a [u8] + Sync,
        idempotent: bool,
        kind: Option<MsgKind>,
    ) -> Vec<Option<IndexResponse>> {
        let one = |proc: usize| {
            let started = Instant::now();
            let reply = self.send(proc, payload_of(proc), idempotent);
            if let Some(kind) = kind {
                let elapsed = started.elapsed().as_nanos() as u64;
                self.rpc_latency.lock()[kind.slot()].record_sample(elapsed);
            }
            match reply {
                Ok(WireResponse::Rpc(response)) => Some(response),
                Ok(_) => {
                    self.note_error();
                    None
                }
                Err(_) => None,
            }
        };
        if let [proc] = procs {
            return vec![one(*proc)];
        }
        let one = &one;
        std::thread::scope(|scope| {
            let workers: Vec<_> = procs
                .iter()
                .map(|&proc| scope.spawn(move || one(proc)))
                .collect();
            workers
                .into_iter()
                .map(|worker| {
                    worker.join().unwrap_or_else(|_| {
                        self.note_error();
                        None
                    })
                })
                .collect()
        })
    }

    /// Delivers `payload_of(p)` to every process `p` and folds the replies
    /// that arrive into `seed` — the mirror's own reply to the same
    /// message.
    fn broadcast<'a>(
        &self,
        mut seed: IndexResponse,
        payload_of: impl Fn(usize) -> &'a [u8] + Sync,
        kind: Option<MsgKind>,
    ) -> IndexResponse {
        let procs: Vec<usize> = (0..self.fleet.nprocs()).collect();
        let replies = self.deliver(&procs, payload_of, true, kind);
        for reply in replies.into_iter().flatten() {
            seed.absorb(reply);
        }
        seed
    }

    /// Delivers `parts[p]` to every process `p` that has a part, and
    /// returns `(p, reply)` for the replies that arrived.
    fn scatter(
        &self,
        parts: Vec<Option<IndexRequest>>,
        idempotent: bool,
        kind: Option<MsgKind>,
    ) -> Vec<(usize, IndexResponse)> {
        let payloads: Vec<Option<Vec<u8>>> = parts
            .into_iter()
            .map(|part| part.map(|request| WireRequest::Rpc(request).encode()))
            .collect();
        let active: Vec<usize> = (0..payloads.len())
            .filter(|&proc| payloads[proc].is_some())
            .collect();
        let replies = self.deliver(
            &active,
            |proc| payloads[proc].as_deref().unwrap_or_default(),
            idempotent,
            kind,
        );
        active
            .into_iter()
            .zip(replies)
            .filter_map(|(proc, reply)| Some((proc, reply?)))
            .collect()
    }
}

impl std::fmt::Debug for TcpNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpNet")
            .field("nprocs", &self.fleet.nprocs())
            .field("errors", &self.transport_errors())
            .finish_non_exhaustive()
    }
}

impl NetworkBackend<IndexStore> for TcpNet {
    fn call(&self, request: IndexRequest) -> IndexResponse {
        let nprocs = self.fleet.nprocs();
        let kind = request.kind();
        match request {
            Request::InsertBatch { batches } => {
                // Pre-shape the acks (all-false), then move every item to
                // its owner's part, remembering where it came from. A
                // part keeps the round's canonical (peer, key) order.
                let mut acks: Vec<_> = batches
                    .iter()
                    .map(|(peer, items)| (*peer, vec![false; items.len()]))
                    .collect();
                let mut parts: Vec<Vec<(PeerId, Vec<_>)>> =
                    (0..nprocs).map(|_| Vec::new()).collect();
                let mut origins: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nprocs];
                for (bi, (peer, items)) in batches.into_iter().enumerate() {
                    for (ii, item) in items.into_iter().enumerate() {
                        let proc = self.owner_of(item.route);
                        match parts[proc].last_mut() {
                            Some((last, part)) if *last == peer => part.push(item),
                            _ => parts[proc].push((peer, vec![item])),
                        }
                        origins[proc].push((bi, ii));
                    }
                }
                let parts = parts
                    .into_iter()
                    .map(|batches| {
                        (!batches.is_empty()).then_some(Request::InsertBatch { batches })
                    })
                    .collect();
                // Inserts are not idempotent (merges accumulate), so no
                // automatic retry: a failed exchange leaves its items
                // unacknowledged.
                for (proc, reply) in self.scatter(parts, false, kind) {
                    if let Response::Inserted { acks: remote } = reply {
                        let flags = remote.into_iter().flat_map(|(_, flags)| flags);
                        for (&(bi, ii), flag) in origins[proc].iter().zip(flags) {
                            acks[bi].1[ii] = flag;
                        }
                    }
                }
                Response::Inserted { acks }
            }
            Request::LookupMany {
                from,
                query_id,
                keys,
            } => {
                let mut results = vec![None; keys.len()];
                let mut parts: Vec<Vec<_>> = (0..nprocs).map(|_| Vec::new()).collect();
                let mut origins: Vec<Vec<usize>> = vec![Vec::new(); nprocs];
                for (i, key) in keys.into_iter().enumerate() {
                    let proc = self.owner_of(key.route);
                    parts[proc].push(key);
                    origins[proc].push(i);
                }
                let parts = parts
                    .into_iter()
                    .map(|keys| {
                        (!keys.is_empty()).then_some(Request::LookupMany {
                            from,
                            query_id,
                            keys,
                        })
                    })
                    .collect();
                // Lookups are read-only: safe to retry once.
                for (proc, reply) in self.scatter(parts, true, kind) {
                    if let Response::Found { results: found } = reply {
                        for (&i, result) in origins[proc].iter().zip(found) {
                            results[i] = result;
                        }
                    }
                }
                Response::Found { results }
            }
            // Which process meters a notification is free — only the
            // fleet's summed meters are observable — so the first one
            // does. Metering is not idempotent: no retry.
            request @ Request::Notify { .. } => {
                self.scatter(vec![Some(request)], false, kind);
                Response::Notified
            }
            request @ (Request::Repair | Request::Rebalance | Request::Sweep(_)) => {
                let seed = self.mirror.call(request.clone());
                let payload = WireRequest::Rpc(request).encode();
                self.broadcast(seed, |_| &payload, kind)
            }
        }
    }

    /// Mirror first (routing state), then every process applies the same
    /// message to its stripes; what they report sums across the disjoint
    /// stripe sets. A gossip round thereby runs in lockstep: every
    /// process advances its *identical* deterministic replica of the
    /// state (guarded by the round number, so one that fell out of step
    /// refuses instead of diverging) and meters only its own share of the
    /// probes, while the mirror meters none.
    fn control(&mut self, control: Control) -> IndexResponse {
        let nprocs = self.fleet.nprocs();
        let metered = |metering| match &control {
            Control::EnableGossip { config, .. } => Control::EnableGossip {
                config: *config,
                metering,
            },
            control => control.clone(),
        };
        let seed = self.mirror.control(metered(GossipMetering::Mirror));
        if matches!(seed, Response::Err(_)) {
            return seed;
        }
        let payloads: Vec<Vec<u8>> = (0..nprocs)
            .map(|index| {
                WireRequest::Control(metered(GossipMetering::Partition { nprocs, index })).encode()
            })
            .collect();
        self.broadcast(seed, |proc| &payloads[proc], None)
    }

    fn dht(&self) -> &Dht<KeyEntry> {
        self.mirror.dht()
    }

    /// System-wide traffic: the sum of every process's meter (the data
    /// plane is stripe-partitioned, so counts add exactly), plus the
    /// front-end's wall-clock request latencies folded into the per-kind
    /// histograms. The mirror's meter is excluded — it never carries
    /// data-plane traffic, and its control-plane records would
    /// double-count the broadcasts.
    fn snapshot(&self) -> TrafficSnapshot {
        let peers = self.mirror.dht().overlay().len();
        let mut merged = TrafficSnapshot {
            inserted_by_peer: vec![0; peers],
            retrieved_by_peer: vec![0; peers],
            served_by_peer: vec![0; peers],
            ..TrafficSnapshot::default()
        };
        let payload = WireRequest::Snapshot.encode();
        for proc in 0..self.fleet.nprocs() {
            if let Ok(WireResponse::Snapshot(snapshot)) = self.send(proc, &payload, true) {
                merged.absorb(*snapshot);
            }
        }
        merged.latency.absorb(*self.rpc_latency.lock());
        merged
    }

    fn transport_errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}
