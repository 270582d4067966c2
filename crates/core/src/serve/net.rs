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
//! | `Repair`, `Rebalance`, every `Sweep` | every process | folded (`fold`) |
//! | every [`Control`] | the mirror, then every process | folded (`fold`) |
//!
//! Whatever the rule, the frames are written to all their processes,
//! then read from all, on the calling thread ([`Fleet::exchange`]): the
//! processes work concurrently and a request never costs a thread.
//!
//! The front-end keeps a zero-entry **mirror** `InProc` whose job is to
//! hold the authoritative overlay, membership and gossip state — what
//! [`NetworkBackend::dht`] shows — so routing decisions and liveness
//! checks need no round trip. Being empty, it also answers every
//! broadcast message with that message's neutral reply, which seeds the
//! fold: an unreachable process is then simply missing from the sum.
//!
//! Failure contract: a dead process costs a bounded timeout (or an
//! immediate connect error), never a hang, and — the reads of one
//! message sharing a deadline — its own timeout, not the sum of
//! everyone's. Failed inserts come back unacknowledged, failed lookups
//! come back `None`, and the transport error counter ticks so callers
//! can distinguish "absent key" from "absent peer". So does a reply that
//! cannot be used whole: a refusal, a reply of another shape than the
//! message's (for a broadcast, than the mirror's), or more or fewer acks
//! or results than items sent. Only the mirror's refusal comes back as
//! the call's `Err`.
//!
//! Because the stripe partition is exact and every process meters its
//! own traffic with the full logical peer set, summing the per-process
//! [`TrafficSnapshot`]s reproduces the single-process `InProc` counters
//! bit for bit (pinned by `tests/serving_multiproc.rs`, and without
//! sockets by `crates/core/tests/prop_backend.rs`).

use crate::config::net_timeout_from_env;
use crate::global_index::{
    IndexRequest, IndexResponse, IndexStore, IndexSwept, KeyEntry, KeyLookup,
};
use crate::serve::codec::{WireRequest, WireResponse, WIRE_VERSION};
use hdk_p2p::wire::{read_frame, write_frame, WireError, WireResult};
use hdk_p2p::{
    stripe_of, Absorb, Control, Dht, GossipMetering, InProc, KeyHash, LatencyHistogram, MsgKind,
    NetworkBackend, PGrid, PeerId, Reply, Request, Response, TrafficSnapshot, Wire, NUM_KINDS,
    NUM_STRIPES,
};
use parking_lot::Mutex;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Pooled persistent connections per peer process.
const POOL: usize = 4;

/// How long a read waits once another read of its scatter has timed out.
const LATE_PATIENCE: Duration = Duration::from_millis(1);

/// How [`TcpNet`] reaches its peer processes. Over TCP in production;
/// tests substitute an in-memory fleet to drive codec, scatter, fold and
/// handler without sockets.
pub trait Fleet: Send + Sync {
    /// How many peer processes host the stripes.
    fn nprocs(&self) -> usize;

    /// Several exchanges at once: delivers each `(process, request frame
    /// payload)` — distinct processes, ascending — and returns the reply
    /// frames' payloads in the same order. A failed exchange may be
    /// repeated once only when `idempotent` — after the bytes left this
    /// host, the remote effect of anything else is in doubt.
    fn exchange(&self, requests: &[(usize, &[u8])], idempotent: bool) -> Vec<WireResult<Vec<u8>>>;
}

/// A pooled connection: requests are written to the socket, replies read
/// through the buffer (a frame that fits it is one `read`).
type Conn = BufReader<TcpStream>;

/// One peer process's client half: a small pool of lazily (re)connected
/// sockets, handed out round-robin so concurrent query threads don't
/// serialize on one stream.
struct PeerClient {
    addr: String,
    hello: Vec<u8>,
    pool: Vec<Mutex<Option<Conn>>>,
    next: AtomicUsize,
    timeout: Duration,
}

impl PeerClient {
    /// Opens a socket, applies the deadline and runs the handshake.
    fn open(&self) -> WireResult<Conn> {
        let mut last = WireError::Closed;
        for addr in std::net::ToSocketAddrs::to_socket_addrs(self.addr.as_str())? {
            match TcpStream::connect_timeout(&addr, self.timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(self.timeout))?;
                    stream.set_write_timeout(Some(self.timeout))?;
                    let mut conn = BufReader::new(stream);
                    write_frame(conn.get_mut(), &self.hello)?;
                    return match WireResponse::decode(&read_frame(&mut conn)?)? {
                        WireResponse::HelloOk => Ok(conn),
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

    /// Writes one request frame to the pooled connection — a fresh one
    /// where there is none — and returns it, now owing a reply.
    fn send(&self, pooled: Option<Conn>, payload: &[u8]) -> WireResult<Conn> {
        let mut conn = pooled.map_or_else(|| self.open(), Ok)?;
        write_frame(conn.get_mut(), payload)?;
        Ok(conn)
    }

    /// Reads the reply `conn` owes. Every request of a scatter is out
    /// before its first read, so once one read has timed out (`late`) any
    /// reply not here yet has had its whole timeout too: later reads only
    /// collect what has arrived.
    fn receive(&self, conn: &mut Conn, late: &mut bool) -> WireResult<Vec<u8>> {
        if *late {
            conn.get_ref().set_read_timeout(Some(LATE_PATIENCE))?;
        }
        let reply = read_frame(conn);
        if *late {
            conn.get_ref().set_read_timeout(Some(self.timeout))?;
        }
        *late |= matches!(reply, Err(WireError::Timeout));
        reply
    }
}

/// The TCP fleet: one `PeerClient` per process, every request written
/// before any reply is awaited. A stale pooled stream (the process
/// restarted since the last request) is reconnected once for an
/// idempotent exchange, for that process alone; anything else surfaces
/// the first error. Only a connection that delivered its reply goes back
/// to the pool.
impl Fleet for Vec<PeerClient> {
    fn nprocs(&self) -> usize {
        self.len()
    }

    fn exchange(&self, requests: &[(usize, &[u8])], idempotent: bool) -> Vec<WireResult<Vec<u8>>> {
        // Slots are locked in the requests' ascending process order, one
        // per process, so concurrent scatters cannot deadlock.
        let sent: Vec<_> = requests
            .iter()
            .map(|&(proc, payload)| {
                let client = &self[proc];
                let slot = client.next.fetch_add(1, Ordering::Relaxed) % client.pool.len();
                let mut slot = client.pool[slot].lock();
                let retry = idempotent && slot.is_some();
                let sent = client.send(slot.take(), payload);
                (sent, client, slot, retry, payload)
            })
            .collect();
        let mut late = false;
        sent.into_iter()
            .map(|(sent, client, mut slot, retry, payload)| {
                let mut reply_on = |sent: WireResult<Conn>| {
                    let mut conn = sent?;
                    let reply = client.receive(&mut conn, &mut late)?;
                    *slot = Some(conn);
                    Ok(reply)
                };
                match reply_on(sent) {
                    // A slow process, not a stale stream: final.
                    Err(WireError::Timeout) => Err(WireError::Timeout),
                    Err(_) if retry => reply_on(client.send(None, payload)),
                    reply => reply,
                }
            })
            .collect()
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
    /// the same construction every process ran. A malformed
    /// `HDK_NET_TIMEOUT_MS` is a [`WireError::Protocol`].
    pub fn connect(
        addrs: &[String],
        overlay: Box<PGrid>,
        dfmax: u32,
        replication: usize,
    ) -> WireResult<TcpNet> {
        let timeout = net_timeout_from_env().map_err(WireError::Protocol)?;
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
        overlay: Box<PGrid>,
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
        let health = (0..nprocs).map(|proc| (proc, WireRequest::Health.encode()));
        for (proc, reply) in net.deliver(health.collect(), true, None) {
            let reply = reply?;
            if !matches!(reply, WireResponse::Healthy { .. }) {
                return Err(WireError::Protocol(format!(
                    "process {proc} answered health with {reply:?}"
                )));
            }
        }
        Ok(net)
    }

    /// Delivers each `(process, payload)` — processes ascending, each
    /// payload an encoded [`WireRequest`] — in one [`Fleet::exchange`],
    /// recording its wall-clock latency under `kind` once per frame.
    /// Returns `(process, reply)` in that order; a failure (transport,
    /// undecodable reply, refusal) ticks the error counter.
    fn deliver(
        &self,
        payloads: Vec<(usize, Vec<u8>)>,
        idempotent: bool,
        kind: Option<MsgKind>,
    ) -> Vec<(usize, WireResult<WireResponse>)> {
        let requests: Vec<(usize, &[u8])> =
            (payloads.iter().map(|(proc, payload)| (*proc, &payload[..]))).collect();
        let started = Instant::now();
        let replies = self.fleet.exchange(&requests, idempotent);
        if let Some(kind) = kind {
            let elapsed = started.elapsed().as_nanos() as u64;
            let mut latency = self.rpc_latency.lock();
            for _ in &requests {
                latency[kind.slot()].record_sample(elapsed);
            }
        }
        let decoded = requests.iter().zip(replies).map(|(&(proc, _), reply)| {
            let reply = reply.and_then(|reply| match WireResponse::decode(&reply)? {
                WireResponse::Err(msg) => Err(WireError::Protocol(msg)),
                reply => Ok(reply),
            });
            self.errors
                .fetch_add(u64::from(reply.is_err()), Ordering::Relaxed);
            (proc, reply)
        });
        decoded.collect()
    }

    /// [`TcpNet::deliver`] for the data plane: `(p, reply)` for the
    /// message replies that arrived.
    fn scatter(
        &self,
        payloads: Vec<(usize, Vec<u8>)>,
        idempotent: bool,
        kind: Option<MsgKind>,
    ) -> Vec<(usize, IndexResponse)> {
        let replies = self.deliver(payloads, idempotent, kind).into_iter();
        let rpc = replies.filter_map(|(proc, reply)| match reply.ok()? {
            WireResponse::Rpc(response) => Some((proc, response)),
            _ => {
                self.unusable();
                None
            }
        });
        rpc.collect()
    }

    /// Counts a reply that arrived but cannot be used whole — a refusal,
    /// a reply of another shape, or more or fewer acks or results than
    /// items sent — as a transport error: what it leaves out comes back
    /// unacknowledged, `None` or missing from the fold, like a lost reply.
    fn unusable(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Delivers `frame_of(p)` to every process `p` and folds the replies
    /// that arrive into `seed` — the mirror's own reply to the same
    /// message. A reply of another shape is not folded but counted as a
    /// transport error.
    fn broadcast(
        &self,
        mut seed: IndexResponse,
        frame_of: impl Fn(usize) -> WireRequest,
        kind: Option<MsgKind>,
    ) -> IndexResponse {
        let frames = (0..self.fleet.nprocs()).map(|proc| (proc, frame_of(proc).encode()));
        for (_, reply) in self.scatter(frames.collect(), true, kind) {
            if !fold(&mut seed, reply) {
                self.unusable();
            }
        }
        seed
    }

    /// Scatters an insert round or a lookup level item by item and
    /// stitches the replies back: item `i` goes to the owner of
    /// `routes[i]`, and its answer in that owner's reply lands in
    /// `out[i]`. A part's payload is `empty`'s encoding, its trailing item
    /// sequence written by `put_items` from the caller's items. Each
    /// reply's type and length is checked here, once.
    fn scatter_items<T>(
        &self,
        empty: IndexRequest,
        routes: impl Iterator<Item = KeyHash>,
        put_items: impl Fn(&[usize], &mut Vec<u8>),
        out: &mut [T],
        idempotent: bool,
    ) where
        Vec<T>: Reply<KeyLookup, IndexSwept>,
    {
        let nprocs = self.fleet.nprocs();
        let kind = empty.kind();
        let mut parts: Vec<Vec<usize>> = vec![Vec::new(); nprocs];
        for (i, route) in routes.enumerate() {
            parts[stripe_of(route) % nprocs].push(i);
        }
        // The empty message ends with its item sequence's count.
        let mut head = WireRequest::Rpc(empty).encode();
        head.truncate(head.len() - 4);
        let present = (parts.iter().enumerate()).filter(|(_, part)| !part.is_empty());
        let payloads = present.map(|(proc, part)| {
            let mut payload = head.clone();
            put_items(part, &mut payload);
            (proc, payload)
        });
        for (proc, reply) in self.scatter(payloads.collect(), idempotent, kind) {
            let Ok(answered) = Vec::<T>::from_response(reply) else {
                self.unusable();
                continue;
            };
            if answered.len() != parts[proc].len() {
                self.unusable();
            }
            for (&i, answer) in parts[proc].iter().zip(answered) {
                out[i] = answer;
            }
        }
    }
}

/// Folds `reply` into `seed` if it is the same reply (for a sweep, the same
/// sweep's) and says whether it was. The processes hold disjoint stripes:
/// counts add, lists concatenate, a peeked key lives on at most one.
fn fold(seed: &mut IndexResponse, reply: IndexResponse) -> bool {
    use {IndexSwept as S, Response as R};
    match (seed, reply) {
        (R::Moved(a), R::Moved(b)) => a.absorb(b),
        (R::Lost(a), R::Lost(b)) => a.absorb(b),
        (R::Repaired(a), R::Repaired(b)) => a.absorb(b),
        (R::Rebalanced(a), R::Rebalanced(b)) => a.absorb(b),
        (R::Recovered(a), R::Recovered(b)) => a.absorb(b),
        (R::Gossiped(a), R::Gossiped(b)) => a.absorb(b),
        (R::Swept(S::Classified(a)), R::Swept(S::Classified(b))) => a.extend(b),
        (R::Swept(S::Peeked(a)), R::Swept(S::Peeked(b))) => *a = a.take().or(b),
        (R::Swept(S::Counts(a)), R::Swept(S::Counts(b))) => a.absorb(b),
        (R::Swept(S::StoragePerPeer(a)), R::Swept(S::StoragePerPeer(b))) => a.absorb(b),
        (R::Swept(S::Entries(a)), R::Swept(S::Entries(b))) => a.extend(b),
        (R::Swept(S::Footprint(a)), R::Swept(S::Footprint(b))) => a.absorb(b),
        (R::Done, R::Done) | (R::Swept(S::Done), R::Swept(S::Done)) => {}
        _ => return false,
    }
    true
}

/// Appends `InsertBatch`'s `batches` sequence for the `items` at `part`:
/// one batch per run of one inserting peer, in the round's order.
fn put_batches<T: Wire>(items: &[(PeerId, &T)], part: &[usize], payload: &mut Vec<u8>) {
    let batches = || part.chunk_by(|&a, &b| items[a].0 == items[b].0);
    (batches().count() as u32).put(payload);
    for batch in batches() {
        items[batch[0]].0.put(payload);
        (batch.len() as u32).put(payload);
        for &i in batch {
            items[i].1.put(payload);
        }
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
    fn call(&self, request: &IndexRequest) -> Result<IndexResponse, String> {
        Ok(match request {
            Request::InsertBatch { batches } => {
                // A part keeps the round's canonical (peer, key) order.
                let items: Vec<_> = (batches.iter())
                    .flat_map(|(peer, items)| items.iter().map(move |item| (*peer, item)))
                    .collect();
                let mut flags = vec![false; items.len()];
                // Inserts are not idempotent (merges accumulate), so no
                // automatic retry: a failed exchange leaves its items
                // unacknowledged.
                self.scatter_items(
                    Request::InsertBatch {
                        batches: Vec::new(),
                    },
                    items.iter().map(|(_, item)| item.route),
                    |part, payload| put_batches(&items, part, payload),
                    &mut flags,
                    false,
                );
                Response::Inserted { flags }
            }
            Request::LookupMany {
                from,
                query_id,
                keys,
            } => {
                let mut results = vec![None; keys.len()];
                // Lookups are read-only: safe to retry once.
                self.scatter_items(
                    Request::LookupMany {
                        from: *from,
                        query_id: *query_id,
                        keys: Vec::new(),
                    },
                    keys.iter().map(|key| key.route),
                    |part, payload| {
                        (part.len() as u32).put(payload);
                        part.iter().for_each(|&i| keys[i].put(payload));
                    },
                    &mut results,
                    true,
                );
                Response::Found { results }
            }
            // Which process meters a notification is free — only the
            // fleet's summed meters are observable — so the first one
            // does. Metering is not idempotent: no retry.
            request @ Request::Notify { .. } => {
                let payload = WireRequest::Rpc(request.clone()).encode();
                self.scatter(vec![(0, payload)], false, request.kind());
                Response::Done
            }
            request @ (Request::Repair | Request::Rebalance | Request::Sweep(_)) => {
                let seed = self.mirror.call(request)?;
                let frame = |_| WireRequest::Rpc(request.clone());
                self.broadcast(seed, frame, request.kind())
            }
        })
    }

    /// Mirror first (routing state), then every process applies the same
    /// message to its stripes; what they report sums across the disjoint
    /// stripe sets. A gossip round thereby runs in lockstep: every
    /// process advances its *identical* deterministic replica of the
    /// state (guarded by the round number, so one that fell out of step
    /// refuses instead of diverging) and meters only its own share of the
    /// probes, while the mirror meters none.
    fn control(&mut self, control: Control) -> Result<IndexResponse, String> {
        let nprocs = self.fleet.nprocs();
        let metered = |metering| match &control {
            Control::EnableGossip { config, .. } => Control::EnableGossip {
                config: *config,
                metering,
            },
            control => control.clone(),
        };
        let seed = self.mirror.control(metered(GossipMetering::Mirror))?;
        let partition = |index| metered(GossipMetering::Partition { nprocs, index });
        Ok(self.broadcast(seed, |proc| WireRequest::Control(partition(proc)), None))
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
        let asks = (0..self.fleet.nprocs()).map(|proc| (proc, WireRequest::Snapshot.encode()));
        for (_, reply) in self.deliver(asks.collect(), true, None) {
            if let Ok(WireResponse::Snapshot(snapshot)) = reply {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_index::{IndexCounts, IndexSweep};
    use crate::key::Key;
    use hdk_corpus::DocId;
    use hdk_ir::{CompressedPostings, Posting, PostingList};
    use hdk_p2p::{Addressed, RepairStats};
    use hdk_text::TermId;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Arc};

    const TIMEOUT: Duration = Duration::from_millis(300);
    const KEYS: u32 = 16;

    /// What a scripted peer answers a message: a reply or a refusal, or
    /// (`None`) nothing.
    type Scripted = Option<Result<IndexResponse, String>>;

    /// A scripted peer process on a loopback port. It answers handshakes
    /// and health probes itself; every message goes to `script`, whose
    /// `None` leaves the request unanswered (the connection stays open).
    /// Its threads end with the connections, the acceptor with the test
    /// process.
    fn fake_peer(script: impl Fn(&IndexRequest) -> Scripted + Send + Sync + 'static) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound").to_string();
        let script = Arc::new(script);
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let script = Arc::clone(&script);
                std::thread::spawn(move || {
                    let mut stream = BufReader::new(stream);
                    while let Ok(payload) = read_frame(&mut stream) {
                        let reply = match WireRequest::decode(&payload).expect("a valid frame") {
                            WireRequest::Hello { .. } => Some(WireResponse::HelloOk),
                            WireRequest::Health => Some(WireResponse::Healthy { keys: 0 }),
                            WireRequest::Rpc(request) => script(&request).map(|reply| {
                                reply.map_or_else(WireResponse::Err, WireResponse::Rpc)
                            }),
                            other => panic!("unscripted frame {other:?}"),
                        };
                        if let Some(reply) = reply {
                            if write_frame(stream.get_mut(), &reply.encode()).is_err() {
                                return;
                            }
                        }
                    }
                });
            }
        });
        addr
    }

    /// Finds every key of a `LookupMany`: `df` names the key's term and
    /// `is_ndk` says whether process 1 (rather than 0) answered.
    fn found_by(proc: usize, request: &IndexRequest) -> Scripted {
        let Request::LookupMany { keys, .. } = request else {
            panic!("unscripted message {request:?}");
        };
        let postings = CompressedPostings::from_list(&PostingList::from_sorted(vec![Posting {
            doc: DocId(1),
            tf: 1,
            doc_len: 1,
        }]));
        let results = keys.iter().map(|key| {
            Some(KeyLookup {
                postings: postings.clone(),
                df: key.body.terms().next().expect("a key has a term").0,
                is_ndk: proc == 1,
            })
        });
        Some(Ok(Response::Found {
            results: results.collect(),
        }))
    }

    /// A `TcpNet` over the fake peers at `addrs`, with a short timeout.
    fn net_over(addrs: &[String]) -> TcpNet {
        let clients: Vec<PeerClient> = addrs
            .iter()
            .map(|addr| PeerClient {
                addr: addr.clone(),
                hello: WireRequest::Hello {
                    version: WIRE_VERSION,
                    nprocs: addrs.len() as u32,
                    proc_index: 0,
                    num_peers: 4,
                    dfmax: 8,
                    replication: 1,
                }
                .encode(),
                pool: (0..POOL).map(|_| Mutex::new(None)).collect(),
                next: AtomicUsize::new(0),
                timeout: TIMEOUT,
            })
            .collect();
        let overlay = Box::new(PGrid::new((0..4).map(PeerId).collect()));
        TcpNet::over(Box::new(clients), overlay, 8, 1).expect("the fake peers answer health")
    }

    /// One `LookupMany` of the single-term keys `1..=KEYS`: per key, what
    /// came back and how long the whole call took.
    fn lookup(net: &TcpNet) -> (Vec<Option<KeyLookup>>, Duration) {
        let keys = (1..=KEYS).map(|term| {
            let key = Key::single(TermId(term));
            Addressed {
                route: key.dht_hash(),
                body: key,
            }
        });
        let started = Instant::now();
        let response = net.call(&Request::LookupMany {
            from: PeerId(0),
            query_id: 7,
            keys: keys.collect(),
        });
        let Ok(Response::Found { results }) = response else {
            panic!("a lookup answers Found, got {response:?}");
        };
        (results, started.elapsed())
    }

    /// One insert of the single-term key `term` with a one-posting block.
    fn insert_item(term: u32) -> Addressed<(Key, CompressedPostings)> {
        let key = Key::single(TermId(term));
        let list = PostingList::from_sorted(vec![Posting {
            doc: DocId(term * 3),
            tf: term,
            doc_len: 40,
        }]);
        Addressed {
            route: key.dht_hash(),
            body: (key, CompressedPostings::from_list(&list)),
        }
    }

    /// One `InsertBatch` of the single-term keys `1..=KEYS` from peer 0:
    /// the acknowledgement flag per key that came back.
    fn insert(net: &TcpNet) -> Vec<bool> {
        let response = net.call(&Request::InsertBatch {
            batches: vec![(PeerId(0), (1..=KEYS).map(insert_item).collect())],
        });
        let Ok(Response::Inserted { flags }) = response else {
            panic!("an insert answers Inserted, got {response:?}");
        };
        flags
    }

    /// The process (of two) owning each of the keys [`lookup`] asks for.
    fn owners() -> Vec<usize> {
        let owner = |term| stripe_of(Key::single(TermId(term)).dht_hash()) % 2;
        let owners: Vec<usize> = (1..=KEYS).map(owner).collect();
        assert!(owners.contains(&0) && owners.contains(&1), "{owners:?}");
        owners
    }

    #[test]
    fn a_borrowed_insert_part_encodes_like_the_owned_message() {
        let batches = vec![
            (PeerId(1), vec![insert_item(1), insert_item(2)]),
            (PeerId(4), vec![insert_item(3)]),
        ];
        let items: Vec<_> = (batches.iter())
            .flat_map(|(peer, items)| items.iter().map(move |item| (*peer, item)))
            .collect();
        let owned = |batches| WireRequest::Rpc(Request::InsertBatch { batches }).encode();
        let mut head = owned(Vec::new());
        head.truncate(head.len() - 4);
        // The whole round, nothing, and a part that leaves out an item
        // of the first batch.
        let subset = vec![
            (PeerId(1), vec![insert_item(1)]),
            (PeerId(4), vec![insert_item(3)]),
        ];
        for (part, expected) in [
            (vec![0, 1, 2], batches.clone()),
            (vec![], Vec::new()),
            (vec![0, 2], subset),
        ] {
            let mut payload = head.clone();
            put_batches(&items, &part, &mut payload);
            assert_eq!(payload, owned(expected));
        }
    }

    #[test]
    fn a_scatter_writes_every_request_before_it_reads_a_reply() {
        // Process 0 answers only once process 1 has its request: an
        // exchange that waited for 0's reply before writing to 1 would
        // sit out 0's timeout.
        let (received, wait) = mpsc::channel();
        let (received, wait) = (Mutex::new(received), Mutex::new(wait));
        let first = fake_peer(move |request| {
            (wait.lock().recv_timeout(10 * TIMEOUT).ok()).and_then(|()| found_by(0, request))
        });
        let second = fake_peer(move |request| {
            received.lock().send(()).expect("the first peer waits");
            found_by(1, request)
        });
        let net = net_over(&[first, second]);
        let (results, elapsed) = lookup(&net);
        assert!(elapsed < TIMEOUT, "took {elapsed:?}");
        assert_eq!(net.transport_errors(), 0);
        // Stitched back into request order, each part from its owner.
        for ((term, owner), result) in (1..=KEYS).zip(owners()).zip(results) {
            let result = result.expect("both processes answered");
            assert_eq!((result.df, result.is_ndk), (term, owner == 1));
        }
    }

    #[test]
    fn silent_processes_cost_one_timeout_between_them() {
        // Per process: does it leave lookups unanswered, and does it take
        // half the timeout over the ones it answers.
        let flags = |flag| [(); 2].map(|()| Arc::new(AtomicBool::new(flag)));
        let (silent, slow) = (flags(true), flags(false));
        let addrs: Vec<String> = (0..2)
            .map(|proc| {
                let (silent, slow) = (Arc::clone(&silent[proc]), Arc::clone(&slow[proc]));
                fake_peer(move |request| {
                    if slow.load(Ordering::SeqCst) {
                        std::thread::sleep(TIMEOUT / 2);
                    }
                    (!silent.load(Ordering::SeqCst)).then(|| found_by(proc, request))?
                })
            })
            .collect();
        let net = net_over(&addrs);

        // Both silent: everything missing after one timeout, not two.
        let (results, elapsed) = lookup(&net);
        assert!(results.iter().all(Option::is_none));
        assert_eq!(net.transport_errors(), 2);
        assert!(
            elapsed >= TIMEOUT && elapsed < TIMEOUT * 5 / 3,
            "{elapsed:?}"
        );

        // Process 1 answers at once, but its reply is read after process
        // 0's timeout — under the short patience of a late read.
        silent[1].store(false, Ordering::SeqCst);
        let (results, elapsed) = lookup(&net);
        for (owner, result) in owners().into_iter().zip(results) {
            assert_eq!(result.is_some(), owner == 1);
        }
        assert_eq!(net.transport_errors(), 3);
        assert!(elapsed < TIMEOUT * 5 / 3, "{elapsed:?}");

        // That connection went back to its pool with the full timeout:
        // once round the pool, answers that take half of it all arrive.
        silent[0].store(false, Ordering::SeqCst);
        slow[1].store(true, Ordering::SeqCst);
        for _ in 0..POOL {
            let (results, elapsed) = lookup(&net);
            assert!(results.iter().all(Option::is_some), "after {elapsed:?}");
        }
        assert_eq!(net.transport_errors(), 3);
    }

    #[test]
    fn a_refusal_counts_as_a_transport_error() {
        let net = net_over(&[fake_peer(|_| Some(Err("refused".into())))]);
        assert_eq!(insert(&net), vec![false; KEYS as usize]);
        assert_eq!(net.transport_errors(), 1);
        let (results, _) = lookup(&net);
        assert!(results.iter().all(Option::is_none));
        assert_eq!(net.transport_errors(), 2);
    }

    #[test]
    fn an_answer_to_another_message_counts_as_a_transport_error() {
        let net = net_over(&[fake_peer(|_| Some(Ok(Response::Done)))]);
        assert_eq!(insert(&net), vec![false; KEYS as usize]);
        assert_eq!(net.transport_errors(), 1);
        let (results, _) = lookup(&net);
        assert!(results.iter().all(Option::is_none));
        assert_eq!(net.transport_errors(), 2);
    }

    #[test]
    fn a_short_reply_counts_as_a_transport_error() {
        // Acknowledges every insert and finds every key, leaving the last
        // one out once `short` is set.
        let short = Arc::new(AtomicBool::new(false));
        let cut = Arc::clone(&short);
        let net = net_over(&[fake_peer(move |request| {
            let drop_last = usize::from(cut.load(Ordering::SeqCst));
            match request {
                Request::InsertBatch { batches } => {
                    let items: usize = batches.iter().map(|(_, items)| items.len()).sum();
                    let flags = vec![true; items - drop_last];
                    Some(Ok(Response::Inserted { flags }))
                }
                request => match found_by(0, request)? {
                    Ok(Response::Found { mut results }) => {
                        results.truncate(results.len() - drop_last);
                        Some(Ok(Response::Found { results }))
                    }
                    other => Some(other),
                },
            }
        })]);
        assert_eq!(insert(&net), vec![true; KEYS as usize]);
        assert!(lookup(&net).0.iter().all(Option::is_some));
        assert_eq!(net.transport_errors(), 0);

        // What did arrive is kept; the missing item reads as lost.
        short.store(true, Ordering::SeqCst);
        let flags = insert(&net);
        assert_eq!(flags[..KEYS as usize - 1], vec![true; KEYS as usize - 1]);
        assert!(!flags[KEYS as usize - 1]);
        assert_eq!(net.transport_errors(), 1);
        let (results, _) = lookup(&net);
        assert!(results[..KEYS as usize - 1].iter().all(Option::is_some));
        assert!(results[KEYS as usize - 1].is_none());
        assert_eq!(net.transport_errors(), 2);
    }

    #[test]
    fn a_broadcast_reply_of_another_shape_counts_as_a_transport_error() {
        // Answers a repair with an acknowledgement, and a sweep with one
        // too until `inner` is set — then with another sweep's reply.
        let inner = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&inner);
        let net = net_over(&[fake_peer(move |request| {
            Some(Ok(match request {
                Request::Sweep(_) if flag.load(Ordering::SeqCst) => {
                    Response::Swept(IndexSwept::Entries(Vec::new()))
                }
                _ => Response::Done,
            }))
        })]);
        let repaired = net.call(&Request::Repair);
        assert!(
            matches!(repaired, Ok(Response::Repaired(stats)) if stats == RepairStats::default()),
            "{repaired:?}"
        );
        assert_eq!(net.transport_errors(), 1);
        for errors in [2, 3] {
            let counted = net.call(&Request::Sweep(IndexSweep::Counts));
            assert!(
                matches!(&counted, Ok(Response::Swept(IndexSwept::Counts(counts))) if *counts == IndexCounts::default()),
                "{counted:?}"
            );
            assert_eq!(net.transport_errors(), errors);
            inner.store(true, Ordering::SeqCst);
        }
    }
}
