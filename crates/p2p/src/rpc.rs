//! The typed message/RPC layer between the retrieval engine and the DHT.
//!
//! The paper states every scalability result in *transmitted messages and
//! postings* (Section 4). This module makes those messages first-class and
//! makes them the **only seam** between the engine and whatever hosts the
//! index: the engine builds a [`Request`] (data plane, `&self`) or a
//! [`Control`] (overlay, membership and settings, `&mut self`), hands it to
//! a [`NetworkBackend`], and reads the [`Response`].
//!
//! One handler pair in this module turns a message into [`Dht`] calls —
//! for every backend. A backend is only a *delivery policy* over it:
//!
//! * [`InProc`] — calls the handler. Metering is identical to a direct DHT
//!   call (the zero-cost default; golden reports, traffic counters and
//!   top-k score bits are bit-identical to the pre-RPC engine at any thread
//!   count).
//! * [`SimNet`] — calls the handler, which also emits one delivery record
//!   per metered message leg, and charges those records to a deterministic
//!   seeded network model: per-link FIFO transmission queues inside each
//!   request, per-hop propagation delay, seeded jitter, a
//!   drop/retransmission model, and a virtual clock — producing per-kind
//!   latency histograms and hop-weighted traffic in [`TrafficSnapshot`].
//! * `TcpNet` (in `hdk-core`'s serving tier) — frames the message to the
//!   peer processes hosting the stripes, each of which runs an [`InProc`],
//!   and folds their replies ([`Absorb`]).
//!
//! A simulated and a real network therefore differ in how a message is
//! delivered and timed, never in what the receiving peer does with it.
//!
//! ## Message taxonomy ↔ the paper's cost categories
//!
//! | message                  | [`MsgKind`]                | paper cost category |
//! |--------------------------|----------------------------|---------------------|
//! | [`Request::InsertBatch`] | [`MsgKind::IndexInsert`]   | indexing cost: peers push locally computed key postings to the hosting peers (Figure 4); one metered message per key, batched per bulk-synchronous round |
//! | [`Request::Notify`]      | [`MsgKind::IndexNotify`]   | "key became globally non-discriminative" notifications that trigger key expansion (Section 3.1) |
//! | [`Request::LookupMany`]  | [`MsgKind::QueryLookup`] / [`MsgKind::QueryResponse`] | retrieval cost: one lookup request per key travels to the responsible peer, the stored block travels back (Figure 6) |
//! | [`Request::Repair`]      | [`MsgKind::Repair`]        | replica repair: surviving replicas re-materialize the copies lost to crashes — structural-replication upkeep, counted in its own category so availability studies can separate it from join handovers |
//! | [`Request::Rebalance`]   | [`MsgKind::HotReplicate`]  | popularity-driven replication: the maintenance pass that materializes extra replicas of *hot* keys (and demotes cooled ones) — read-scaling upkeep, counted separately from crash repair |
//! | [`Request::Sweep`]       | —                          | host-local work at each hosting peer (classification sweeps, storage accounting, `peek`): free in the paper's model, so never metered or delayed |
//! | [`Control::Join`]        | [`MsgKind::Maintenance`]   | overlay maintenance: the index fraction handed to a joining peer (excluded from the paper's posting counts, reported separately) |
//! | [`Control::Leave`]       | [`MsgKind::Maintenance`]   | overlay maintenance, mirror of a join: a gracefully departing peer hands its held copies to the re-derived replica sets before it goes |
//! | [`Control::Fail`]        | —                          | a crash sends no messages; the destroyed copies surface as a [`LossStats`] damage report, and the degraded entries as later `Repair` traffic |
//! | [`Control::Restart`]     | —                          | a restarting peer replays its own segment log — host-local disk I/O, never a network message; only the *gap* a restart leaves (lost hot-tier copies, corrupt tails) becomes later `Repair` traffic |
//! | [`Control::Gossip`]      | [`MsgKind::Gossip`]        | membership upkeep: one round of the probe schedule (plus the repair a universally confirmed death triggers) |
//! | [`Control::HotConfig`], [`Control::EnableGossip`] | — | settings, applied before traffic flows |
//!
//! ## Who knows what
//!
//! The RPC layer is generic over a [`StoreService`]: the *hosting peer's*
//! application logic (how an insert merges into a stored entry, how a
//! lookup reads one, how large each payload is, what its host-local sweeps
//! compute). `hdk-core` implements it for its `KeyEntry`; this crate stays
//! ignorant of keys, postings and ranking. [`NetworkBackend::dht`] is a
//! read-only view of the routing state — overlay, membership, gossip views
//! — and never the way to reach stored entries: on a remote backend they
//! live elsewhere.
//!
//! ## Adding a message
//!
//! The enum variant, its line in the `wire_enum!` table below, its handler
//! arm — all in this file (a new sweep: the same three in the
//! [`StoreService`] implementor's). A variant whose scatter rule is not
//! "every process" also needs its arm in `TcpNet::call`.

use crate::dht::{
    stripe_of, Dht, GossipMetering, GossipOutcome, HotConfig, HotStats, LossStats, MigrationStats,
    RepairStats, LOOKUP_REQUEST_BYTES,
};
use crate::gossip::{GossipConfig, GossipProbe};
use crate::id::{hash_u64s, splitmix64, KeyHash, PeerId};
use crate::pgrid::PGrid;
use crate::replica::{Delivery, Membership};
use crate::store::{RecoveryStats, Store};
use crate::transport::{MsgKind, TrafficSnapshot};
use crate::wire::Absorb;
use crate::{wire_enum, wire_record};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One index → peer notification inside a [`Request::Notify`] batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notification {
    /// The notified (contributing) peer.
    pub to: PeerId,
    /// Postings carried (notifications carry keys, so usually 0).
    pub postings: u64,
    /// Payload bytes carried.
    pub bytes: u64,
}

/// A message body plus the DHT position it routes to.
#[derive(Debug, Clone)]
pub struct Addressed<T> {
    /// Where the message routes: the responsible peer is
    /// `overlay.responsible(route)`.
    pub route: KeyHash,
    /// The typed payload the hosting peer's [`StoreService`] consumes.
    pub body: T,
}

/// The hosting peer's application logic: how typed message payloads apply
/// to the values stored in the [`Dht`].
///
/// Implemented once by the engine crate (for its key-entry type); every
/// backend runs the same implementation through the same handler, which is
/// what makes them produce identical storage state and traffic *counts* by
/// construction.
pub trait StoreService: Send + Sync {
    /// Value stored in the DHT per key (`'static`: values are owned data,
    /// storable behind a `dyn` storage backend).
    type Value: Send + Sync + 'static;
    /// Payload of one key's insert inside an [`Request::InsertBatch`].
    type Insert: Send + Sync;
    /// Payload of one key's lookup inside a [`Request::LookupMany`].
    type LookupKey: Send + Sync;
    /// Payload of one key's lookup response.
    type Lookup: Send;
    /// A host-local sweep over the stored values ([`Request::Sweep`]).
    type Sweep: Send + Sync;
    /// What a sweep reports. [`Absorb`] folds the reports of disjoint
    /// stripe sets — per-stripe partials inside one host, per-process
    /// replies across a fleet — into the whole.
    type Swept: Absorb + Send;

    /// Wire volume of one insert payload: `(postings, bytes)` — what the
    /// meter records for its [`MsgKind::IndexInsert`] message.
    fn insert_volume(&self, insert: &Self::Insert) -> (u64, u64);

    /// A fresh stored value for a key seen for the first time.
    fn fresh(&self, insert: &Self::Insert) -> Self::Value;

    /// Merges one insert payload from peer `from` into the stored value.
    /// The returned flag travels back in the insert acknowledgement (in
    /// `hdk-core`: "this key is already non-discriminative").
    fn merge(&self, from: PeerId, insert: &Self::Insert, value: &mut Self::Value) -> bool;

    /// Builds one lookup response: `(payload, postings, bytes)`, the
    /// latter two metered as the [`MsgKind::QueryResponse`] volume
    /// (a miss still answers — typically with a small "not found").
    fn read(
        &self,
        key: &Self::LookupKey,
        value: Option<&Self::Value>,
    ) -> (Option<Self::Lookup>, u64, u64);

    /// `(postings, bytes)` a stored value contributes when its key
    /// migrates to a joining peer ([`MsgKind::Maintenance`] volume).
    fn migrate_volume(&self, value: &Self::Value) -> (u64, u64);

    /// Runs one host-local sweep over this host's stripes. Local work at
    /// the hosting peer is free (the paper's sweeps run "locally at each
    /// hosting peer"), so none of it is metered or delayed.
    fn sweep(&self, dht: &Dht<Self::Value>, sweep: &Self::Sweep) -> Self::Swept;
}

/// A [`Request`] at a [`StoreService`]'s payload types.
pub type RequestOf<S> = Request<
    <S as StoreService>::Insert,
    <S as StoreService>::LookupKey,
    <S as StoreService>::Sweep,
>;

/// A [`Response`] at a [`StoreService`]'s payload types.
pub type ResponseOf<S> = Response<<S as StoreService>::Lookup, <S as StoreService>::Swept>;

/// A data-plane message from the engine to the network, generic over the
/// [`StoreService`] payload types (`I = Insert`, `Q = LookupKey`,
/// `W = Sweep`). Everything here runs under shared access: it changes
/// stored values and holder sets, never the overlay or the membership.
#[derive(Debug, Clone)]
pub enum Request<I, Q, W> {
    /// One bulk-synchronous round of per-peer insert batches — the paper's
    /// indexing phase, where every peer pushes its locally computed key
    /// postings to the hosting peers. Batches must arrive in ascending
    /// [`PeerId`] order with each batch in canonical key order; each DHT
    /// stripe's inserts are applied in exactly that order, so the stored
    /// state (including contributor order) is deterministic at any thread
    /// count. Each item is metered as its own [`MsgKind::IndexInsert`]
    /// message.
    InsertBatch {
        /// `(inserting peer, its batch)` pairs, ascending by peer.
        batches: Vec<(PeerId, Vec<Addressed<I>>)>,
    },
    /// One round's index → peer notifications ([`MsgKind::IndexNotify`]):
    /// each note tells a contributing peer that one of its keys became
    /// globally non-discriminative. Batched per sweep like the other
    /// message sets — each note is metered as its own message, and the
    /// simulated backend queues same-recipient notes FIFO. Notes must
    /// arrive in canonical (peer, key) order so the timing model is
    /// deterministic.
    Notify {
        /// The round's notifications, in canonical order.
        notes: Vec<Notification>,
    },
    /// One query-plan level's key lookups from one querying peer. Each key
    /// is metered as a [`MsgKind::QueryLookup`] request plus a
    /// [`MsgKind::QueryResponse`] carrying the stored block back.
    LookupMany {
        /// The querying peer (responses are attributed to it).
        from: PeerId,
        /// Deterministic identity of the query this level belongs to (a
        /// query hash, a stream position — any pure message attribute).
        /// At `R > 1` the serving replica of each probe is picked by
        /// `hash(query_id, key)` over the key's live holders, spreading
        /// read load across the replica set.
        query_id: u64,
        /// The level's candidate keys, in canonical plan order.
        keys: Vec<Addressed<Q>>,
    },
    /// The background repair sweep: surviving replicas re-materialize the
    /// copies the re-derived replica sets are missing, one
    /// [`MsgKind::Repair`] message per copied entry
    /// ([`Dht::repair_sweep`]).
    Repair,
    /// The popularity-maintenance sweep: keys whose lookup hit counters
    /// crossed the configured threshold gain extra replicas along the
    /// successor walk (one [`MsgKind::HotReplicate`] message per copy),
    /// cooled keys are demoted back to the structural set (local, free).
    /// A no-op unless [`Control::HotConfig`] enabled the mechanism
    /// ([`Dht::rebalance_hot`]).
    Rebalance,
    /// A host-local sweep, answered by [`StoreService::sweep`] over the
    /// stripes of whichever host receives it. Never metered, never
    /// delayed.
    Sweep(W),
}

impl<I, Q, W> Request<I, Q, W> {
    /// The paper's cost category this request is metered under (lookups
    /// are metered under [`MsgKind::QueryLookup`] on the way out and
    /// [`MsgKind::QueryResponse`] on the way back); `None` for host-local
    /// sweeps, which are not messages.
    pub fn kind(&self) -> Option<MsgKind> {
        match self {
            Request::InsertBatch { .. } => Some(MsgKind::IndexInsert),
            Request::Notify { .. } => Some(MsgKind::IndexNotify),
            Request::LookupMany { .. } => Some(MsgKind::QueryLookup),
            Request::Repair => Some(MsgKind::Repair),
            Request::Rebalance => Some(MsgKind::HotReplicate),
            Request::Sweep(_) => None,
        }
    }
}

/// A control-plane message: everything that needs exclusive access
/// because it rewires the overlay, the membership view, the storage tiers
/// or a setting. The only `&mut self` entry of a [`NetworkBackend`].
#[derive(Debug, Clone, PartialEq)]
pub enum Control {
    /// A wave of peers joins the overlay back to back, then the index
    /// fractions they take over are handed over in **one shared stripe
    /// scan** ([`Dht::add_peers`]; [`MsgKind::Maintenance`], one aggregate
    /// message per joiner).
    Join {
        /// The joining peers.
        peers: Vec<PeerId>,
    },
    /// A wave of peers departs gracefully: each hands the copies it holds
    /// to the re-derived replica sets ([`MsgKind::Maintenance`], one
    /// aggregate message per leaver — the mirror of a join), then
    /// disappears from the replica walks ([`Dht::leave_peers`]).
    Leave {
        /// The departing peers.
        peers: Vec<PeerId>,
    },
    /// A wave of peers crashes: their copies are destroyed, nothing is
    /// handed over and **no messages are sent** — the damage surfaces as
    /// a [`LossStats`] report and as degraded replica sets for the next
    /// [`Request::Repair`] ([`Dht::fail_peers`]).
    Fail {
        /// The crashed peers.
        peers: Vec<PeerId>,
    },
    /// A wave of peers restarts in place: each loses its hot (in-memory)
    /// tier and replays its own on-disk segment log, recovering every
    /// copy whose sealed frame survives checksum verification
    /// ([`Dht::restart_peers`]). Replay is **host-local disk I/O** — no
    /// network messages are sent and nothing is metered; the copies the
    /// log could not restore surface as a [`RecoveryStats`] report and as
    /// later [`Request::Repair`] traffic.
    Restart {
        /// The restarting peers (must currently be live).
        peers: Vec<PeerId>,
    },
    /// Advances the gossip membership substrate by one round
    /// ([`Dht::gossip_round`]): the deterministic probe schedule runs,
    /// probes are metered (and, on a time-modeling backend, timed), and
    /// a death confirmed in every live view this round triggers the
    /// repair sweep — detection, not an oracle call. Refused unless
    /// gossip is enabled and about to run round `round`: replicas of the
    /// state advance in lockstep or not at all.
    Gossip {
        /// The round the sender expects to run (0-based).
        round: u32,
    },
    /// Installs the popularity-replication knobs
    /// ([`Dht::set_hot_config`]).
    HotConfig(HotConfig),
    /// Switches peer liveness from the membership oracle to gossiped
    /// per-peer views ([`Dht::enable_gossip`]). Refused when the
    /// configuration fails [`GossipConfig::check`] or has no fanout.
    EnableGossip {
        /// The gossip parameters.
        config: GossipConfig,
        /// Which share of the probes the receiving host meters.
        metering: GossipMetering,
    },
}

/// The reply to a [`Request`] or a [`Control`] (`L = StoreService::Lookup`,
/// `T = StoreService::Swept`).
#[derive(Debug, Clone)]
pub enum Response<L, T> {
    /// Acknowledges an [`Request::InsertBatch`]: one flag per inserted
    /// key, aligned with the request's batches, carrying whatever
    /// [`StoreService::merge`] returned (the ack piggybacks on the insert
    /// round-trip, so it costs no extra message).
    Inserted {
        /// `(inserting peer, per-key flags)` aligned with the request.
        acks: Vec<(PeerId, Vec<bool>)>,
    },
    /// Acknowledges a [`Request::Notify`].
    Notified,
    /// Answers a [`Request::LookupMany`], in request key order.
    Found {
        /// One response per requested key (`None` = not indexed).
        results: Vec<Option<L>>,
    },
    /// Answers a [`Control::Join`] or [`Control::Leave`] with one handover
    /// volume per peer of the wave, in input order.
    Moved(Vec<MigrationStats>),
    /// Answers a [`Control::Fail`] with the damage report.
    Lost(LossStats),
    /// Answers a [`Request::Repair`] with the re-materialized volume.
    Repaired(RepairStats),
    /// Answers a [`Request::Rebalance`] with the promotion/demotion report.
    Rebalanced(HotStats),
    /// Answers a [`Control::Restart`] with the log-replay report.
    Recovered(RecoveryStats),
    /// Answers a [`Request::Sweep`].
    Swept(T),
    /// Answers a [`Control::Gossip`] with what the round did.
    Gossiped(GossipOutcome),
    /// Acknowledges a setting.
    Done,
    /// The message was understood but refused; nothing was applied.
    Err(String),
}

/// Folds the reply another stripe-disjoint host gave to the same message
/// into this one. Replies of different shapes (one host refused) leave
/// `self` as it is; insert acks and lookup results are stitched by
/// position by whoever scattered the request, not absorbed.
impl<L, T: Absorb> Absorb for Response<L, T> {
    fn absorb(&mut self, other: Self) {
        match (self, other) {
            (Response::Moved(acc), Response::Moved(other)) => acc.absorb(other),
            (Response::Lost(acc), Response::Lost(other)) => acc.absorb(other),
            (Response::Repaired(acc), Response::Repaired(other)) => acc.absorb(other),
            (Response::Rebalanced(acc), Response::Rebalanced(other)) => acc.absorb(other),
            (Response::Recovered(acc), Response::Recovered(other)) => acc.absorb(other),
            (Response::Swept(acc), Response::Swept(other)) => acc.absorb(other),
            (Response::Gossiped(acc), Response::Gossiped(other)) => acc.absorb(other),
            _ => {}
        }
    }
}

wire_record!(Notification[24](to, postings, bytes));
wire_record!(Addressed<T>[8 + T::MIN_BYTES](route, body));
wire_enum!(Request<I, Q, W> {
    0 => InsertBatch { batches },
    1 => Notify { notes },
    2 => LookupMany { from, query_id, keys },
    6 => Repair,
    7 => Rebalance,
    9 => Sweep(sweep),
});
wire_enum!(Control {
    0 => Join { peers },
    1 => Leave { peers },
    2 => Fail { peers },
    3 => Restart { peers },
    4 => Gossip { round },
    5 => HotConfig(hot),
    6 => EnableGossip { config, metering },
});
wire_enum!(Response<L, T> {
    0 => Inserted { acks },
    1 => Notified,
    2 => Found { results },
    4 => Moved(stats),
    5 => Lost(stats),
    6 => Repaired(stats),
    7 => Rebalanced(stats),
    8 => Recovered(stats),
    9 => Swept(swept),
    10 => Gossiped(outcome),
    11 => Done,
    12 => Err(reason),
});

/// A pluggable network between the engine and the DHT: two message
/// entries, a read-only view of the routing state, and meters. There is
/// deliberately no per-operation method — a backend that could special-
/// case an operation could also get it wrong.
pub trait NetworkBackend<S: StoreService>: Send + Sync {
    /// Delivers one data-plane message and returns its reply. The message
    /// stays the caller's: an insert round's sender reads its own keys
    /// back to map the acknowledgement flags to them.
    fn call(&self, request: &RequestOf<S>) -> ResponseOf<S>;

    /// Delivers one control-plane message and returns its reply.
    fn control(&mut self, control: Control) -> ResponseOf<S>;

    /// The routing state the engine may read: overlay, membership,
    /// gossip views. Not a way to reach stored entries — on a remote
    /// backend this is a zero-entry mirror; entries answer to
    /// [`Request::Sweep`].
    fn dht(&self) -> &Dht<S::Value>;

    /// All traffic this backend has carried (counts for every backend;
    /// latency histograms only when the backend measures or simulates
    /// time).
    fn snapshot(&self) -> TrafficSnapshot {
        self.dht().snapshot()
    }

    /// Virtual nanoseconds of simulated network time consumed so far
    /// (0 for backends that do not model time).
    fn virtual_time_ns(&self) -> u64 {
        0
    }

    /// Deliveries that failed in transport — timeouts, resets, refused
    /// connects (0 for backends without one). A nonzero delta across a
    /// query means some probes came back as misses because a host was
    /// unreachable, not because the key is absent.
    fn transport_errors(&self) -> u64 {
        0
    }
}

/// One metered message leg's observable attributes — everything the
/// timing model is allowed to depend on (never scheduling, never
/// wall-clock). The handler emits them in the request's canonical order.
#[derive(Clone, Copy)]
struct Leg {
    kind: MsgKind,
    /// Ordered `(sender, receiver)` peer pair: the FIFO queue identity.
    link: (u64, u64),
    route: KeyHash,
    bytes: u64,
    hops: u32,
    /// Dead peers the failover walk skipped before this leg's target —
    /// each skipped candidate is a delivery attempt that timed out
    /// ("requests to dead peers cost a timeout, not a hang").
    dead_skips: u32,
    /// Canonical position within the request (jitter decorrelation).
    position: u64,
    /// Starts when the previous leg has arrived (a lookup's response
    /// after its request, a gossip ack after its ping) rather than with
    /// the request.
    chained: bool,
}

impl Leg {
    /// A leg along a route the metering path resolved.
    fn along(kind: MsgKind, path: &Delivery, route: KeyHash, bytes: u64, position: u64) -> Leg {
        Leg {
            kind,
            link: (path.source.0, path.target.0),
            route,
            bytes,
            hops: path.hops,
            dead_skips: path.dead_skips,
            position,
            chained: false,
        }
    }

    /// A leg the DHT charges one hop: notifications, handovers, gossip.
    fn direct(kind: MsgKind, link: (u64, u64), route: u64, bytes: u64, position: u64) -> Leg {
        Leg {
            kind,
            link,
            route: KeyHash(route),
            bytes,
            hops: 1,
            dead_skips: 0,
            position,
            chained: false,
        }
    }
}

/// Where the handler reports legs: `None` for backends that do not model
/// time, which then pay nothing for the records.
type Legs<'a> = Option<&'a mut Vec<Leg>>;

/// The `on_copy` hook of a repair-shaped sweep: one leg per
/// re-materialized copy, source replica → restored holder, in the sweep's
/// canonical `(key, target)` order.
fn copy_leg<'a>(kind: MsgKind, mut legs: Legs<'a>) -> impl FnMut(KeyHash, Delivery, u64) + 'a {
    move |route, copy, bytes| {
        if let Some(legs) = legs.as_deref_mut() {
            let position = legs.len() as u64;
            legs.push(Leg::along(kind, &copy, route, bytes, position));
        }
    }
}

/// One aggregate handover leg per peer of a join (`joining`) or departure
/// wave, sharing the wave's FIFO state: into the joiner, out of the leaver.
fn handover_legs(peers: &[PeerId], stats: &[MigrationStats], joining: bool, legs: &mut Vec<Leg>) {
    for (peer, stats) in peers.iter().zip(stats) {
        let link = if joining {
            (u64::MAX, peer.0)
        } else {
            (peer.0, u64::MAX)
        };
        let position = legs.len() as u64;
        legs.push(Leg::direct(
            MsgKind::Maintenance,
            link,
            peer.0,
            stats.bytes_moved,
            position,
        ));
    }
}

/// Applies an insert round: bucket all batches by DHT stripe (preserving
/// the canonical `(peer, key)` request order within each bucket), apply
/// stripes rayon-parallel, and scatter the acks back into request order.
/// Every copy an item stored (primary first, then the forwarded replicas)
/// is one leg, reported in request order.
///
/// The round's whole request is alive while this runs, so the bookkeeping
/// stays small: one counting sort lays the items out stripe-major as
/// `(batch, item)` index pairs, and a stripe reports one ack flag per item
/// (plus, on a timed backend, each copy's delivery).
fn insert_batch<S: StoreService>(
    dht: &Dht<S::Value>,
    store: &S,
    batches: &[(PeerId, Vec<Addressed<S::Insert>>)],
    legs: Legs<'_>,
) -> Vec<(PeerId, Vec<bool>)> {
    let timed = legs.is_some();
    let index = |i: usize| u32::try_from(i).expect("an insert round holds under 2^32 items");
    // `starts[s]..starts[s + 1]` is stripe `s`'s range of `order`.
    let mut starts = vec![0usize; dht.num_stripes() + 1];
    for (_, items) in batches {
        for item in items {
            starts[stripe_of(item.route) + 1] += 1;
        }
    }
    for s in 1..starts.len() {
        starts[s] += starts[s - 1];
    }
    let mut order = vec![(0u32, 0u32); starts[dht.num_stripes()]];
    let mut next = starts.clone();
    for (bi, (_, items)) in batches.iter().enumerate() {
        for (ii, item) in items.iter().enumerate() {
            let slot = &mut next[stripe_of(item.route)];
            order[*slot] = (index(bi), index(ii));
            *slot += 1;
        }
    }
    type StripeAcks = (Vec<bool>, Vec<(u32, u32, Delivery)>);
    let acks: Vec<StripeAcks> = (0..dht.num_stripes())
        .into_par_iter()
        .map(|stripe| {
            let bucket = &order[starts[stripe]..starts[stripe + 1]];
            let mut flags = Vec::with_capacity(bucket.len());
            let mut copies = Vec::new();
            for &(bi, ii) in bucket {
                let (peer, items) = &batches[bi as usize];
                let item = &items[ii as usize];
                let (postings, bytes) = store.insert_volume(&item.body);
                flags.push(dht.upsert_delivered(
                    *peer,
                    item.route,
                    postings,
                    bytes,
                    || store.fresh(&item.body),
                    |value| store.merge(*peer, &item.body, value),
                    |copy| {
                        if timed {
                            copies.push((bi, ii, copy));
                        }
                    },
                ));
            }
            (flags, copies)
        })
        .collect();
    let mut out: Vec<(PeerId, Vec<bool>)> = batches
        .iter()
        .map(|(peer, items)| (*peer, vec![false; items.len()]))
        .collect();
    for (stripe, (flags, _)) in acks.iter().enumerate() {
        for (&(bi, ii), &flag) in order[starts[stripe]..starts[stripe + 1]].iter().zip(flags) {
            out[bi as usize].1[ii as usize] = flag;
        }
    }
    if let Some(legs) = legs {
        // Back from stripe order to the request's canonical order; the
        // sort is stable, so an item's copies keep their storage order.
        let mut stored: Vec<(u32, u32, Delivery)> =
            acks.into_iter().flat_map(|(_, copies)| copies).collect();
        stored.sort_by_key(|&(bi, ii, _)| (bi, ii));
        for (bi, ii, copy) in stored {
            let item = &batches[bi as usize].1[ii as usize];
            let (_, bytes) = store.insert_volume(&item.body);
            let position = legs.len() as u64;
            legs.push(Leg::along(
                MsgKind::IndexInsert,
                &copy,
                item.route,
                bytes,
                position,
            ));
        }
    }
    out
}

/// Why a data-plane message cannot be applied over `overlay`, where the
/// `Dht` itself would panic: every peer it names — an insert batch's
/// inserting peer, a notification's recipient, a lookup's querying peer —
/// must be one the overlay knows.
fn check_request<I, Q, W>(overlay: &PGrid, request: &Request<I, Q, W>) -> Result<(), String> {
    let known = overlay.peers();
    let unknown = match request {
        Request::InsertBatch { batches } => batches
            .iter()
            .map(|(peer, _)| *peer)
            .find(|peer| !known.contains(peer)),
        Request::Notify { notes } => notes
            .iter()
            .map(|note| note.to)
            .find(|peer| !known.contains(peer)),
        Request::LookupMany { from, .. } => Some(*from).filter(|peer| !known.contains(peer)),
        Request::Repair | Request::Rebalance | Request::Sweep(_) => None,
    };
    match unknown {
        Some(peer) => Err(format!("unknown peer {}", peer.0)),
        None => Ok(()),
    }
}

/// The one place a data-plane message becomes DHT calls, for every
/// backend. With `legs`, also reports each metered message leg — from the
/// [`Delivery`] records the metering path itself resolved, so counted
/// hops and simulated transmission times share one derivation. A message
/// naming a peer the overlay does not know is refused ([`check_request`])
/// and changes nothing.
fn handle<S: StoreService>(
    dht: &Dht<S::Value>,
    store: &S,
    request: &RequestOf<S>,
    mut legs: Legs<'_>,
) -> ResponseOf<S> {
    if let Err(reason) = check_request(dht.overlay(), request) {
        return Response::Err(reason);
    }
    let volume = |value: &S::Value| store.migrate_volume(value);
    match request {
        Request::InsertBatch { batches } => Response::Inserted {
            acks: insert_batch(dht, store, batches, legs),
        },
        Request::Notify { notes } => {
            for (position, note) in notes.iter().enumerate() {
                dht.notify(note.to, note.postings, note.bytes);
                // Messages to the same contributor share a link and queue
                // FIFO. The DHT charges notifications one hop, and so does
                // the timing model.
                if let Some(legs) = legs.as_deref_mut() {
                    legs.push(Leg::direct(
                        MsgKind::IndexNotify,
                        (u64::MAX, note.to.0),
                        note.to.0,
                        note.bytes,
                        position as u64,
                    ));
                }
            }
            Response::Notified
        }
        Request::LookupMany {
            from,
            query_id,
            keys,
        } => {
            let hashes: Vec<KeyHash> = keys.iter().map(|k| k.route).collect();
            let (resolved, served) =
                dht.lookup_many_delivered(*from, *query_id, &hashes, |i, value| {
                    let (result, postings, bytes) = store.read(&keys[i].body, value);
                    ((result, bytes), postings, bytes)
                });
            // The request leg queues on the forward link (and pays the
            // dead-peer timeouts of the failover walk), the response leg
            // on the reverse link; a key's exchange completes after both.
            if let Some(legs) = legs {
                for (position, ((key, (_, response_bytes)), leg)) in
                    keys.iter().zip(&resolved).zip(&served).enumerate()
                {
                    let request = Leg::along(
                        MsgKind::QueryLookup,
                        leg,
                        key.route,
                        LOOKUP_REQUEST_BYTES,
                        position as u64,
                    );
                    legs.push(request);
                    legs.push(Leg {
                        kind: MsgKind::QueryResponse,
                        link: (request.link.1, request.link.0),
                        bytes: *response_bytes,
                        dead_skips: 0,
                        chained: true,
                        ..request
                    });
                }
            }
            Response::Found {
                results: resolved.into_iter().map(|(result, _)| result).collect(),
            }
        }
        Request::Repair => {
            Response::Repaired(dht.repair_sweep(volume, copy_leg(MsgKind::Repair, legs)))
        }
        Request::Rebalance => {
            Response::Rebalanced(dht.rebalance_hot(volume, copy_leg(MsgKind::HotReplicate, legs)))
        }
        Request::Sweep(sweep) => Response::Swept(store.sweep(dht, sweep)),
    }
}

/// Why a membership wave cannot be applied to a [`Dht`] over `overlay` and
/// `membership`, where the `Dht` itself would assert: a joiner must be new, a leaver, crasher or
/// restarter known and live, no peer may appear twice, and a departure or
/// crash wave must leave a live peer behind.
fn check_wave(overlay: &PGrid, membership: &Membership, control: &Control) -> Result<(), String> {
    let (peers, joining, removing) = match control {
        Control::Join { peers } => (peers, true, false),
        Control::Leave { peers } | Control::Fail { peers } => (peers, false, true),
        Control::Restart { peers } => (peers, false, false),
        Control::Gossip { .. } | Control::HotConfig(_) | Control::EnableGossip { .. } => {
            return Ok(())
        }
    };
    let known = overlay.peers();
    for (i, peer) in peers.iter().enumerate() {
        if peers[..i].contains(peer) {
            return Err(format!("peer {} appears twice in one wave", peer.0));
        }
        match known.iter().position(|p| p == peer) {
            Some(_) if joining => return Err(format!("peer {} is already a member", peer.0)),
            None if !joining => return Err(format!("unknown peer {}", peer.0)),
            Some(index) if !membership.is_live(index) => {
                return Err(format!("peer {} is not live", peer.0))
            }
            _ => {}
        }
    }
    if removing && peers.len() >= membership.live_count() {
        return Err("the wave would leave no live peer".into());
    }
    Ok(())
}

/// The one place a control-plane message becomes DHT calls, for every
/// backend (see [`handle`] for `legs`). A crash and a restart send
/// nothing, so they report no legs. A wave that is invalid against this
/// host's overlay and membership is refused ([`check_wave`]) and changes
/// nothing.
fn handle_control<S: StoreService>(
    dht: &mut Dht<S::Value>,
    store: &S,
    control: Control,
    legs: Legs<'_>,
) -> ResponseOf<S> {
    if let Err(reason) = check_wave(dht.overlay(), dht.membership(), &control) {
        return Response::Err(reason);
    }
    let timed = legs.is_some();
    let volume = |value: &S::Value| store.migrate_volume(value);
    match control {
        Control::Join { peers } => {
            let stats = dht.add_peers(peers.clone(), volume);
            if let Some(legs) = legs {
                handover_legs(&peers, &stats, true, legs);
            }
            Response::Moved(stats)
        }
        Control::Leave { peers } => {
            let stats = dht.leave_peers(&peers, volume);
            if let Some(legs) = legs {
                handover_legs(&peers, &stats, false, legs);
            }
            Response::Moved(stats)
        }
        Control::Fail { peers } => Response::Lost(dht.fail_peers(&peers, volume)),
        Control::Restart { peers } => Response::Recovered(dht.restart_peers(&peers, volume)),
        Control::Gossip { round } => match dht.gossip().map(|g| g.round()) {
            None => Response::Err("gossip is not enabled".into()),
            Some(local) if local != round => Response::Err(format!(
                "gossip round mismatch: sender at {round}, this host at {local}"
            )),
            Some(_) => {
                let mut probes: Vec<GossipProbe> = Vec::new();
                let mut copies = Vec::new();
                let outcome = dht.gossip_round(
                    volume,
                    |probe| {
                        if timed {
                            probes.push(probe);
                        }
                    },
                    |key, copy, bytes| {
                        if timed {
                            copies.push((key, copy, bytes));
                        }
                    },
                );
                if let Some(legs) = legs {
                    gossip_legs(dht.overlay().peers(), &probes, legs);
                    // The repair the round may have triggered rides the
                    // same wave.
                    let mut leg = copy_leg(MsgKind::Repair, Some(legs));
                    copies
                        .into_iter()
                        .for_each(|(key, copy, bytes)| leg(key, copy, bytes));
                }
                Response::Gossiped(outcome)
            }
        },
        Control::HotConfig(hot) => {
            dht.set_hot_config(hot);
            Response::Done
        }
        Control::EnableGossip { config, metering } => match config.check() {
            Err(reason) => Response::Err(reason),
            Ok(()) if config.fanout == 0 => {
                Response::Err("enabling gossip needs fanout >= 1".into())
            }
            Ok(()) => {
                dht.enable_gossip(config);
                dht.set_gossip_metering(metering);
                Response::Done
            }
        },
    }
}

/// A round's probes in canonical schedule order: a delivered exchange is
/// a ping leg plus an ack leg back over the reverse link (the exchange
/// completes after both); a failed probe is one leg that times out
/// (`dead_skips = 1` — the delivery attempt to a dead or unreachable
/// peer, exactly like a failover skip).
fn gossip_legs(peers: &[PeerId], probes: &[GossipProbe], legs: &mut Vec<Leg>) {
    for probe in probes {
        let (from, to) = (peers[probe.from as usize].0, peers[probe.to as usize].0);
        let ping = Leg::direct(
            MsgKind::Gossip,
            (from, to),
            probe.position,
            probe.bytes,
            legs.len() as u64,
        );
        legs.push(Leg {
            dead_skips: u32::from(!probe.delivered),
            ..ping
        });
        if probe.delivered {
            legs.push(Leg {
                link: (to, from),
                position: ping.position + 1,
                chained: true,
                ..ping
            });
        }
    }
}

/// The in-process backend: a message is a synchronous call into the
/// handler over the lock-striped [`Dht`], with metering identical to a
/// direct call. This is the default backend and the performance baseline —
/// `bench_rpc` checks its dispatch overhead stays within noise of raw DHT
/// calls.
pub struct InProc<S: StoreService> {
    dht: Dht<S::Value>,
    store: S,
}

impl<S: StoreService> InProc<S> {
    /// In-process network over `overlay`, with `store` as the hosting
    /// peers' application logic (unreplicated, `R = 1`).
    pub fn new(overlay: Box<PGrid>, store: S) -> Self {
        Self::replicated(overlay, store, 1)
    }

    /// [`InProc::new`] with every key placed on `replication` live peers.
    pub fn replicated(overlay: Box<PGrid>, store: S, replication: usize) -> Self {
        Self {
            dht: Dht::replicated(overlay, replication),
            store,
        }
    }

    /// [`InProc::replicated`] over a pluggable storage backend (e.g. a
    /// tiered [`crate::store::SegmentStore`] whose sealed segment logs
    /// make a [`Control::Restart`] recover actual state).
    pub fn with_store(
        overlay: Box<PGrid>,
        store: S,
        replication: usize,
        backend: Box<dyn Store<S::Value>>,
    ) -> Self {
        Self {
            dht: Dht::with_store(overlay, replication, backend),
            store,
        }
    }
}

impl<S: StoreService> NetworkBackend<S> for InProc<S> {
    fn call(&self, request: &RequestOf<S>) -> ResponseOf<S> {
        handle(&self.dht, &self.store, request, None)
    }

    fn control(&mut self, control: Control) -> ResponseOf<S> {
        handle_control(&mut self.dht, &self.store, control, None)
    }

    fn dht(&self) -> &Dht<S::Value> {
        &self.dht
    }
}

impl<S: StoreService> std::fmt::Debug for InProc<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProc").field("dht", &self.dht).finish()
    }
}

/// Upper bound on modeled retransmissions per message: after this many
/// consecutive drops the delivery goes through anyway (a bounded-retry
/// transport), so latencies stay finite at any drop probability.
pub const MAX_RETRIES: u32 = 8;

/// Parameters of the simulated network.
///
/// Every random choice (jitter, drops) is a pure seeded function of the
/// message's observable attributes — kind, endpoints, route, size, hops
/// and position within its request — never of wall-clock time or
/// scheduling, so a scenario replays bit-identically at any
/// `RAYON_NUM_THREADS`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimNetConfig {
    /// Seed for jitter and drop decisions.
    pub seed: u64,
    /// Propagation delay per overlay hop, nanoseconds.
    pub hop_ns: u64,
    /// Maximum per-message jitter, nanoseconds (uniform in `[0, jitter]`).
    pub jitter_ns: u64,
    /// Serialization (bandwidth) cost per payload byte, nanoseconds — the
    /// component that makes same-link messages queue behind each other.
    pub ns_per_byte: u64,
    /// Probability that one transmission attempt is dropped (each drop
    /// costs [`SimNetConfig::timeout_ns`] and a retransmission, bounded by
    /// [`MAX_RETRIES`]).
    pub drop_prob: f64,
    /// Retransmission timeout after a drop, nanoseconds.
    pub timeout_ns: u64,
}

impl Default for SimNetConfig {
    /// A WAN-flavored default: 0.4 ms per overlay hop, up to 0.15 ms
    /// jitter, ~1 Gbit/s links, no loss.
    fn default() -> Self {
        Self {
            seed: 0x5eed,
            hop_ns: 400_000,
            jitter_ns: 150_000,
            ns_per_byte: 8,
            drop_prob: 0.0,
            timeout_ns: 25_000_000,
        }
    }
}

impl SimNetConfig {
    /// The degenerate all-zero network: every delivery is instantaneous
    /// and lossless. A `SimNet` configured with this must be
    /// observationally equal to [`InProc`] except that it still *records*
    /// its (zero) latency samples — the backend-equivalence configuration
    /// used by the property tests.
    pub fn zero() -> Self {
        Self {
            seed: 0,
            hop_ns: 0,
            jitter_ns: 0,
            ns_per_byte: 0,
            drop_prob: 0.0,
            timeout_ns: 0,
        }
    }
}

/// The simulated-network backend: the same handler as [`InProc`] (same
/// storage state, same meter), plus a deterministic timing model charged
/// per message leg:
///
/// * **per-link FIFO queues** — within one request, messages sharing a
///   link (an ordered `(sender, receiver)` peer pair) serialize: each
///   waits for the previous one's transmission
///   (`bytes × ns_per_byte`) to finish;
/// * **propagation** — `hops × hop_ns` along the overlay route;
/// * **jitter** — seeded-uniform in `[0, jitter_ns]`;
/// * **drops** — each attempt is dropped with `drop_prob`; a drop costs
///   `timeout_ns` and a retransmission (bounded by [`MAX_RETRIES`]),
///   surfacing as latency and in the histogram's `retries` counter, while
///   message *counts* keep counting logical messages — so counts stay
///   comparable with [`InProc`] at any loss rate.
///
/// Every delivery records into the per-kind [`crate::transport::LatencyHistogram`]s of
/// the shared meter, and the virtual clock advances by each request's
/// makespan (its slowest message chain), i.e. it accumulates the total
/// virtual network time of a back-to-back request schedule.
pub struct SimNet<S: StoreService> {
    inner: InProc<S>,
    config: SimNetConfig,
    clock_ns: AtomicU64,
}

impl<S: StoreService> SimNet<S> {
    /// Puts the simulated network in front of `inner`'s DHT and store
    /// service, timing deliveries with `config`.
    pub fn new(inner: InProc<S>, config: SimNetConfig) -> Self {
        Self {
            inner,
            config,
            clock_ns: AtomicU64::new(0),
        }
    }

    /// Delivers one message leg, returning its total latency: queueing
    /// behind earlier same-link messages of this request, then
    /// serialization, propagation, jitter, drop/retransmission timeouts,
    /// and one timeout per dead peer the failover walk skipped (a dead
    /// candidate is a delivery attempt that times out — never a hang and
    /// never an extra counted message). Records the sample — including
    /// the retransmitted byte volume — into the meter's histogram.
    fn deliver(&self, leg: &Leg, busy: &mut HashMap<(u64, u64), u64>) -> u64 {
        let c = &self.config;
        let transmit = leg.bytes * c.ns_per_byte;
        let queue = busy.entry(leg.link).or_insert(0);
        let wait = *queue;
        *queue += transmit;
        let h = hash_u64s(&[
            c.seed,
            leg.kind.slot() as u64,
            leg.link.0,
            leg.link.1,
            leg.route.0,
            leg.bytes,
            leg.position,
        ]);
        let jitter = if c.jitter_ns == 0 {
            0
        } else {
            splitmix64(h) % (c.jitter_ns + 1)
        };
        let mut retries = 0u32;
        let mut draw = h;
        while retries < MAX_RETRIES {
            draw = splitmix64(draw.wrapping_add(0x9e37));
            let frac = (draw >> 11) as f64 / (1u64 << 53) as f64;
            if frac >= c.drop_prob {
                break;
            }
            retries += 1;
        }
        let resends = retries + leg.dead_skips;
        let latency = wait
            + transmit
            + u64::from(leg.hops) * c.hop_ns
            + jitter
            + u64::from(resends) * c.timeout_ns;
        self.inner.dht.meter().record_latency(
            leg.kind,
            latency,
            resends,
            u64::from(resends) * leg.bytes,
        );
        latency
    }

    /// The one timing pass: delivers a request's legs in their canonical
    /// order over shared per-link FIFO state and advances the virtual
    /// clock by the makespan — the slowest chain of legs.
    fn charge(&self, legs: &[Leg]) {
        let mut busy = HashMap::new();
        let (mut makespan, mut chain) = (0u64, 0u64);
        for leg in legs {
            let latency = self.deliver(leg, &mut busy);
            chain = if leg.chained {
                chain + latency
            } else {
                latency
            };
            makespan = makespan.max(chain);
        }
        self.advance(makespan);
    }

    /// Advances the virtual clock.
    fn advance(&self, ns: u64) {
        self.clock_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

impl<S: StoreService> NetworkBackend<S> for SimNet<S> {
    fn call(&self, request: &RequestOf<S>) -> ResponseOf<S> {
        let mut legs = Vec::new();
        let response = handle(&self.inner.dht, &self.inner.store, request, Some(&mut legs));
        self.charge(&legs);
        response
    }

    fn control(&mut self, control: Control) -> ResponseOf<S> {
        let mut legs = Vec::new();
        let inner = &mut self.inner;
        let response = handle_control(&mut inner.dht, &inner.store, control, Some(&mut legs));
        self.charge(&legs);
        // Replay is host-local disk I/O: no messages, no latency samples
        // — but reading the log back is not free, so the virtual clock
        // advances by the replayed volume at link serialization speed, a
        // disk-as-fast-as-the-NIC stand-in until storage gets its own
        // rate model.
        if let Response::Recovered(stats) = &response {
            self.advance(stats.bytes_replayed * self.config.ns_per_byte);
        }
        response
    }

    fn dht(&self) -> &Dht<S::Value> {
        &self.inner.dht
    }

    fn virtual_time_ns(&self) -> u64 {
        self.clock_ns.load(Ordering::Relaxed)
    }
}

impl<S: StoreService> std::fmt::Debug for SimNet<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNet")
            .field("dht", &self.inner.dht)
            .field("config", &self.config)
            .field("virtual_ns", &self.clock_ns.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::hash_u64s;

    /// A toy store: values are doc-id sets, inserts are `(route, docs)`
    /// payloads, lookups return the stored vector.
    struct SetStore;

    impl StoreService for SetStore {
        type Value = Vec<u32>;
        type Insert = Vec<u32>;
        type LookupKey = ();
        type Lookup = Vec<u32>;
        type Sweep = ();
        type Swept = u64;

        fn insert_volume(&self, insert: &Vec<u32>) -> (u64, u64) {
            (insert.len() as u64, 4 * insert.len() as u64)
        }

        fn fresh(&self, _insert: &Vec<u32>) -> Vec<u32> {
            Vec::new()
        }

        fn merge(&self, _from: PeerId, insert: &Vec<u32>, value: &mut Vec<u32>) -> bool {
            value.extend(insert);
            value.len() > 4
        }

        fn read(&self, _key: &(), value: Option<&Vec<u32>>) -> (Option<Vec<u32>>, u64, u64) {
            match value {
                Some(v) => (Some(v.clone()), v.len() as u64, 4 * v.len() as u64),
                None => (None, 0, 8),
            }
        }

        fn migrate_volume(&self, value: &Vec<u32>) -> (u64, u64) {
            (value.len() as u64, 4 * value.len() as u64)
        }

        /// The one sweep of the toy store: how many keys this host holds.
        fn sweep(&self, dht: &Dht<Vec<u32>>, _sweep: &()) -> u64 {
            dht.num_keys() as u64
        }
    }

    // Every operation below is a message; these only unwrap the reply.

    fn insert_batch(
        backend: &impl NetworkBackend<SetStore>,
        batches: Vec<(PeerId, Vec<Addressed<Vec<u32>>>)>,
    ) -> Vec<(PeerId, Vec<bool>)> {
        match backend.call(&Request::InsertBatch { batches }) {
            Response::Inserted { acks } => acks,
            other => panic!("wrong response: {other:?}"),
        }
    }

    fn lookup_many(
        backend: &impl NetworkBackend<SetStore>,
        from: PeerId,
        query_id: u64,
        keys: &[Addressed<()>],
    ) -> Vec<Option<Vec<u32>>> {
        let keys = keys.to_vec();
        match backend.call(&Request::LookupMany {
            from,
            query_id,
            keys,
        }) {
            Response::Found { results } => results,
            other => panic!("wrong response: {other:?}"),
        }
    }

    fn notify(backend: &impl NetworkBackend<SetStore>, notes: &[Notification]) {
        let notes = notes.to_vec();
        assert!(matches!(
            backend.call(&Request::Notify { notes }),
            Response::Notified
        ));
    }

    fn repair(backend: &impl NetworkBackend<SetStore>) -> RepairStats {
        match backend.call(&Request::Repair) {
            Response::Repaired(stats) => stats,
            other => panic!("wrong response: {other:?}"),
        }
    }

    fn rebalance(backend: &impl NetworkBackend<SetStore>) -> HotStats {
        match backend.call(&Request::Rebalance) {
            Response::Rebalanced(stats) => stats,
            other => panic!("wrong response: {other:?}"),
        }
    }

    fn migrate(backend: &mut impl NetworkBackend<SetStore>, peer: PeerId) -> MigrationStats {
        match backend.control(Control::Join { peers: vec![peer] }) {
            Response::Moved(mut stats) => stats.pop().expect("one join, one migration"),
            other => panic!("wrong response: {other:?}"),
        }
    }

    fn set_hot_config(backend: &mut impl NetworkBackend<SetStore>, hot: HotConfig) {
        assert!(matches!(
            backend.control(Control::HotConfig(hot)),
            Response::Done
        ));
    }

    fn overlay(n: u64) -> Box<PGrid> {
        Box::new(PGrid::new((0..n).map(PeerId).collect()))
    }

    fn addressed(word: u64, docs: &[u32]) -> Addressed<Vec<u32>> {
        Addressed {
            route: KeyHash(hash_u64s(&[word])),
            body: docs.to_vec(),
        }
    }

    fn round() -> Vec<(PeerId, Vec<Addressed<Vec<u32>>>)> {
        vec![
            (PeerId(0), vec![addressed(1, &[0, 1]), addressed(2, &[2])]),
            (
                PeerId(1),
                vec![addressed(1, &[5, 6, 7, 8]), addressed(3, &[9])],
            ),
            (PeerId(2), vec![addressed(2, &[4])]),
        ]
    }

    fn probes() -> Vec<Addressed<()>> {
        (1..=4u64)
            .map(|w| Addressed {
                route: KeyHash(hash_u64s(&[w])),
                body: (),
            })
            .collect()
    }

    #[test]
    fn inproc_matches_direct_dht_calls_bit_for_bit() {
        // The same scenario through the typed RPC layer and through raw
        // Dht calls must produce identical storage and traffic.
        let backend = InProc::new(overlay(8), SetStore);
        let acks = insert_batch(&backend, round());
        assert_eq!(acks[0], (PeerId(0), vec![false, false]));
        assert_eq!(acks[1].1, vec![true, false], "merge flag travels back");
        notify(
            &backend,
            &[Notification {
                to: PeerId(0),
                postings: 0,
                bytes: 6,
            }],
        );
        let results = lookup_many(&backend, PeerId(3), 0, &probes());
        assert!(
            matches!(backend.call(&Request::Sweep(())), Response::Swept(3)),
            "a sweep is answered by the store service over the host's stripes"
        );

        let direct: Dht<Vec<u32>> = Dht::new(overlay(8));
        for (peer, items) in round() {
            for item in &items {
                let (postings, bytes) = SetStore.insert_volume(&item.body);
                direct.upsert(
                    peer,
                    item.route,
                    postings,
                    bytes,
                    Vec::new,
                    |v: &mut Vec<u32>| v.extend(&item.body),
                );
            }
        }
        direct.notify(PeerId(0), 0, 6);
        let hashes: Vec<KeyHash> = probes().iter().map(|p| p.route).collect();
        let expected = direct.lookup_many(PeerId(3), 0, &hashes, |_, v| match v {
            Some(v) => (Some(v.clone()), v.len() as u64, 4 * v.len() as u64),
            None => (None, 0, 8),
        });

        assert_eq!(results, expected);
        assert_eq!(backend.snapshot(), direct.snapshot(), "traffic diverged");
        assert_eq!(backend.virtual_time_ns(), 0, "in-proc models no time");
    }

    #[test]
    fn simnet_zero_config_equals_inproc_counts_and_results() {
        let mut inproc = InProc::new(overlay(8), SetStore);
        let mut sim = SimNet::new(InProc::new(overlay(8), SetStore), SimNetConfig::zero());
        let a = insert_batch(&inproc, round());
        let b = insert_batch(&sim, round());
        assert_eq!(a, b);
        assert_eq!(
            lookup_many(&inproc, PeerId(5), 17, &probes()),
            lookup_many(&sim, PeerId(5), 17, &probes())
        );
        assert_eq!(
            migrate(&mut inproc, PeerId(100)),
            migrate(&mut sim, PeerId(100))
        );
        let (sa, sb) = (inproc.snapshot(), sim.snapshot());
        assert!(sa.same_counts(&sb), "counts must match across backends");
        // The zero network is instantaneous but still records samples.
        assert_ne!(sa, sb, "SimNet records (zero) latency samples");
        let lookups = sb.latency(MsgKind::QueryLookup);
        assert_eq!(lookups.samples, sb.kind(MsgKind::QueryLookup).messages);
        assert_eq!(lookups.total_ns, 0);
        assert_eq!(sim.virtual_time_ns(), 0);
    }

    #[test]
    fn simnet_latencies_are_deterministic_and_structured() {
        let run = || {
            let sim = SimNet::new(
                InProc::new(overlay(8), SetStore),
                SimNetConfig {
                    seed: 42,
                    hop_ns: 100_000,
                    jitter_ns: 40_000,
                    ns_per_byte: 10,
                    drop_prob: 0.0,
                    timeout_ns: 0,
                },
            );
            insert_batch(&sim, round());
            lookup_many(&sim, PeerId(6), 0, &probes());
            (sim.snapshot(), sim.virtual_time_ns())
        };
        let (s1, t1) = run();
        let (s2, t2) = run();
        assert_eq!(s1, s2, "same seed, same histograms");
        assert_eq!(t1, t2);
        assert!(t1 > 0, "virtual clock must advance");
        let h = s1.latency(MsgKind::QueryResponse);
        assert_eq!(h.samples, s1.kind(MsgKind::QueryResponse).messages);
        assert!(h.total_ns > 0, "nonzero config must produce latency");
        assert_eq!(h.retries, 0);
        // A different seed shifts the jitter draw.
        let other = SimNet::new(
            InProc::new(overlay(8), SetStore),
            SimNetConfig {
                seed: 43,
                hop_ns: 100_000,
                jitter_ns: 40_000,
                ns_per_byte: 10,
                drop_prob: 0.0,
                timeout_ns: 0,
            },
        );
        insert_batch(&other, round());
        lookup_many(&other, PeerId(6), 0, &probes());
        assert_ne!(
            other.snapshot().latency(MsgKind::QueryResponse).total_ns,
            h.total_ns
        );
    }

    #[test]
    fn same_link_messages_queue_fifo() {
        // Two inserts of the same key come from the same peer, so they
        // share a link: the second must wait for the first's transmission.
        let sim = SimNet::new(
            InProc::new(overlay(2), SetStore),
            SimNetConfig {
                seed: 7,
                hop_ns: 0,
                jitter_ns: 0,
                ns_per_byte: 100,
                drop_prob: 0.0,
                timeout_ns: 0,
            },
        );
        let batch = vec![(
            PeerId(0),
            vec![addressed(9, &[1, 2, 3]), addressed(9, &[4, 5, 6])],
        )];
        insert_batch(&sim, batch);
        let snap = sim.snapshot();
        let h = snap.latency(MsgKind::IndexInsert);
        assert_eq!(h.samples, 2);
        // transmit = 12 bytes * 100 ns; first waits 0, second waits 1200.
        assert_eq!(h.total_ns, 1200 + 2400);
        assert_eq!(h.max_ns, 2400);
    }

    #[test]
    fn same_recipient_notifications_queue_and_decorrelate() {
        // N notes to one peer share a link: they serialize FIFO and each
        // position draws its own jitter — no degenerate N-copies-of-one-
        // latency histogram.
        let sim = SimNet::new(
            InProc::new(overlay(4), SetStore),
            SimNetConfig {
                seed: 5,
                hop_ns: 0,
                jitter_ns: 10_000,
                ns_per_byte: 50,
                drop_prob: 0.0,
                timeout_ns: 0,
            },
        );
        let notes = vec![
            Notification {
                to: PeerId(1),
                postings: 0,
                bytes: 6,
            };
            4
        ];
        notify(&sim, &notes);
        let snap = sim.snapshot();
        let h = snap.latency(MsgKind::IndexNotify);
        assert_eq!(h.samples, 4);
        assert_eq!(snap.kind(MsgKind::IndexNotify).messages, 4);
        // Queueing: the k-th note waits for k earlier transmissions of
        // 6 * 50 ns each, so total >= 300 * (0+1+2+3) + 4 transmissions.
        assert!(h.total_ns >= 300 * 6 + 4 * 300);
        // Decorrelation: positions draw different jitter, so the samples
        // cannot all land in one bucket at identical latency.
        assert!(h.max_ns > 300 * 3 + 300, "jitter must vary by position");
    }

    #[test]
    fn drops_cost_timeouts_not_messages() {
        let lossless = SimNet::new(InProc::new(overlay(4), SetStore), SimNetConfig::zero());
        let lossy = SimNet::new(
            InProc::new(overlay(4), SetStore),
            SimNetConfig {
                seed: 11,
                drop_prob: 1.0,
                timeout_ns: 1_000,
                ..SimNetConfig::zero()
            },
        );
        insert_batch(&lossless, round());
        insert_batch(&lossy, round());
        let (a, b) = (lossless.snapshot(), lossy.snapshot());
        assert!(
            a.same_counts(&b),
            "drops surface as latency, never as extra counted messages"
        );
        let h = b.latency(MsgKind::IndexInsert);
        assert_eq!(
            h.retries,
            u64::from(MAX_RETRIES) * h.samples,
            "certain loss hits the bounded-retry cap every time"
        );
        assert_eq!(h.total_ns, u64::from(MAX_RETRIES) * 1_000 * h.samples);
    }

    #[test]
    fn migrate_is_metered_and_timed() {
        let mut sim = SimNet::new(
            InProc::new(overlay(4), SetStore),
            SimNetConfig {
                seed: 3,
                hop_ns: 50_000,
                ..SimNetConfig::zero()
            },
        );
        insert_batch(&sim, round());
        let before = sim.virtual_time_ns();
        let stats = migrate(&mut sim, PeerId(77));
        let snap = sim.snapshot();
        assert_eq!(snap.kind(MsgKind::Maintenance).messages, 1);
        assert_eq!(
            snap.kind(MsgKind::Maintenance).postings,
            stats.postings_moved
        );
        assert_eq!(snap.latency(MsgKind::Maintenance).samples, 1);
        assert!(sim.virtual_time_ns() > before);
    }

    #[test]
    fn request_kinds_map_to_the_paper_taxonomy() {
        type R = Request<Vec<u32>, (), ()>;
        let insert: R = Request::InsertBatch { batches: vec![] };
        assert_eq!(insert.kind(), Some(MsgKind::IndexInsert));
        let notify: R = Request::Notify { notes: vec![] };
        assert_eq!(notify.kind(), Some(MsgKind::IndexNotify));
        let lookup: R = Request::LookupMany {
            from: PeerId(0),
            query_id: 0,
            keys: vec![],
        };
        assert_eq!(lookup.kind(), Some(MsgKind::QueryLookup));
        let repair: R = Request::Repair;
        assert_eq!(repair.kind(), Some(MsgKind::Repair));
        let rebalance: R = Request::Rebalance;
        assert_eq!(rebalance.kind(), Some(MsgKind::HotReplicate));
        let sweep: R = Request::Sweep(());
        assert_eq!(sweep.kind(), None, "host-local work is not a message");
    }

    #[test]
    fn control_refuses_what_it_cannot_apply() {
        let mut backend = InProc::new(overlay(4), SetStore);
        let refused = |response| match response {
            Response::Err(reason) => reason,
            other => panic!("expected a refusal, got {other:?}"),
        };
        // A gossip round before gossip is on.
        assert!(refused(backend.control(Control::Gossip { round: 0 })).contains("not enabled"));
        // A configuration the one validity rule rejects, and one that
        // leaves gossip off.
        let enable = |config| Control::EnableGossip {
            config,
            metering: GossipMetering::All,
        };
        let lossy = GossipConfig {
            fanout: 1,
            loss_prob: 1.0,
            ..GossipConfig::default()
        };
        assert_eq!(
            refused(backend.control(enable(lossy))),
            lossy.check().unwrap_err()
        );
        assert!(refused(backend.control(enable(GossipConfig::default()))).contains("fanout"));
        assert!(
            backend.dht().gossip().is_none(),
            "a refusal applies nothing"
        );
        // Enabled, rounds run in lockstep or not at all.
        let valid = GossipConfig {
            fanout: 1,
            ..GossipConfig::default()
        };
        assert!(matches!(backend.control(enable(valid)), Response::Done));
        assert!(refused(backend.control(Control::Gossip { round: 5 })).contains("mismatch"));
        assert!(matches!(
            backend.control(Control::Gossip { round: 0 }),
            Response::Gossiped(_)
        ));
        assert!(matches!(
            backend.control(Control::Gossip { round: 1 }),
            Response::Gossiped(_)
        ));
        // Membership waves the `Dht` would assert on.
        let ids = |peers: &[u64]| peers.iter().map(|&p| PeerId(p)).collect::<Vec<_>>();
        let fail = |peers: &[u64]| Control::Fail { peers: ids(peers) };
        let leave = |peers: &[u64]| Control::Leave { peers: ids(peers) };
        let join = |peers: &[u64]| Control::Join { peers: ids(peers) };
        let restart = |peers: &[u64]| Control::Restart { peers: ids(peers) };
        assert!(refused(backend.control(join(&[2]))).contains("already a member"));
        assert!(refused(backend.control(join(&[7, 7]))).contains("twice"));
        for wave in [leave(&[9]), fail(&[9]), restart(&[9])] {
            assert!(refused(backend.control(wave)).contains("unknown peer 9"));
        }
        assert!(refused(backend.control(fail(&[0, 1, 2, 3]))).contains("no live peer"));
        assert!(matches!(backend.control(fail(&[3])), Response::Lost(_)));
        for wave in [leave(&[3]), fail(&[3]), restart(&[3])] {
            assert!(refused(backend.control(wave)).contains("not live"));
        }
        assert!(refused(backend.control(leave(&[0, 1, 2]))).contains("no live peer"));
        assert_eq!(backend.dht().overlay().len(), 4, "refusals changed nothing");
        assert_eq!(backend.dht().membership().live_count(), 3);
        assert!(matches!(backend.control(join(&[7])), Response::Moved(_)));
    }

    /// A `StoreCodec` for the toy `Vec<u32>` values, so the RPC tests can
    /// run over a tiered store.
    struct U32SetCodec;

    impl crate::store::StoreCodec<Vec<u32>> for U32SetCodec {
        fn encode(&self, value: &Vec<u32>, out: &mut Vec<u8>) {
            for v in value {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }

        fn decode(&self, bytes: &[u8]) -> Option<Vec<u32>> {
            if !bytes.len().is_multiple_of(4) {
                return None;
            }
            Some(
                bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                    .collect(),
            )
        }

        fn weight(&self, value: &Vec<u32>) -> u64 {
            4 * value.len() as u64
        }
    }

    #[test]
    fn restart_over_segments_recovers_sealed_state_unmetered() {
        // Build over a tiered store with a zero hot budget (everything
        // seals to disk), restart a holder, and check the log replay
        // restored its copies without a single metered message.
        let seg = crate::store::SegmentStore::ephemeral(U32SetCodec, 0);
        let mut backend = InProc::with_store(overlay(8), SetStore, 2, Box::new(seg));
        insert_batch(&backend, round());
        backend.dht().sync_storage();
        let before = backend.snapshot();
        let expected = lookup_many(&backend, PeerId(3), 0, &probes());

        let stats = match backend.control(Control::Restart {
            peers: vec![PeerId(0), PeerId(1)],
        }) {
            Response::Recovered(stats) => stats,
            other => panic!("wrong response: {other:?}"),
        };
        assert!(stats.frames_replayed > 0, "the logs were not empty");
        assert_eq!(stats.copies_lost, 0, "synced state recovers fully");
        assert_eq!(stats.frames_discarded, 0);

        let after = backend.snapshot();
        // Only the verification lookups above are new traffic.
        assert_eq!(
            after.kind(MsgKind::QueryLookup).messages,
            before.kind(MsgKind::QueryLookup).messages + probes().len() as u64,
        );
        assert_eq!(
            after.kind(MsgKind::Maintenance).messages,
            before.kind(MsgKind::Maintenance).messages,
            "log replay is host-local, never metered"
        );
        assert_eq!(repair(&backend).copies, 0, "no gap to close");
        assert_eq!(lookup_many(&backend, PeerId(3), 0, &probes()), expected);
    }

    #[test]
    fn rebalance_is_metered_and_timed_on_simnet() {
        let mut sim = SimNet::new(
            InProc::new(overlay(8), SetStore),
            SimNetConfig {
                seed: 9,
                hop_ns: 50_000,
                ..SimNetConfig::zero()
            },
        );
        set_hot_config(
            &mut sim,
            HotConfig {
                threshold: 3,
                extra: 1,
            },
        );
        insert_batch(&sim, round());
        let hot = vec![Addressed {
            route: KeyHash(hash_u64s(&[1])),
            body: (),
        }];
        for qid in 0..4u64 {
            lookup_many(&sim, PeerId(5), qid, &hot);
        }
        let before = sim.virtual_time_ns();
        let stats = rebalance(&sim);
        assert_eq!(stats.promoted, 1);
        assert_eq!(stats.copies, 1);
        let snap = sim.snapshot();
        assert_eq!(snap.kind(MsgKind::HotReplicate).messages, 1);
        assert_eq!(snap.latency(MsgKind::HotReplicate).samples, 1);
        assert!(sim.virtual_time_ns() > before, "the copy took virtual time");
        // Cross-backend equality: the same program through InProc counts
        // the same traffic (no latency samples, same counts).
        let mut ip = InProc::new(overlay(8), SetStore);
        set_hot_config(
            &mut ip,
            HotConfig {
                threshold: 3,
                extra: 1,
            },
        );
        insert_batch(&ip, round());
        for qid in 0..4u64 {
            lookup_many(&ip, PeerId(5), qid, &hot);
        }
        assert_eq!(rebalance(&ip), stats);
        assert!(ip.snapshot().same_counts(&sim.snapshot()));
    }

    #[test]
    fn golden_simnet_spread_failover_scenario() {
        // Pinned end-to-end numbers for the spread path's dead-candidate
        // accounting: crash the owner at R=2, then look the key up through
        // the batched (spread) path. The surviving holder is the forced
        // pick, each skipped dead candidate costs one timeout, and the
        // numbers must match the single-key walk-order path exactly.
        let config = SimNetConfig {
            seed: 2026,
            hop_ns: 100_000,
            jitter_ns: 0,
            ns_per_byte: 0,
            drop_prob: 0.0,
            timeout_ns: 1_000_000,
        };
        let run = |batched: bool| {
            let mut sim = SimNet::new(InProc::replicated(overlay(4), SetStore, 2), config);
            insert_batch(&sim, vec![(PeerId(0), vec![addressed(9, &[1, 2, 3])])]);
            let key = KeyHash(hash_u64s(&[9]));
            let owner = sim.dht().overlay().responsible(key);
            assert!(matches!(
                sim.control(Control::Fail { peers: vec![owner] }),
                Response::Lost(_)
            ));
            let probe = vec![Addressed {
                route: key,
                body: (),
            }];
            if batched {
                lookup_many(&sim, PeerId(0), 1234, &probe);
            } else {
                // The walk-order reference: one key at a time.
                for p in &probe {
                    lookup_many(&sim, PeerId(0), 1234, std::slice::from_ref(p));
                }
            }
            sim.snapshot()
        };
        let (spread, walk) = (run(true), run(false));
        assert_eq!(spread, walk, "spread accounting must match walk order");
        let h = spread.latency(MsgKind::QueryLookup);
        assert_eq!(h.samples, 1);
        // One dead owner skipped: request pays 1 timeout + (route+1) hops.
        assert_eq!(h.retries, 1, "the dead owner cost one timed-out attempt");
        assert_eq!(
            h.retransmission_bytes, LOOKUP_REQUEST_BYTES,
            "the skipped attempt resent the request payload"
        );
        assert!(
            h.max_ns >= 1_000_000 + 100_000,
            "timeout + at least one hop"
        );
        assert_eq!(
            spread.latency(MsgKind::QueryResponse).retries,
            0,
            "the response leg retraces a live path"
        );
    }
}
