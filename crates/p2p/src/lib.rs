//! Structured P2P substrate.
//!
//! The paper runs on "a structured P2P network" — concretely the P-Grid
//! layer (Section 5: "our prototype retrieval engine built on top of the
//! P-Grid P2P layer"). This crate simulates that substrate in-process with
//! *exact accounting of transmitted postings*, the unit in which the paper
//! states every scalability result ("we [...] merely analyze the number of
//! postings the network needs to absorb and transmit", Section 4).
//!
//! The overlay is [`pgrid::PGrid`], a binary trie in the style of P-Grid
//! (prefix-partitioned key space, prefix-correcting routing). The
//! [`dht::Dht`] storage layer runs on it and meters all traffic through
//! [`transport::TrafficMeter`].
//!
//! The engine reaches the DHT through the typed message layer of [`rpc`]:
//! message enums for the paper's message taxonomy, one handler that turns
//! a message into DHT calls, and the [`rpc::NetworkBackend`] trait whose
//! implementations only decide how a message is delivered — [`rpc::InProc`]
//! (a call, the zero-cost default) and [`rpc::SimNet`] (the same call, its
//! delivery records charged to a deterministic seeded latency/jitter/drop
//! model with per-kind latency histograms and a virtual clock). [`wire`]
//! derives every message's byte encoding from one declaration per type,
//! for backends that deliver across processes.
//!
//! Entry bytes live behind the [`store::Store`] trait, in the one
//! [`store::SegmentStore`]: unbounded, it is the in-memory store every
//! [`dht::Dht::new`] builds; under a hot-tier budget it seals what does
//! not fit into checksummed on-disk segment logs, which make peers
//! restartable ([`dht::Dht::restart_peers`]).

pub mod dht;
pub mod gossip;
pub mod id;
pub mod pgrid;
pub mod replica;
pub mod rpc;
pub mod store;
pub mod transport;
pub mod wire;

pub use dht::{
    stripe_of, Dht, GossipMetering, GossipOutcome, HotConfig, HotStats, LossStats, MigrationStats,
    RepairStats, LOOKUP_REQUEST_BYTES, NUM_STRIPES,
};
pub use gossip::{
    digest_bytes as gossip_digest_bytes, GossipConfig, GossipProbe, GossipRound, GossipState,
    Liveness, PeerView, ViewEntry,
};
pub use id::{hash_bytes, hash_u64s, IdHashMap, IdHashSet, IdHasher, KeyHash, PeerId};
pub use pgrid::{PGrid, RouteResult};
pub use replica::{Delivery, Membership, MembershipEvent, PeerState};
pub use rpc::{
    Addressed, Control, InProc, NetworkBackend, Notification, Reply, Request, RequestOf, Response,
    ResponseOf, SimNet, SimNetConfig, StoreService,
};
pub use store::{
    Found, Record, RecoveryStats, SegmentStore, Shared, Slot, Store, StoreCodec, TableBytes, Tier,
    HOT_ROW_BYTES,
};
pub use transport::{
    KindSnapshot, LatencyHistogram, MsgKind, TrafficMeter, TrafficSnapshot, LATENCY_BUCKETS,
    NUM_KINDS,
};
pub use wire::{
    put_bytes, read_frame as read_wire_frame, write_frame as write_wire_frame, Absorb, Wire,
    WireError, WireReader, WireResult, MAX_FRAME_BYTES, WIRE_HEADER_BYTES,
};
