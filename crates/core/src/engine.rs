//! The HDK network engine: N peers collaboratively building the global
//! index over a structured overlay, split into service facades over a
//! pluggable network backend.
//!
//! [`HdkNetwork::build`] constructs the system and runs the iterative
//! protocol of Section 3.1 in bulk-synchronous rounds (one per key size):
//! peers compute their local key postings in parallel waves and insert
//! them one peer at a time, then the hosting peers sweep their index
//! fractions and the resulting "key became globally non-discriminative"
//! notifications are delivered before the next round. Everything that
//! crosses peer boundaries travels as a typed message through the chosen
//! [`BackendConfig`] backend.
//!
//! ## Service facades
//!
//! The built system is owned as two service handles over one shared core:
//!
//! * [`IndexService`] — the write path: incremental document additions and
//!   peer joins (single or [bulk](IndexService::join_peers)), each running
//!   the incremental indexing protocol;
//! * [`QueryService`] — the read path: plan/execute retrieval, batched and
//!   cached variants, plus every measurement accessor. The handle is
//!   `Clone + Send + Sync` and queries take `&self`, so it can be shared
//!   across threads — concurrent queries proceed in parallel and only a
//!   peer join (which rewires the overlay) briefly blocks them.
//!
//! [`HdkNetwork`] is a thin owner of both; callers that need the split
//! (e.g. a query pool on one thread, churn on another) take the handles
//! via [`HdkNetwork::query_service`] / [`HdkNetwork::index_service`] or
//! [`HdkNetwork::into_services`].

use crate::config::{HdkConfig, StoreConfig};
use crate::global_index::{local_backend, GlobalIndex, IndexStore};
use crate::key::Key;
use crate::local_indexer::LocalPeer;
use crate::stats::BuildReport;
use hdk_corpus::{Collection, DocId, FrequencyStats};
use hdk_ir::CompressedPostings;
use hdk_p2p::{PGrid, PeerId, SimNet, SimNetConfig, TrafficSnapshot};
use hdk_text::TermId;
use parking_lot::{RwLock, RwLockReadGuard};
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The one routing substrate, P-Grid. Kept, with its single variant, only
/// so the frozen `benchmark/` crate compiles; nothing branches on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlayKind {
    /// P-Grid binary trie (the paper's substrate).
    PGrid,
}

/// Which network carries the engine's messages to the DHT.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum BackendConfig {
    /// Synchronous in-process dispatch into the lock-striped DHT — the
    /// zero-cost default; golden reports, traffic counters and top-k
    /// score bits are bit-identical to the pre-RPC engine.
    #[default]
    InProc,
    /// The deterministic simulated network: per-link FIFO queues, seeded
    /// latency/jitter/drop, per-kind latency histograms, virtual clock.
    /// Traffic *counts* match `InProc` for the same scenario.
    SimNet(SimNetConfig),
    /// The real serving tier: `addrs` name already-running peer
    /// processes (`hdk-peer` binaries) hosting the DHT stripes; every
    /// data-plane request travels as a checksummed wire frame over
    /// pooled TCP connections. Traffic counts and top-k score bits
    /// match `InProc` for the same corpus (`tests/serving_multiproc.rs`).
    Tcp {
        /// One `host:port` per peer process, in `proc_index` order.
        addrs: Vec<String>,
    },
}

impl BackendConfig {
    /// Reads `HDK_BACKEND` from the environment:
    /// `inproc` (or unset) — the in-process default;
    /// `tcp:host:port,host:port,...` — the serving tier over the listed
    /// peer processes. Panics on anything else, listing the valid forms
    /// (same discipline as `StoreConfig::from_env`).
    pub fn from_env() -> BackendConfig {
        match std::env::var("HDK_BACKEND") {
            Err(_) => BackendConfig::InProc,
            Ok(raw) => match raw.as_str() {
                "" | "inproc" => BackendConfig::InProc,
                spec => match spec.strip_prefix("tcp:") {
                    Some(list) if !list.is_empty() => BackendConfig::Tcp {
                        addrs: list.split(',').map(str::to_string).collect(),
                    },
                    _ => panic!(
                        "invalid HDK_BACKEND {spec:?}: expected \"inproc\" or \
                         \"tcp:host:port,host:port,...\""
                    ),
                },
            },
        }
    }

    fn build(
        self,
        overlay: Box<PGrid>,
        dfmax: u32,
        replication: usize,
        store: &StoreConfig,
    ) -> Box<dyn hdk_p2p::NetworkBackend<IndexStore>> {
        match self {
            BackendConfig::InProc => Box::new(local_backend(overlay, dfmax, replication, store)),
            BackendConfig::SimNet(config) => Box::new(SimNet::new(
                local_backend(overlay, dfmax, replication, store),
                config,
            )),
            // The serving tier: entries live in the peer processes
            // (each honors `HDK_STORE` itself), so `store` is
            // deliberately unused here.
            BackendConfig::Tcp { addrs } => Box::new(
                crate::serve::TcpNet::connect(&addrs, overlay, dfmax, replication)
                    .unwrap_or_else(|e| panic!("cannot connect to peer processes {addrs:?}: {e}")),
            ),
        }
    }
}

/// The state both services share: configuration, the global index behind
/// its backend, and the collection-level statistics queries rank with.
///
/// The index sits behind an `RwLock` written only by peer joins (the one
/// operation that rewires the overlay); every query and even the indexing
/// rounds take read access, so the read path genuinely shares.
pub(crate) struct SystemCore {
    pub(crate) config: HdkConfig,
    pub(crate) index: RwLock<GlobalIndex>,
    num_docs: AtomicUsize,
    sample_size: AtomicU64,
    rounds_run: AtomicUsize,
    /// Bumped whenever the index content changes (`add_documents`,
    /// `join_peer(s)`); query caches key their validity to this.
    epoch: AtomicU64,
    /// Very-frequent terms excluded from the key vocabulary, fixed at
    /// build time (the paper, too, derives its stop set during
    /// preprocessing; periodic full rebuilds would refresh it).
    pub(crate) excluded: HashSet<TermId>,
}

impl SystemCore {
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publishes the outcome of one completed growth operation: the
    /// document/sample counters advance and the epoch bumps, all while
    /// holding the index *write* lock. Queries hold the read lock for
    /// their whole run, so no query ever observes a torn pair (new
    /// `sample_size` with old `num_docs`) or — worse — a new epoch with a
    /// half-indexed session: the epoch only moves once every posting of
    /// the session is resident, which is what lets `QueryCache` entries
    /// committed *during* the session (under the old epoch) be swept
    /// instead of served. `rounds` is the completed session's round count
    /// — published here, under the same lock, so a racing `build_report`
    /// never pairs an in-flight session's rounds with pre-growth
    /// statistics.
    fn publish_growth(&self, new_docs: usize, new_sample: u64, rounds: usize) {
        let _guard = self.index.write();
        self.num_docs.fetch_add(new_docs, Ordering::AcqRel);
        self.sample_size.fetch_add(new_sample, Ordering::AcqRel);
        self.rounds_run.store(rounds, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    pub(crate) fn num_docs(&self) -> usize {
        self.num_docs.load(Ordering::Acquire)
    }

    pub(crate) fn sample_size(&self) -> u64 {
        self.sample_size.load(Ordering::Acquire)
    }

    /// Global average document length, derived from the live counters with
    /// the same `sample / docs` division [`Collection::stats`] uses — so
    /// the ranking statistics are bit-identical to the former cached
    /// field.
    pub(crate) fn avg_doc_len(&self) -> f64 {
        let docs = self.num_docs();
        if docs == 0 {
            0.0
        } else {
            self.sample_size() as f64 / docs as f64
        }
    }
}

/// The read path: retrieval and measurement over the built index.
///
/// A cheap clonable handle (`Arc` inside); queries take `&self` and run
/// concurrently from any number of threads. Obtain one via
/// [`HdkNetwork::query_service`].
#[derive(Clone)]
pub struct QueryService {
    core: Arc<SystemCore>,
}

impl QueryService {
    pub(crate) fn core(&self) -> &SystemCore {
        &self.core
    }

    /// The model configuration.
    pub fn config(&self) -> &HdkConfig {
        &self.core.config
    }

    /// Index epoch: increments on every content change, so query caches
    /// can detect staleness (see [`crate::cache::QueryCache`]).
    pub fn epoch(&self) -> u64 {
        self.core.epoch()
    }

    /// Read access to the global index (measurements, ablations).
    ///
    /// Use it as a temporary (`service.index().index_counts()`), dropped
    /// at the end of the statement. Do **not** call other `QueryService` /
    /// `HdkNetwork` methods while holding the guard: they re-acquire the
    /// same lock, and a recursive read while a peer join is queued for
    /// the write lock can deadlock (std `RwLock` makes no recursion
    /// guarantee, and a fair lock would deadlock deterministically).
    pub fn index(&self) -> RwLockReadGuard<'_, GlobalIndex> {
        self.core.index.read()
    }

    /// Number of peers ever admitted to the overlay (live or departed —
    /// peer indices stay stable across churn).
    pub fn num_peers(&self) -> usize {
        self.index().overlay().len()
    }

    /// Number of currently live peers (members that neither departed nor
    /// failed).
    pub fn num_live_peers(&self) -> usize {
        self.index().membership().live_count()
    }

    /// Number of indexed documents (`M`).
    pub fn num_docs(&self) -> usize {
        self.core.num_docs()
    }

    /// Collection sample size (`D`, total term occurrences).
    pub fn sample_size(&self) -> u64 {
        self.core.sample_size()
    }

    /// Global average document length (every peer knows the coarse
    /// collection statistics used for ranking).
    pub fn avg_doc_len(&self) -> f64 {
        self.core.avg_doc_len()
    }

    /// Indexing rounds actually executed in the latest session (can stop
    /// early when every key is discriminative).
    pub fn rounds_run(&self) -> usize {
        self.core.rounds_run.load(Ordering::Acquire)
    }

    /// Current traffic counters (plus latency histograms when the backend
    /// simulates time).
    pub fn snapshot(&self) -> TrafficSnapshot {
        self.index().snapshot()
    }

    /// Virtual network nanoseconds consumed so far (0 on the in-process
    /// backend).
    pub fn virtual_time_ns(&self) -> u64 {
        self.index().virtual_time_ns()
    }

    /// Socket-level failures on the serving tier's transport (0 on
    /// local backends). A nonzero delta across a query means its
    /// results are degraded — some peer process was unreachable —
    /// rather than complete.
    pub fn transport_errors(&self) -> u64 {
        self.index().transport_errors()
    }

    /// Aggregated build statistics for the experiment harness.
    pub fn build_report(&self) -> BuildReport {
        let index = self.index();
        BuildReport {
            num_peers: index.overlay().len(),
            num_docs: self.core.num_docs(),
            sample_size: self.core.sample_size(),
            rounds: self.rounds_run(),
            inserted_by_size: index.inserted_by_size(),
            stored_per_peer: index.stored_postings_per_peer(),
            counts: index.index_counts(),
            traffic: index.snapshot(),
        }
    }
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("docs", &self.num_docs())
            .field("epoch", &self.epoch())
            .finish()
    }
}

/// The write path: incremental growth of a built network.
pub struct IndexService {
    core: Arc<SystemCore>,
    peers: Vec<LocalPeer>,
}

impl IndexService {
    /// Indexes additional documents without rebuilding: the paper's growth
    /// scenario ("peers joining the network and increasing the document
    /// collection") executed incrementally. Each document is assigned to an
    /// existing peer; the iterative protocol re-runs, with previously
    /// indexed documents only re-examined for keys that *newly* became
    /// non-discriminative — the end state is identical to a full rebuild
    /// over the enlarged collection (covered by tests), while only the
    /// incremental postings travel.
    ///
    /// # Panics
    /// Panics on unknown peers, already-indexed document ids, or empty
    /// documents.
    pub fn add_documents(&mut self, additions: Vec<(PeerId, hdk_corpus::Document)>) {
        if additions.is_empty() {
            return;
        }
        self.check_new_documents(additions.iter().map(|(_, doc)| doc.id));
        // Group in a BTreeMap so dispatch happens in ascending PeerId order:
        // with a HashMap the iteration order — and with it per-peer insert
        // order and traffic attribution — varied run to run.
        let mut grouped: std::collections::BTreeMap<PeerId, Vec<(DocId, Vec<TermId>)>> =
            std::collections::BTreeMap::new();
        let mut new_docs = 0usize;
        let mut new_sample = 0u64;
        for (peer, doc) in additions {
            assert!(!doc.is_empty(), "cannot index an empty document {}", doc.id);
            new_docs += 1;
            new_sample += doc.len() as u64;
            grouped.entry(peer).or_default().push((doc.id, doc.tokens));
        }
        for (peer_id, docs) in grouped {
            let peer = self
                .peers
                .iter_mut()
                .find(|p| p.id == peer_id)
                .unwrap_or_else(|| panic!("unknown peer {peer_id}"));
            peer.add_documents(docs);
        }
        let rounds = self.run_session();
        // Only now — with every posting of the session resident — do the
        // collection statistics, round count and epoch become visible to
        // queries.
        self.core.publish_growth(new_docs, new_sample, rounds);
    }

    /// Checks that documents about to be added are new: each id appears
    /// once among `ids` and is neither indexed nor pending at any peer. A
    /// duplicate would merge into the postings already stored (its `tf`
    /// summed) and count twice in the collection statistics.
    ///
    /// # Panics
    /// Panics on the first duplicate.
    fn check_new_documents(&self, ids: impl Iterator<Item = DocId>) {
        let mut ids: Vec<DocId> = ids.collect();
        ids.sort_unstable();
        if let Some(pair) = ids.windows(2).find(|pair| pair[0] == pair[1]) {
            panic!("document {} added twice", pair[0]);
        }
        for peer in &self.peers {
            if let Some(d) = ids.iter().find(|&&d| peer.knows(d)) {
                panic!("document {d} already indexed at {}", peer.id);
            }
        }
    }

    /// A new peer joins the running network with its own documents — the
    /// paper's growth model in full: the overlay splits a region for the
    /// peer, the affected index fraction migrates to it (maintenance
    /// traffic, the `Join` control message), and the peer's documents are
    /// indexed incrementally. Returns the migration volume.
    ///
    /// # Panics
    /// Panics if the peer already exists or a document id is taken.
    pub fn join_peer(
        &mut self,
        peer: PeerId,
        docs: Vec<hdk_corpus::Document>,
    ) -> hdk_p2p::MigrationStats {
        self.join_peers(vec![(peer, docs)])
            .pop()
            .expect("one join, one migration")
    }

    /// Bulk admission: `joins` peers enter the overlay back to back (one
    /// `Join` wave, in the given order), then *one* incremental
    /// indexing session indexes all their documents together.
    ///
    /// Compared with N sequential [`IndexService::join_peer`] calls this
    /// amortizes the re-announce sweep: keys that newly become
    /// non-discriminative trigger one re-examination of the old documents
    /// instead of up to N, and the joiners' inserts batch into shared
    /// bulk-synchronous rounds — strictly fewer messages for the identical
    /// final index content (pinned by `tests/churn_growth.rs`).
    ///
    /// Returns one [`hdk_p2p::MigrationStats`] per join, in input order.
    ///
    /// # Panics
    /// Panics if any peer already exists (or appears twice) or a document
    /// id is taken.
    pub fn join_peers(
        &mut self,
        joins: Vec<(PeerId, Vec<hdk_corpus::Document>)>,
    ) -> Vec<hdk_p2p::MigrationStats> {
        if joins.is_empty() {
            return Vec::new();
        }
        // Before the wave: a refused join must leave the overlay as it was.
        self.check_new_documents(joins.iter().flat_map(|(_, docs)| docs.iter().map(|d| d.id)));
        let stats = {
            let mut index = self.core.index.write();
            for (peer, _) in &joins {
                assert!(
                    self.peers.iter().all(|p| p.id != *peer),
                    "{peer} already in the network"
                );
                self.peers.push(LocalPeer::new(*peer, Vec::new()));
            }
            // The whole wave is admitted through ONE control-plane call:
            // N overlay joins, then a single shared stripe scan sizes and
            // meters every handover (N joins, one scan — not N scans).
            index.add_peers(joins.iter().map(|(peer, _)| *peer).collect())
        };
        let additions: Vec<(PeerId, hdk_corpus::Document)> = joins
            .into_iter()
            .flat_map(|(peer, docs)| docs.into_iter().map(move |d| (peer, d)))
            .collect();
        if additions.is_empty() {
            // Doc-less joins still rewired the overlay; invalidate caches
            // (the round count is unchanged — no session ran).
            let rounds = self.core.rounds_run.load(Ordering::Acquire);
            self.core.publish_growth(0, 0, rounds);
        } else {
            self.add_documents(additions);
        }
        stats
    }

    /// A wave of peers leaves the network *gracefully* — the mirror of
    /// [`IndexService::join_peers`]: each departing peer hands every index
    /// copy it holds to the re-derived replica sets (one maintenance
    /// handover wave, a single shared stripe scan), then disappears from
    /// the replica walks. No indexed content is lost, at any replication
    /// factor — even `R = 1` survives graceful departures.
    ///
    /// The departing peers' *documents* stay part of the collection (the
    /// network indexed them; a peer leaving does not shrink the corpus):
    /// custody of their local document state passes to the
    /// smallest-id surviving peer, and stored `contributors` metadata is
    /// rewritten to it, so future incremental sessions still deliver
    /// "became non-discriminative" notifications to a peer that can act
    /// on them. This keeps churn convergence exact: a network that grew
    /// and shrank arbitrarily still matches a static build over the same
    /// corpus (pinned by `crates/core/tests/prop_churn.rs`).
    ///
    /// Returns one [`hdk_p2p::MigrationStats`] per leaver, in input order.
    ///
    /// # Panics
    /// Panics on unknown/duplicate peers or when the wave would empty the
    /// network.
    pub fn leave_peers(&mut self, peers: Vec<PeerId>) -> Vec<hdk_p2p::MigrationStats> {
        if peers.is_empty() {
            return Vec::new();
        }
        let custodian = self.departure_custodian(&peers);
        let stats = {
            let mut index = self.core.index.write();
            let stats = index.leave_peers(&peers);
            index.reassign_contributors(&peers, custodian);
            stats
        };
        self.transfer_custody(&peers, custodian);
        stats
    }

    /// A wave of peers *crashes*: no handover, no messages — every index
    /// copy they held is destroyed. At `R = 1` that loses the entries
    /// they solely held (reported in the returned [`hdk_p2p::LossStats`]);
    /// at `R ≥ 2` a wave of fewer than `R` crashes loses nothing, and the
    /// surviving copies serve lookups through per-key failover until a
    /// [`IndexService::repair`] sweep restores full redundancy.
    ///
    /// Document custody transfers exactly as in
    /// [`IndexService::leave_peers`] — the *collection* is an input to the
    /// simulation (crawled documents are re-crawlable); what a crash
    /// destroys is the peer's hosted index fraction, which is what
    /// replication protects. The index epoch bumps because content may
    /// have been lost, so query caches cannot serve stale hits for lost
    /// keys.
    ///
    /// # Panics
    /// Panics on unknown/duplicate peers or when the wave would empty the
    /// network.
    pub fn fail_peers(&mut self, peers: Vec<PeerId>) -> hdk_p2p::LossStats {
        if peers.is_empty() {
            return hdk_p2p::LossStats::default();
        }
        let custodian = self.departure_custodian(&peers);
        let loss = {
            let mut index = self.core.index.write();
            let loss = index.fail_peers(&peers);
            index.reassign_contributors(&peers, custodian);
            loss
        };
        self.transfer_custody(&peers, custodian);
        // Content may be gone: cached lookups for lost keys must not
        // survive (the round count is unchanged — no session ran).
        let rounds = self.core.rounds_run.load(Ordering::Acquire);
        self.core.publish_growth(0, 0, rounds);
        loss
    }

    /// The background repair sweep: re-materializes every copy the
    /// re-derived replica sets are missing, from surviving replicas — one
    /// `Repair` message per copy, in its own traffic category. Run it
    /// after [`IndexService::fail_peers`] to restore full redundancy
    /// before the next crash; idempotent otherwise.
    ///
    /// Holds the index *write* lock like every other churn operation:
    /// the sweep rewrites holder sets stripe by stripe, and a query
    /// racing it would resolve some keys against pre-repair replica sets
    /// and others against post-repair ones — scheduling-dependent hop
    /// counts and timeout charges, breaking the bit-identical metering
    /// contract.
    pub fn repair(&mut self) -> hdk_p2p::RepairStats {
        self.core.index.write().repair()
    }

    /// Advances the gossip membership layer one round: every live peer
    /// probes its deterministic targets, merges view digests, and
    /// promotes unrefuted suspicions to confirmed deaths at the end of
    /// the suspicion window. A death confirmed in *every* live view this
    /// round triggers the repair sweep the membership oracle used to
    /// need an operator for — the triggered stats ride in the returned
    /// [`hdk_p2p::GossipOutcome`].
    ///
    /// Holds the index write lock like [`IndexService::repair`]: a
    /// round can rewrite holder sets (via the triggered repair) and
    /// changes the views lookups route by.
    ///
    /// # Panics
    /// Panics unless gossip is enabled
    /// ([`HdkConfig::gossip`](crate::HdkConfig) with `fanout >= 1`).
    pub fn gossip_round(&mut self) -> hdk_p2p::GossipOutcome {
        self.core.index.write().gossip_round()
    }

    /// Whether every live peer's gossiped view currently matches
    /// ground-truth membership (`None` while gossip is off).
    pub fn gossip_converged(&self) -> Option<bool> {
        self.core.index.read().gossip_converged()
    }

    /// `(observer, subject)` pairs where a live view has falsely
    /// confirmed a live peer dead (`None` while gossip is off).
    pub fn gossip_false_positives(&self) -> Option<Vec<(u32, u32)>> {
        self.core.index.read().gossip_false_positives()
    }

    /// The popularity-driven replication pass: snapshots the per-key
    /// lookup hit counters, gives keys that crossed
    /// [`HdkConfig::hot_threshold`](crate::HdkConfig) extra replicas along
    /// the successor walk (one `HotReplicate` message per new copy),
    /// demotes keys whose popularity decayed, and halves every counter.
    /// A no-op when the threshold is 0 (the default).
    ///
    /// Holds the index write lock like [`IndexService::repair`] (the pass
    /// rewrites holder sets, and racing queries would observe torn replica
    /// sets). The epoch does **not** bump: the pass copies existing
    /// content, so every cached lookup stays valid.
    pub fn rebalance_hot(&mut self) -> hdk_p2p::HotStats {
        self.core.index.write().rebalance_hot()
    }

    /// A wave of peers restarts in place: each loses its hot (in-memory)
    /// tier and replays its own segment log — host-local disk I/O, never
    /// a message — then **one** repair sweep closes whatever gap the logs
    /// could not cover (unsealed hot entries, checksum-discarded corrupt
    /// tails). Over a tiered store ([`StoreConfig::Segment`]) that was
    /// synced ([`IndexService::sync_storage`]), restart + repair
    /// reproduces the pre-restart index bit for bit; on the in-memory
    /// default a restart degrades to a crash, and the repair restores
    /// what surviving replicas hold.
    ///
    /// Both phases run under one index write lock — no query observes the
    /// half-recovered state — and the epoch bumps afterwards so caches
    /// drop entries the restart may have invalidated.
    ///
    /// # Panics
    /// Panics when a restarting peer is not live (dead peers rejoin via
    /// [`IndexService::join_peers`]; they do not restart in place).
    pub fn restart_peers(
        &mut self,
        peers: &[PeerId],
    ) -> (hdk_p2p::RecoveryStats, hdk_p2p::RepairStats) {
        if peers.is_empty() {
            return Default::default();
        }
        let outcome = {
            let mut index = self.core.index.write();
            let recovery = index.restart_peers(peers);
            let repair = index.repair();
            (recovery, repair)
        };
        // Content may have changed (hot-tier copies lost, repaired from
        // replicas): caches must not serve pre-restart entries. No
        // session ran, so the round count is unchanged.
        let rounds = self.core.rounds_run.load(Ordering::Acquire);
        self.core.publish_growth(0, 0, rounds);
        outcome
    }

    /// Seals every hot entry to the segment logs — the graceful-shutdown
    /// flush that makes a following [`IndexService::restart_peers`]
    /// lossless. No-op on the in-memory store. Host-local, unmetered.
    pub fn sync_storage(&self) {
        self.core.index.read().sync_storage();
    }

    /// Validates a departure wave and picks the custodian: the
    /// smallest-id surviving peer (deterministic).
    fn departure_custodian(&self, departing: &[PeerId]) -> PeerId {
        for (i, peer) in departing.iter().enumerate() {
            assert!(
                self.peers.iter().any(|p| p.id == *peer),
                "{peer} is not a live member of the network"
            );
            assert!(
                !departing[..i].contains(peer),
                "{peer} appears twice in the departure wave"
            );
        }
        self.peers
            .iter()
            .map(|p| p.id)
            .filter(|id| !departing.contains(id))
            .min()
            .expect("a departure wave must leave at least one peer")
    }

    /// Moves the departing peers' document custody (and NDK knowledge)
    /// into the custodian's local state — engine-side bookkeeping, free
    /// and message-less.
    fn transfer_custody(&mut self, departed: &[PeerId], custodian: PeerId) {
        let mut absorbed = Vec::new();
        let mut remaining = Vec::with_capacity(self.peers.len());
        for peer in self.peers.drain(..) {
            if departed.contains(&peer.id) {
                absorbed.push(peer);
            } else {
                remaining.push(peer);
            }
        }
        self.peers = remaining;
        let keeper = self
            .peers
            .iter_mut()
            .find(|p| p.id == custodian)
            .expect("custodian survives the wave");
        for peer in absorbed {
            keeper.absorb(peer);
        }
    }

    /// The peers (inspection).
    pub fn peers(&self) -> &[LocalPeer] {
        &self.peers
    }

    /// Runs rounds 1..=smax of the protocol over the peers' pending
    /// documents (the whole collection on the first call; additions on
    /// later calls).
    ///
    /// Each round walks the peers in ascending `PeerId` order, in waves of
    /// as many peers as the rayon pool has threads, and is deterministic
    /// by construction — the outcome (index contents, `BuildReport`,
    /// traffic counters, SimNet's virtual clock) is bit-identical whatever
    /// `RAYON_NUM_THREADS` says:
    ///
    /// 1. **compute** — the peers of a wave derive their candidate key
    ///    postings from purely local state and encode each list into its
    ///    wire/storage block side by side, each batch sorted by key;
    /// 2. **apply** — each peer's batch then ships as its own
    ///    `InsertBatch` message set, in `PeerId` order, and is dropped
    ///    before the next wave is computed: a round holds one wave's
    ///    batches, never the whole network's. The backend partitions a
    ///    message by DHT stripe, stripes in parallel, so each stripe still
    ///    applies the round's inserts in `(PeerId, Key)` order. A peer
    ///    with no keys sends nothing;
    /// 3. **sweep** — after the last peer, [`GlobalIndex::classify_round`]
    ///    runs the end-of-round NDK classification stripe-parallel
    ///    (host-local, free) and the merged notifications are delivered
    ///    sorted as `Notify` messages.
    ///
    /// Returns the number of rounds executed; the caller publishes it
    /// (together with the statistics and the epoch) once the session's
    /// postings are all resident.
    fn run_session(&mut self) -> usize {
        // The insert round applies per-stripe inserts in peer order; keep
        // the fan-out order canonical even after out-of-order join ids.
        self.peers.sort_unstable_by_key(|p| p.id);
        let index = self.core.index.read();
        let config = &self.core.config;
        let excluded = &self.core.excluded;
        // As many peers as compute side by side: only one wave's batches
        // are ever held at once.
        let wave = rayon::current_num_threads();
        let mut rounds = 0;
        for round in 1..=config.smax {
            // The no-redundancy ablation expands *every* inserted key next
            // round (indexing all discriminative keys instead of only
            // intrinsic ones — the configuration Definition 5 exists to
            // avoid), so it remembers them per peer before the batch moves.
            let collect_keys = !config.redundancy_filtering;
            let mut inserted: Vec<Vec<Key>> = Vec::new();
            // Keys whose insert acknowledgement reported "already
            // non-discriminative" (late-joiner feedback in incremental
            // sessions).
            let mut already_ndk: HashMap<PeerId, Vec<Key>> = HashMap::new();
            for peers in self.peers.chunks(wave) {
                // Phase 1: parallel local candidate generation (pure). Each
                // list is encoded into its compressed block right here at
                // the "sending" peer — from this point on the block is the
                // only representation that exists (wire, storage, cache).
                let batches: Vec<Vec<(Key, CompressedPostings)>> = peers
                    .par_iter()
                    .map(|peer| {
                        // The runs come key-sorted and without empty lists.
                        peer.compute_runs(round, config, excluded)
                            .iter()
                            .map(|(key, run)| (key, CompressedPostings::from_postings(run)))
                            .collect()
                    })
                    .collect();
                // Phase 2: one InsertBatch per peer.
                for (peer, batch) in peers.iter().zip(batches) {
                    if collect_keys {
                        inserted.push(batch.iter().map(|(key, _)| *key).collect());
                    }
                    if !batch.is_empty() {
                        already_ndk.extend(index.insert_round(vec![(peer.id, batch)]));
                    }
                }
            }
            rounds = round;
            // Phase 3: stripe-parallel sweep + Notify delivery.
            let mut notifications = index.classify_round(round);
            if round == config.smax {
                // Final round: NDKs of size smax stay truncated; nothing to
                // expand (size filtering, Definition 6).
                break;
            }
            for (peer_index, peer) in self.peers.iter_mut().enumerate() {
                let mut keys = notifications.remove(&peer.id).unwrap_or_default();
                if collect_keys {
                    keys.extend(inserted[peer_index].iter().copied());
                } else {
                    // Only NDKs are expanded (redundancy filtering,
                    // Definition 5): keys containing a DK are derivable.
                    keys.extend(already_ndk.remove(&peer.id).unwrap_or_default());
                }
                keys.sort_unstable();
                keys.dedup();
                peer.receive_notifications(round, &keys);
            }
            // Stop early when no peer has anything to expand at the next
            // size (cumulative frontier empty everywhere).
            if self.peers.iter().all(|p| p.ndk_keys(round).is_empty()) {
                break;
            }
        }
        drop(index);
        for peer in &mut self.peers {
            peer.finish_session();
        }
        rounds
    }
}

impl std::fmt::Debug for IndexService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexService")
            .field("peers", &self.peers.len())
            .field("docs", &self.core.num_docs())
            .finish()
    }
}

/// A fully built HDK retrieval network: a thin owner of the write-path
/// [`IndexService`] and the read-path [`QueryService`]. Most methods are
/// one-line delegations; take the handles apart when the two paths live on
/// different threads.
pub struct HdkNetwork {
    indexer: IndexService,
    query: QueryService,
}

impl HdkNetwork {
    /// Builds the network over the default in-process backend: distributes
    /// `collection` over the peers according to `partitions` (one
    /// document-id set per peer), runs the full iterative indexing
    /// protocol, and returns the ready network.
    ///
    /// # Panics
    /// Panics on an invalid configuration or empty partition list.
    pub fn build(collection: &Collection, partitions: &[Vec<DocId>], config: HdkConfig) -> Self {
        Self::build_with(
            collection,
            partitions,
            config,
            OverlayKind::PGrid,
            BackendConfig::InProc,
        )
    }

    /// [`HdkNetwork::build`] with an explicit network backend — the same
    /// protocol over [`BackendConfig::InProc`], a configured
    /// [`BackendConfig::SimNet`] or a [`BackendConfig::Tcp`] fleet. The
    /// overlay is always P-Grid; `_overlay` names it only for `benchmark/`.
    ///
    /// # Panics
    /// Panics on an invalid configuration or empty partition list.
    pub fn build_with(
        collection: &Collection,
        partitions: &[Vec<DocId>],
        config: HdkConfig,
        _overlay: OverlayKind,
        backend: BackendConfig,
    ) -> Self {
        // Before the backend is built: a bad configuration must be
        // reported as one, not as whatever it breaks first.
        config.validate();
        let peer_ids = (0..partitions.len() as u64).map(PeerId).collect();
        let backend = backend.build(
            Box::new(PGrid::new(peer_ids)),
            config.dfmax,
            config.replication,
            &config.store,
        );
        Self::build_over(collection, partitions, config, backend)
    }

    /// [`HdkNetwork::build_with`] over an already constructed backend,
    /// whose overlay must hold peers `0..partitions.len()` and whose
    /// `dfmax` and replication must be `config`'s.
    ///
    /// # Panics
    /// Panics on an invalid configuration or empty partition list.
    pub fn build_over(
        collection: &Collection,
        partitions: &[Vec<DocId>],
        config: HdkConfig,
        backend: crate::global_index::IndexBackend,
    ) -> Self {
        config.validate();
        assert!(!partitions.is_empty(), "need at least one peer");

        // Very frequent terms (f_D > Ff) leave the key vocabulary entirely
        // (Section 4.1). The paper applies this as a preprocessing step
        // with collection-level statistics; we do the same.
        let stats = FrequencyStats::compute(collection);
        let excluded: HashSet<TermId> = stats.very_frequent_terms(config.ff).into_iter().collect();

        let peer_ids: Vec<PeerId> = (0..partitions.len() as u64).map(PeerId).collect();
        let peers: Vec<LocalPeer> = partitions
            .iter()
            .zip(&peer_ids)
            .map(|(docs, &id)| {
                LocalPeer::new(
                    id,
                    docs.iter()
                        .map(|&d| (d, collection.doc(d).tokens.clone()))
                        .collect(),
                )
            })
            .collect();

        let mut index = GlobalIndex::with_backend(backend, config.dfmax);
        index.set_hot_config(hdk_p2p::HotConfig {
            threshold: config.hot_threshold,
            extra: config.hot_extra,
        });
        if config.gossip.fanout > 0 {
            index.enable_gossip(config.gossip);
        }
        let coll_stats = collection.stats();
        let core = Arc::new(SystemCore {
            config,
            index: RwLock::new(index),
            num_docs: AtomicUsize::new(coll_stats.num_documents),
            sample_size: AtomicU64::new(coll_stats.sample_size as u64),
            rounds_run: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            excluded,
        });
        let mut indexer = IndexService {
            core: core.clone(),
            peers,
        };
        let rounds = indexer.run_session();
        // No service handle exists yet, so the initial round count can be
        // stored directly (the epoch stays 0: nothing was cached before).
        core.rounds_run.store(rounds, Ordering::Release);
        Self {
            indexer,
            query: QueryService { core },
        }
    }

    /// A clonable, thread-shareable handle to the read path.
    pub fn query_service(&self) -> QueryService {
        self.query.clone()
    }

    /// Borrowed read-path handle (delegation without the `Arc` clone).
    pub(crate) fn query_service_ref(&self) -> &QueryService {
        &self.query
    }

    /// The write path (exclusive: additions and joins mutate peer state).
    pub fn index_service(&mut self) -> &mut IndexService {
        &mut self.indexer
    }

    /// Consumes the owner, yielding the two service handles — the shape
    /// for callers that run growth and retrieval on different threads.
    pub fn into_services(self) -> (IndexService, QueryService) {
        (self.indexer, self.query)
    }

    /// See [`IndexService::add_documents`].
    pub fn add_documents(&mut self, additions: Vec<(PeerId, hdk_corpus::Document)>) {
        self.indexer.add_documents(additions);
    }

    /// See [`IndexService::join_peer`].
    pub fn join_peer(
        &mut self,
        peer: PeerId,
        docs: Vec<hdk_corpus::Document>,
    ) -> hdk_p2p::MigrationStats {
        self.indexer.join_peer(peer, docs)
    }

    /// See [`IndexService::join_peers`].
    pub fn join_peers(
        &mut self,
        joins: Vec<(PeerId, Vec<hdk_corpus::Document>)>,
    ) -> Vec<hdk_p2p::MigrationStats> {
        self.indexer.join_peers(joins)
    }

    /// See [`IndexService::leave_peers`].
    pub fn leave_peers(&mut self, peers: Vec<PeerId>) -> Vec<hdk_p2p::MigrationStats> {
        self.indexer.leave_peers(peers)
    }

    /// See [`IndexService::fail_peers`].
    pub fn fail_peers(&mut self, peers: Vec<PeerId>) -> hdk_p2p::LossStats {
        self.indexer.fail_peers(peers)
    }

    /// See [`IndexService::repair`].
    pub fn repair(&mut self) -> hdk_p2p::RepairStats {
        self.indexer.repair()
    }

    /// See [`IndexService::gossip_round`].
    pub fn gossip_round(&mut self) -> hdk_p2p::GossipOutcome {
        self.indexer.gossip_round()
    }

    /// See [`IndexService::gossip_converged`].
    pub fn gossip_converged(&self) -> Option<bool> {
        self.indexer.gossip_converged()
    }

    /// See [`IndexService::rebalance_hot`].
    pub fn rebalance_hot(&mut self) -> hdk_p2p::HotStats {
        self.indexer.rebalance_hot()
    }

    /// See [`IndexService::restart_peers`].
    pub fn restart_peers(
        &mut self,
        peers: &[PeerId],
    ) -> (hdk_p2p::RecoveryStats, hdk_p2p::RepairStats) {
        self.indexer.restart_peers(peers)
    }

    /// See [`IndexService::sync_storage`].
    pub fn sync_storage(&self) {
        self.indexer.sync_storage();
    }

    /// The model configuration.
    pub fn config(&self) -> &HdkConfig {
        self.query.config()
    }

    /// See [`QueryService::index`] — in particular its warning: use the
    /// guard as a temporary and never call other methods of this type
    /// while holding it.
    pub fn index(&self) -> RwLockReadGuard<'_, GlobalIndex> {
        self.query.core.index.read()
    }

    /// Number of peers.
    pub fn num_peers(&self) -> usize {
        self.query.num_peers()
    }

    /// Number of indexed documents (`M`).
    pub fn num_docs(&self) -> usize {
        self.query.num_docs()
    }

    /// Collection sample size (`D`, total term occurrences).
    pub fn sample_size(&self) -> u64 {
        self.query.sample_size()
    }

    /// Global average document length.
    pub fn avg_doc_len(&self) -> f64 {
        self.query.avg_doc_len()
    }

    /// Indexing rounds actually executed in the latest session.
    pub fn rounds_run(&self) -> usize {
        self.query.rounds_run()
    }

    /// Current traffic counters.
    pub fn snapshot(&self) -> TrafficSnapshot {
        self.query.snapshot()
    }

    /// Aggregated build statistics for the experiment harness.
    pub fn build_report(&self) -> BuildReport {
        self.query.build_report()
    }

    /// The peers (inspection).
    pub fn peers(&self) -> &[LocalPeer] {
        self.indexer.peers()
    }
}

impl std::fmt::Debug for HdkNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HdkNetwork")
            .field("peers", &self.indexer.peers.len())
            .field("docs", &self.query.num_docs())
            .field("dfmax", &self.query.config().dfmax)
            .field("rounds", &self.query.rounds_run())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Key;
    use hdk_corpus::{partition_documents, CollectionGenerator, GeneratorConfig};

    fn small_collection() -> Collection {
        CollectionGenerator::new(GeneratorConfig {
            num_docs: 400,
            vocab_size: 3_000,
            avg_doc_len: 60,
            num_topics: 40,
            topic_vocab: 60,
            ..GeneratorConfig::default()
        })
        .generate()
    }

    fn build(dfmax: u32) -> HdkNetwork {
        let c = small_collection();
        let parts = partition_documents(c.len(), 4, 11);
        HdkNetwork::build(
            &c,
            &parts,
            HdkConfig {
                dfmax,
                ff: 2_000,
                ..HdkConfig::default()
            },
        )
    }

    #[test]
    fn builds_and_produces_multi_size_keys() {
        let n = build(25);
        let counts = n.index().index_counts();
        assert!(counts.hdk_keys[0] > 0, "no single-term HDKs");
        assert!(counts.ndk_keys[0] > 0, "no single-term NDKs");
        assert!(
            counts.hdk_keys[1] + counts.ndk_keys[1] > 0,
            "no 2-term keys generated"
        );
        assert_eq!(n.rounds_run(), 3);
    }

    #[test]
    fn hdk_posting_lists_bounded_by_dfmax_after_classification() {
        let n = build(25);
        let mut violations = 0;
        let counts = n.index().index_counts();
        // Every NDK list is truncated to DFmax.
        for s in 0..3 {
            if counts.ndk_keys[s] > 0 {
                let avg = counts.ndk_postings[s] as f64 / counts.ndk_keys[s] as f64;
                if avg > 25.0 + 1e-9 {
                    violations += 1;
                }
            }
        }
        assert_eq!(violations, 0);
    }

    #[test]
    fn single_peer_network_works() {
        let c = small_collection();
        let parts = partition_documents(c.len(), 1, 3);
        let n = HdkNetwork::build(
            &c,
            &parts,
            HdkConfig {
                dfmax: 30,
                ff: 2_000,
                ..HdkConfig::default()
            },
        );
        assert_eq!(n.num_peers(), 1);
        assert!(n.index().index_counts().total_keys() > 0);
    }

    #[test]
    fn deterministic_across_builds_despite_parallelism() {
        let a = build(25);
        let b = build(25);
        assert_eq!(a.index().index_counts(), b.index().index_counts());
        assert_eq!(a.index().inserted_by_size(), b.index().inserted_by_size());
        assert_eq!(
            a.index().stored_postings_per_peer(),
            b.index().stored_postings_per_peer()
        );
        // Spot-check one key's stored entry.
        let probe = Key::single(hdk_text::TermId(10));
        let ea = a.index().peek(probe);
        let eb = b.index().peek(probe);
        match (ea, eb) {
            (Some(x), Some(y)) => {
                assert_eq!(x.df, y.df);
                assert_eq!(x.postings, y.postings);
                assert_eq!(x.is_ndk, y.is_ndk);
            }
            (None, None) => {}
            _ => panic!("one build indexed the probe key, the other did not"),
        }
    }

    #[test]
    fn larger_dfmax_stores_fewer_multi_term_keys() {
        let small = build(15);
        let large = build(60);
        let ks = small.index().index_counts();
        let kl = large.index().index_counts();
        // With a larger DFmax more singles are discriminative, so fewer
        // keys need expansion (paper: "HDK indexing is approaching
        // single-term indexing" as DFmax grows).
        assert!(
            kl.hdk_keys[1] + kl.ndk_keys[1] < ks.hdk_keys[1] + ks.ndk_keys[1],
            "expected fewer 2-term keys at larger DFmax ({} vs {})",
            kl.hdk_keys[1] + kl.ndk_keys[1],
            ks.hdk_keys[1] + ks.ndk_keys[1],
        );
    }

    #[test]
    fn smax_one_stops_after_single_terms() {
        let c = small_collection();
        let parts = partition_documents(c.len(), 2, 5);
        let n = HdkNetwork::build(
            &c,
            &parts,
            HdkConfig {
                dfmax: 25,
                smax: 1,
                ff: 2_000,
                ..HdkConfig::default()
            },
        );
        let counts = n.index().index_counts();
        assert_eq!(counts.hdk_keys[1] + counts.ndk_keys[1], 0);
        assert_eq!(n.rounds_run(), 1);
    }

    #[test]
    fn disabling_redundancy_filtering_inflates_the_index() {
        // Definition 5's purpose: without redundancy filtering every
        // discriminative key is indexed (not only intrinsic ones), so the
        // key count explodes. Tiny scale + small window keeps this fast.
        let c = CollectionGenerator::new(GeneratorConfig {
            num_docs: 120,
            vocab_size: 1_000,
            avg_doc_len: 40,
            num_topics: 12,
            topic_vocab: 40,
            ..GeneratorConfig::default()
        })
        .generate();
        let parts = partition_documents(c.len(), 2, 3);
        let base = HdkConfig {
            dfmax: 10,
            ff: 1_000,
            window: 8,
            ..HdkConfig::default()
        };
        let with = HdkNetwork::build(&c, &parts, base.clone());
        let without = HdkNetwork::build(
            &c,
            &parts,
            HdkConfig {
                redundancy_filtering: false,
                replication: 1,
                ..base
            },
        );
        let kw = with.index().index_counts().total_keys();
        let ko = without.index().index_counts().total_keys();
        assert!(
            ko > kw,
            "no-redundancy index ({ko} keys) must exceed filtered index ({kw} keys)"
        );
    }

    #[test]
    fn report_is_internally_consistent() {
        let n = build(25);
        let r = n.build_report();
        assert_eq!(r.num_peers, 4);
        assert_eq!(r.num_docs, 400);
        // Inserted postings (meter) == inserted postings (size counters).
        let meter_total: u64 = r.traffic.inserted_by_peer.iter().sum();
        let size_total: u64 = r.inserted_by_size.iter().sum();
        assert_eq!(meter_total, size_total);
        // Stored <= inserted (truncation can only shrink).
        let stored: u64 = r.stored_per_peer.iter().sum();
        assert!(stored <= size_total);
        assert_eq!(stored, r.counts.total_postings());
    }

    #[test]
    fn query_service_is_shareable_across_threads() {
        // The read-path handle clones and queries concurrently from plain
        // std threads; every thread sees the same answers.
        let n = build(25);
        let c = small_collection();
        let service = n.query_service();
        let query: Vec<hdk_text::TermId> = c.docs()[0].tokens[..2].to_vec();
        let reference = service.query(PeerId(0), &query, 10);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let handle = service.clone();
                let query = &query;
                let reference = &reference;
                scope.spawn(move || {
                    for _ in 0..8 {
                        let out = handle.query(PeerId(0), query, 10);
                        assert_eq!(out.results, reference.results);
                    }
                });
            }
        });
    }

    #[test]
    fn concurrent_cached_queries_during_growth_never_stick_stale() {
        // Four threads share one cache — the HTTP front-end's shape —
        // while a writer grows the index under them. The epoch publishes
        // only after a growth session's postings are all resident (under
        // the index write lock), so a cached query racing the session
        // commits under the OLD epoch and is swept: whatever the
        // interleaving, a cached answer equals the uncached one on the
        // index state the query observed, and the post-growth cached
        // answer contains the new documents.
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let c = small_collection();
        let network = HdkNetwork::build(
            &c.prefix(300),
            &partition_documents(300, 3, 11),
            HdkConfig {
                dfmax: 20,
                ff: u64::MAX,
                ..HdkConfig::default()
            },
        );
        let (mut indexer, queries) = network.into_services();
        let probes: Vec<Vec<hdk_text::TermId>> = (0..6)
            .map(|i| c.docs()[i].tokens[i..i + 2].to_vec())
            .collect();
        let digest = |out: &crate::exec::QueryOutcome| -> Vec<(u32, u64)> {
            let scored = out.results.iter();
            scored.map(|r| (r.doc.0, r.score.to_bits())).collect()
        };
        // Small enough that the threads also evict under each other.
        let cache = crate::cache::QueryCache::new(8);
        let (growing, done) = (AtomicBool::new(false), AtomicBool::new(false));
        let compared = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (queries, probes) = (&queries, &probes);
                let (cache, growing, done, compared) = (&cache, &growing, &done, &compared);
                scope.spawn(move || {
                    for i in 0.. {
                        if done.load(Ordering::SeqCst) && i >= 64 {
                            break;
                        }
                        // A session in flight makes its postings visible
                        // piecemeal; outside one, and within one epoch,
                        // the two calls saw the same index.
                        let settled =
                            |epoch| !growing.load(Ordering::SeqCst) && queries.epoch() == epoch;
                        let epoch = queries.epoch();
                        let was_settled = settled(epoch);
                        let probe = &probes[(t + i) % probes.len()];
                        let cached = queries.query_cached(PeerId(0), probe, 20, cache);
                        let plain = queries.query(PeerId(0), probe, 20);
                        if was_settled && settled(epoch) {
                            assert_eq!(digest(&cached), digest(&plain), "epoch {epoch}");
                            compared.fetch_add(1, Ordering::SeqCst);
                        }
                        assert!(cache.len() <= 8);
                    }
                });
            }
            for (session, probe) in probes.iter().enumerate().take(3) {
                let new_doc = hdk_corpus::Document {
                    id: DocId(300 + session as u32),
                    tokens: probe.repeat(12),
                };
                growing.store(true, Ordering::SeqCst);
                indexer.add_documents(vec![(PeerId(1), new_doc)]);
                growing.store(false, Ordering::SeqCst);
                // Every epoch gets compared before the next session
                // starts — unless the readers died on their assertion,
                // which the scope reports once this thread lets go.
                let seen = compared.load(Ordering::SeqCst);
                let patience = std::time::Instant::now() + std::time::Duration::from_secs(30);
                while compared.load(Ordering::SeqCst) == seen
                    && std::time::Instant::now() < patience
                {
                    std::thread::yield_now();
                }
            }
            done.store(true, Ordering::SeqCst);
        });
        assert_eq!(queries.epoch(), 3);
        assert!(compared.into_inner() >= 3, "an epoch went uncompared");
        for (session, probe) in probes.iter().enumerate() {
            let after = queries.query_cached(PeerId(0), probe, 20, &cache);
            assert_eq!(digest(&after), digest(&queries.query(PeerId(0), probe, 20)));
            assert!(
                session >= 3
                    || after
                        .results
                        .iter()
                        .any(|r| r.doc.0 == 300 + session as u32),
                "cached query served pre-growth results after the epoch moved"
            );
        }
    }

    #[test]
    fn services_split_and_keep_working() {
        let c = small_collection();
        let parts = partition_documents(300, 3, 11);
        let network = HdkNetwork::build(
            &c.prefix(300),
            &parts,
            HdkConfig {
                dfmax: 20,
                ff: 2_000,
                ..HdkConfig::default()
            },
        );
        let (mut indexer, queries) = network.into_services();
        let before = queries.num_docs();
        let additions: Vec<(PeerId, hdk_corpus::Document)> = (300..340)
            .map(|i| (PeerId(i as u64 % 3), c.docs()[i].clone()))
            .collect();
        indexer.add_documents(additions);
        assert_eq!(queries.num_docs(), before + 40);
        assert_eq!(queries.epoch(), 1, "growth bumps the shared epoch");
        let q: Vec<hdk_text::TermId> = c.docs()[310].tokens[..2].to_vec();
        assert!(!queries.query(PeerId(1), &q, 10).results.is_empty());
    }

    /// A 120-document network over 3 peers, and the collection's next
    /// (unindexed) documents.
    fn small_network() -> (HdkNetwork, Vec<hdk_corpus::Document>) {
        let c = small_collection();
        let parts = partition_documents(120, 3, 11);
        let network = HdkNetwork::build(
            &c.prefix(120),
            &parts,
            HdkConfig {
                dfmax: 20,
                ff: 2_000,
                ..HdkConfig::default()
            },
        );
        (network, c.docs()[120..130].to_vec())
    }

    #[test]
    #[should_panic(expected = "already indexed at")]
    fn a_document_indexed_at_another_peer_is_refused() {
        let (mut network, _) = small_network();
        let c = small_collection();
        let parts = partition_documents(120, 3, 11);
        let owner = parts.iter().position(|p| p.contains(&DocId(5))).unwrap();
        let other = PeerId((owner as u64 + 1) % 3);
        network.add_documents(vec![(other, c.docs()[5].clone())]);
    }

    #[test]
    #[should_panic(expected = "added twice")]
    fn one_new_document_sent_to_two_peers_is_refused() {
        let (mut network, fresh) = small_network();
        let doc = fresh[0].clone();
        network.add_documents(vec![(PeerId(0), doc.clone()), (PeerId(1), doc)]);
    }

    #[test]
    #[should_panic(expected = "added twice")]
    fn a_document_repeated_in_one_peer_batch_is_refused() {
        let (mut network, fresh) = small_network();
        let doc = fresh[0].clone();
        network.add_documents(vec![(PeerId(2), doc.clone()), (PeerId(2), doc)]);
    }

    #[test]
    fn a_refused_join_leaves_the_network_unchanged() {
        let (mut network, fresh) = small_network();
        let c = small_collection();
        let peers = network.index().overlay().len();
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            network.join_peer(PeerId(9), vec![fresh[0].clone(), c.docs()[7].clone()]);
        }));
        assert!(refused.is_err(), "a taken document id was accepted");
        assert_eq!(network.index().overlay().len(), peers);
        // The valid part of the wave is still welcome.
        network.join_peer(PeerId(9), vec![fresh[0].clone()]);
        assert_eq!(network.index().overlay().len(), peers + 1);
    }
}
