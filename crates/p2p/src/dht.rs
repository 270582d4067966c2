//! The DHT storage layer: metered, lock-striped, *replicated* key-value
//! storage on top of the [`PGrid`] overlay.
//!
//! Each peer *logically* hosts the fraction of the global index the overlay
//! assigns to it (paper, Section 3: "the fraction of the global index under
//! the responsibility of `P_i` consists of all the keys and associated
//! posting lists that are allocated to `P_i` by the DHT"). Physically the
//! key→value map is split into [`NUM_STRIPES`] lock-striped shards keyed by
//! key-hash bits — independent of the peer population — so concurrent
//! inserts from many indexing threads contend only when they hash to the
//! same stripe, and whole-index sweeps can run stripe-parallel.
//!
//! ## Replication and churn
//!
//! Placement is a pure function of the overlay and the
//! [`Membership`] liveness view (see [`crate::replica`]): the *replica
//! set* of a key is the first `R` **live** peers along the key-space
//! successor walk starting at the responsible peer. [`Dht::upsert`] fans
//! each insert to the full replica set (metered as `R` stored copies —
//! the primary insert routes normally, each further copy is forwarded one
//! neighbor hop along the walk), and lookups are served by the first live
//! replica *holding* a copy, in deterministic failover order. The walk is
//! written once, as the private `Dht::walk` iterator: its doc gives what a
//! skipped candidate costs (a hop, plus a timeout for an attempted dead
//! one; nothing for a peer the querier's gossip view confirms dead), and
//! placement, failover, read spreading and the churn scans' re-copy
//! planning all take their candidates from it.
//!
//! Which peers currently hold a copy of which key is the one piece of
//! churn state the layer tracks (per-entry holder sets): a graceful
//! [`Dht::leave_peers`] hands copies over before the peers disappear from
//! the walks, a [`Dht::fail_peers`] crash destroys copies (an entry whose
//! last copy dies is *lost*), and [`Dht::repair_sweep`] re-materializes
//! the copies the re-derived replica sets are missing, from surviving
//! holders, metered under [`MsgKind::Repair`].
//!
//! With `R = 1` and no churn the layer behaves — and meters —
//! bit-identically to the unreplicated storage it replaces.
//!
//! ## Read scaling
//!
//! Batched lookups ([`Dht::lookup_many`]) *spread* their reads: each
//! probe's serving replica is picked by `hash(query_id, key)` over the
//! key's live holder set, so at `R > 1` a skewed query stream load-
//! balances across the replica set instead of pinning every read on the
//! first live holder. On top of the structural `R`, popularity-driven
//! replication ([`Dht::rebalance_hot`]) promotes keys whose lookup hit
//! counters cross a configured threshold, materializing extra replicas
//! along the same successor walk (metered under
//! [`MsgKind::HotReplicate`]) and demoting them when popularity decays —
//! all driven by deterministic counter snapshots, never wall clock.
//!
//! Every operation is routed (hop-counted) and metered through the
//! `AtomicU64` counters of [`TrafficMeter`], so the layer is thread-safe
//! end to end: many peers can index concurrently — matching the paper's
//! collaborative indexing ("peers share the indexing load").
//!
//! ## Tiered storage
//!
//! *Where* a stripe's entries physically live is the business of
//! [`crate::store`]: this layer holds a `Box<dyn Store<V>>` and routes
//! every entry access through it. Every DHT runs on the one
//! [`SegmentStore`], and only its hot-tier budget differs. Unbounded —
//! what [`Dht::new`] builds — it keeps everything in memory and never
//! touches a disk; under a budget it spills entries past it into
//! checksummed on-disk segment logs, which is what makes
//! [`Dht::restart_peers`] recover anything: a restarting peer's copies
//! are recovered by replaying its segment log, and one
//! [`Dht::repair_sweep`] closes whatever gap the log could not cover.
//! Tier movement is host-local (never metered as traffic).

use crate::gossip::{GossipConfig, GossipProbe, GossipRound, GossipState, PeerView};
use crate::id::{hash_u64s, KeyHash, PeerId};
use crate::pgrid::PGrid;
use crate::replica::{Delivery, Membership, PeerState};
use crate::store::{
    Holders, NeverSealed, RecoveryStats, SegmentStore, Slot, Store, TableBytes, Tier,
};
use crate::transport::{MsgKind, TrafficMeter, TrafficSnapshot};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};

/// Number of lock stripes. A power of two so stripe selection is a mask;
/// large enough that dozens of indexing threads rarely collide, small
/// enough that stripe-parallel sweeps stay coarse-grained.
pub const NUM_STRIPES: usize = 128;

/// A metered DHT storing values of type `V` under [`KeyHash`]es.
///
/// Stripes are `RwLock`s (inside the [`Store`]): mutation (upserts,
/// sweeps) takes the write lock, while the retrieval path
/// (`lookup`/`peek`) takes read locks so a batch of parallel queries
/// hammering the same popular stripe still proceeds concurrently.
pub struct Dht<V> {
    overlay: Box<PGrid>,
    membership: Membership,
    replication: usize,
    store: Box<dyn Store<V>>,
    meter: TrafficMeter,
    hot: HotConfig,
    /// Per-stripe lookup hit counters (key hash → hits since the last
    /// [`Dht::rebalance_hot`] decay). Bumped only when popularity-driven
    /// replication is enabled; plain sums, so the counts are independent
    /// of lookup interleaving and thread schedule.
    hits: Vec<Mutex<HashMap<u64, u64>>>,
    /// Keys whose extra replicas the last [`Dht::rebalance_hot`] sweep
    /// materialized — the churn scans re-derive *their* replica sets with
    /// `R + extra` walk targets so promotions survive joins, departures
    /// and repairs.
    promoted: Mutex<HashSet<u64>>,
    /// The gossip membership substrate ([`Dht::enable_gossip`]). `None`
    /// (the default) keeps the [`Membership`] oracle semantics: every
    /// lookup walk sees ground truth instantly. `Some` switches the
    /// *serving* paths to each querier's local [`PeerView`] — placement
    /// stays on ground truth (copies physically exist or not regardless
    /// of who believes what).
    gossip: Option<GossipState>,
    /// Which probes [`Dht::gossip_round`] meters (multi-process fleets
    /// partition the metering so their snapshots sum to one network).
    gossip_metering: GossipMetering,
}

/// Which share of a gossip round's probes this `Dht` instance meters.
///
/// Every instance of a serving fleet advances the *same* deterministic
/// gossip state in lockstep (the schedule is a pure function of the
/// round), so without partitioning each process would meter every probe
/// and the fleet's merged snapshot would count the network `nprocs`
/// times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GossipMetering {
    /// Meter every probe — the single-process backends.
    All,
    /// Meter only probes whose *initiator* this process owns
    /// (`initiator % nprocs == index`), so fleet snapshots sum to the
    /// single-process totals.
    Partition {
        /// Total processes in the fleet.
        nprocs: usize,
        /// This process's slot.
        index: usize,
    },
    /// Meter nothing — the serving front-end's unmetered mirror, which
    /// advances the state for its own view-dependent bookkeeping only.
    Mirror,
}

/// What one [`Dht::gossip_round`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipOutcome {
    /// The protocol-level round report (probes, suspicions,
    /// confirmations).
    pub report: GossipRound,
    /// The repair the round triggered: `Some` exactly when a death
    /// became confirmed in *every* live view this round — the gossip
    /// replacement for the external repair call.
    pub repair: Option<RepairStats>,
}

/// Popularity-driven replication knobs (see [`Dht::rebalance_hot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotConfig {
    /// Hits (since the previous sweep's decay) at which a key is *hot*
    /// and gets extra replicas. `0` disables the mechanism entirely —
    /// the default, bit-identical to the pre-popularity layer.
    pub threshold: u64,
    /// Extra copies a hot key gets beyond the structural `R`.
    pub extra: usize,
}

impl Default for HotConfig {
    fn default() -> Self {
        Self {
            threshold: 0,
            extra: 1,
        }
    }
}

/// What a popularity sweep did (extra copies are metered under
/// [`MsgKind::HotReplicate`], one message per materialized copy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotStats {
    /// Keys hot this sweep (their counter snapshot crossed the threshold).
    pub promoted: u64,
    /// Previously hot keys whose extra copies were dropped this sweep.
    pub demoted: u64,
    /// Extra copies materialized at peers that were missing them.
    pub copies: u64,
    /// Postings those copies carried.
    pub postings: u64,
    /// Payload bytes those copies carried.
    pub bytes: u64,
}

/// What a peer join or graceful departure re-assigned (metered under
/// [`MsgKind::Maintenance`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Key copies handed over.
    pub keys_moved: u64,
    /// Postings carried by those copies (per the caller's `volume`).
    pub postings_moved: u64,
    /// Payload bytes carried.
    pub bytes_moved: u64,
}

/// What a crash destroyed ([`Dht::fail_peers`] — no messages are sent;
/// this is the damage report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LossStats {
    /// Entries whose *last* copy died: their content is gone.
    pub keys_lost: u64,
    /// Postings those entries carried.
    pub postings_lost: u64,
    /// Payload bytes those entries carried.
    pub bytes_lost: u64,
    /// Entries that survived but with fewer copies than the (re-derived)
    /// replica set wants — what a [`Dht::repair_sweep`] re-materializes.
    pub keys_degraded: u64,
}

/// What a repair sweep re-materialized (metered under [`MsgKind::Repair`],
/// one message per copied entry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Copies created at peers the re-derived replica sets were missing.
    pub copies: u64,
    /// Postings those copies carried.
    pub postings: u64,
    /// Payload bytes those copies carried.
    pub bytes: u64,
}

/// Payload bytes of one lookup *request* (it carries a key, nothing
/// else). Single source of truth for both the traffic meters below and
/// the simulated network's timing model — change it here and counted
/// bytes and simulated transmission times move together.
pub const LOOKUP_REQUEST_BYTES: u64 = 8;

/// The stripe a key lives in: low bits of the (well-mixed) key hash.
#[inline]
pub fn stripe_of(key: KeyHash) -> usize {
    (key.0 as usize) & (NUM_STRIPES - 1)
}

/// Per-owner replica walks memoized across one churn scan (see
/// `Dht::targets`), indexed by owner peer index.
type WalkMemo = Vec<Option<Vec<u32>>>;

/// The serving candidate among the live candidates `walk` yields (see
/// `Dht::serve`): the first one on a miss, else the first holder, or —
/// when `spread` is set — the holder `hash(query_id, key)` picks among
/// those reached. `None` when the walk reaches no holder.
fn pick(
    mut walk: impl Iterator<Item = (u32, u32, u32)>,
    holders: Option<&[u32]>,
    spread: Option<(u64, KeyHash)>,
) -> Option<(u32, u32, u32)> {
    let Some(h) = holders else {
        // A miss is answered by the acting primary.
        return walk.next();
    };
    let mut held = walk.filter(|(i, _, _)| h.contains(i));
    let Some((query_id, key)) = spread else {
        return held.next();
    };
    // Holder sets only ever contain live peers, so the walk has passed
    // every holder it can reach once it has yielded `h.len()` of them.
    let live: Vec<(u32, u32, u32)> = held.take(h.len()).collect();
    let n = live.len() as u64;
    (n > 0).then(|| live[(hash_u64s(&[query_id, key.0]) % n) as usize])
}

/// One re-copy a churn sweep plans: `(key, source, target, postings,
/// bytes)`.
type PlannedCopy = (u64, u32, u32, u64, u64);

/// Plans the copies that bring `slot`'s holders up to its replica set
/// `targets` and adds the targets to the holders. Each copy's read source
/// is picked by hashing `(key, target)` over the holders from *before*
/// this sweep, so a mass re-copy spreads its reads across the replicas
/// instead of hammering whichever holder sorts first.
fn plan_missing<V>(
    key: u64,
    slot: &mut Slot<V>,
    targets: &[u32],
    volume: impl Fn(&V) -> (u64, u64),
    planned: &mut Vec<PlannedCopy>,
) {
    if targets.iter().all(|t| slot.holders.contains(t)) {
        return;
    }
    let existing = slot.holders.clone();
    let (postings, bytes) = volume(&slot.value);
    for &target in targets.iter().filter(|t| !existing.contains(t)) {
        let pick = hash_u64s(&[key, u64::from(target)]) % existing.len() as u64;
        planned.push((key, existing[pick as usize], target, postings, bytes));
        slot.holders.push(target);
    }
    slot.holders.sort_unstable();
}

impl<V: Send + Sync + 'static> Dht<V> {
    /// Builds an empty unreplicated DHT (`R = 1`) over the overlay.
    pub fn new(overlay: Box<PGrid>) -> Self {
        Self::replicated(overlay, 1)
    }

    /// Builds an empty DHT whose keys are placed on `replication` live
    /// peers each (primary + `R-1` walk successors), stored in memory: an
    /// unbounded [`SegmentStore`], which never seals, so its values need
    /// no byte form.
    ///
    /// # Panics
    /// Panics when `replication` is zero.
    pub fn replicated(overlay: Box<PGrid>, replication: usize) -> Self {
        let store = SegmentStore::ephemeral(NeverSealed, u64::MAX);
        Self::with_store(overlay, replication, Box::new(store))
    }

    /// Builds an empty DHT over an explicit store (see [`crate::store`] —
    /// e.g. a budgeted [`SegmentStore`] for tiered, restartable storage).
    ///
    /// # Panics
    /// Panics when `replication` is zero.
    pub fn with_store(overlay: Box<PGrid>, replication: usize, store: Box<dyn Store<V>>) -> Self {
        assert!(replication >= 1, "replication factor must be at least 1");
        let n = overlay.len();
        Self {
            overlay,
            membership: Membership::new(n),
            replication,
            store,
            meter: TrafficMeter::new(n),
            hot: HotConfig::default(),
            hits: (0..NUM_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            promoted: Mutex::new(HashSet::new()),
            gossip: None,
            gossip_metering: GossipMetering::All,
        }
    }

    /// Switches the serving paths from the membership oracle to gossip-
    /// maintained per-peer views (see [`crate::gossip`]). Views start
    /// *converged* on the current ground truth — deaths that predate
    /// gossip are common knowledge; only transitions from here on must
    /// be detected (crashes) or announced (joins, graceful departures).
    ///
    /// # Panics
    /// Panics when `config.fanout == 0` (that spelling of "disabled"
    /// belongs in the caller's config, not here) or the config is
    /// otherwise invalid.
    pub fn enable_gossip(&mut self, config: GossipConfig) {
        assert!(
            config.fanout > 0,
            "enable_gossip needs fanout >= 1; fanout 0 means gossip stays off"
        );
        let mut state = GossipState::new(self.overlay.len(), config);
        for i in 0..self.overlay.len() {
            if !self.membership.is_live(i) {
                state.mark_departed(i);
            }
        }
        self.gossip = Some(state);
    }

    /// Selects which share of gossip probes this instance meters (see
    /// [`GossipMetering`]).
    pub fn set_gossip_metering(&mut self, metering: GossipMetering) {
        self.gossip_metering = metering;
    }

    /// The gossip substrate, when [`Dht::enable_gossip`] switched it on.
    pub fn gossip(&self) -> Option<&GossipState> {
        self.gossip.as_ref()
    }

    /// Runs one gossip round: probes per the deterministic schedule,
    /// meters each one under [`MsgKind::Gossip`] (a delivered exchange is
    /// two messages — ping and ack, each attributed to its sender; a
    /// timed-out probe is one), reports each probe to `on_probe` in
    /// canonical order so the simulated backend can time the legs, and —
    /// when a death became confirmed in **every** live view this round —
    /// runs the [`Dht::repair_sweep`] right here: detection, not an
    /// oracle, triggers repair. `volume`/`on_copy` are the sweep's usual
    /// parameters.
    ///
    /// # Panics
    /// Panics unless [`Dht::enable_gossip`] ran first.
    pub fn gossip_round(
        &mut self,
        volume: impl Fn(&V) -> (u64, u64),
        mut on_probe: impl FnMut(GossipProbe),
        on_copy: impl FnMut(KeyHash, Delivery, u64),
    ) -> GossipOutcome {
        let membership = &self.membership;
        let meter = &self.meter;
        let metering = self.gossip_metering;
        let state = self
            .gossip
            .as_mut()
            .expect("gossip_round requires enable_gossip");
        let report = state.run_round(membership, |probe| {
            let metered = match metering {
                GossipMetering::All => true,
                GossipMetering::Partition { nprocs, index } => {
                    probe.from as usize % nprocs == index
                }
                GossipMetering::Mirror => false,
            };
            if metered {
                meter.record(MsgKind::Gossip, probe.from as usize, 0, probe.bytes, 1);
                if probe.delivered {
                    meter.record(MsgKind::Gossip, probe.to as usize, 0, probe.bytes, 1);
                }
            }
            on_probe(probe);
        });
        let repair = if report.universally_confirmed.is_empty() {
            None
        } else {
            Some(self.repair_sweep(volume, on_copy))
        };
        GossipOutcome { report, repair }
    }

    /// Enables (or reconfigures) popularity-driven replication. With
    /// `threshold == 0` (the default) lookups count nothing and
    /// [`Dht::rebalance_hot`] is a no-op.
    pub fn set_hot_config(&mut self, hot: HotConfig) {
        self.hot = hot;
    }

    /// The overlay in use.
    pub fn overlay(&self) -> &PGrid {
        &self.overlay
    }

    /// The peer-liveness view.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// The configured replication factor `R`.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The meter (all traffic recorded so far).
    pub fn snapshot(&self) -> TrafficSnapshot {
        self.meter.snapshot()
    }

    /// The live meter — the simulated-network backend records per-message
    /// delivery latencies into the same meter the storage dispatch counts
    /// through, so one snapshot carries both.
    pub(crate) fn meter(&self) -> &TrafficMeter {
        &self.meter
    }

    /// Number of lock stripes (see [`NUM_STRIPES`]).
    pub fn num_stripes(&self) -> usize {
        NUM_STRIPES
    }

    /// Peer index of the peer responsible for `key`.
    #[inline]
    fn owner_index(&self, key: KeyHash) -> usize {
        self.overlay.peer_index(self.overlay.responsible(key))
    }

    /// The replica walk from `owner`: every peer once, in key-space
    /// successor order ([`PGrid::successor_index`]), yielding each **live**
    /// candidate as `(index, hops, dead)` — the hops taken to reach it and
    /// the dead candidates attempted on the way. Placement, lookup
    /// failover, read spreading and the churn scans' re-copy planning all
    /// derive from this one walk.
    ///
    /// With `view = None` (the membership oracle) every candidate before a
    /// yielded one costs a hop, so `hops` is the walk position. With a
    /// querier's gossip [`PeerView`], a candidate the view confirms dead is
    /// skipped free (routed around, never attempted); any other candidate
    /// still costs one hop, and a dead one also counts as one attempted
    /// delivery — a timeout on the simulated network, the price of a stale
    /// view. A view with no confirmations walks exactly like the oracle. A
    /// live peer the view wrongly confirms dead is skipped like a dead one;
    /// when that hides every holder, lookups fall back to the oracle walk
    /// (see `serve`).
    fn walk<'a>(
        &'a self,
        owner: usize,
        view: Option<&'a PeerView>,
    ) -> impl Iterator<Item = (u32, u32, u32)> + 'a {
        let (mut hops, mut dead) = (0u32, 0u32);
        std::iter::successors(Some(owner), |&i| Some(self.overlay.successor_index(i)))
            .take(self.overlay.len())
            .filter(move |&i| view.is_none_or(|v| !v.is_confirmed_dead(i)))
            .filter_map(move |i| {
                let at = (i as u32, hops, dead);
                hops += 1;
                if self.membership.is_live(i) {
                    Some(at)
                } else {
                    dead += 1;
                    None
                }
            })
    }

    /// The replica set `key` is entitled to during a churn scan
    /// ([`Dht::add_peers`], [`Dht::leave_peers`], [`Dht::repair_sweep`],
    /// [`Dht::rebalance_hot`]): the first `want` live peers of its owner's
    /// walk. While overlay and membership are fixed the walk is a pure
    /// function of the owner, so `memo` keeps one walk — long enough for
    /// the hot extras — per *distinct* owner, and every `want` tier reads
    /// a prefix of it.
    fn targets<'m>(&self, memo: &'m mut WalkMemo, key: u64, want: usize) -> &'m [u32] {
        let owner = self.owner_index(KeyHash(key));
        let longest = self.replication + self.hot.extra;
        debug_assert!(want <= longest, "a key wants at most R + extra copies");
        let walk = memo[owner].get_or_insert_with(|| {
            self.walk(owner, None)
                .take(longest)
                .map(|(i, _, _)| i)
                .collect()
        });
        &walk[..want.min(walk.len())]
    }

    /// An empty [`WalkMemo`] for one churn scan.
    fn walk_memo(&self) -> WalkMemo {
        vec![None; self.overlay.len()]
    }

    /// The replica-walk length a key is entitled to: `R`, plus the hot
    /// extras when the popularity sweep has promoted it. Keeping every
    /// churn scan on this single definition is what makes promoted extras
    /// *survive* joins, departures and repairs instead of being trimmed
    /// back to the structural set by the next scan.
    fn want_of(&self, promoted: &HashSet<u64>, key: u64) -> usize {
        if promoted.contains(&key) {
            self.replication + self.hot.extra
        } else {
            self.replication
        }
    }

    /// Resolves which replica serves a lookup probe. Returns `(target
    /// index, extra hops past the owner, dead candidates attempted)`.
    ///
    /// `holders` is the key's holder set (`None` for a key stored nowhere:
    /// the first live candidate answers "not found"). Without `spread` the
    /// first holder along the [`walk`](Self::walk) serves, in
    /// deterministic failover order. With `spread = Some((query_id, key))`
    /// and several holders, the server is picked among the holders the
    /// walk reaches by `hash(query_id, key)` — a pure function of message
    /// attributes, so a skewed query stream spreads its reads across the
    /// replica set at any thread count — and charged exactly what serving
    /// from that holder in walk order would cost.
    ///
    /// `origin` is the querying peer: with gossip enabled the walk runs
    /// under its [`PeerView`] first, then — when false positives hid every
    /// holder — under the oracle, a blind retry sweep that may cost extra
    /// probes but never a wrong answer.
    fn serve(
        &self,
        origin: usize,
        owner: usize,
        holders: Option<&[u32]>,
        spread: Option<(u64, KeyHash)>,
    ) -> (u32, u32, u32) {
        let spread = spread.filter(|_| holders.is_some_and(|h| h.len() > 1));
        if self.gossip.is_none() && self.membership.all_live() && spread.is_none() {
            // No churn ever happened: the owner holds every stored key
            // (placement is derived, joins hand the primary copy over),
            // so the walk is just its first element.
            debug_assert!(holders.is_none_or(|h| h.contains(&(owner as u32))));
            return (owner as u32, 0, 0);
        }
        self.gossip
            .as_ref()
            .and_then(|g| pick(self.walk(owner, Some(g.view(origin))), holders, spread))
            .or_else(|| pick(self.walk(owner, None), holders, spread))
            .expect("stored entries always have at least one live holder")
    }

    /// Counts a served lookup toward the key's popularity (no-op unless
    /// [`Dht::set_hot_config`] enabled the mechanism). Only *stored* keys
    /// count — there is nothing to replicate for a miss.
    #[inline]
    fn count_hit(&self, stripe: usize, key: u64, stored: bool) {
        if self.hot.threshold > 0 && stored {
            *self.hits[stripe].lock().entry(key).or_insert(0) += 1;
        }
    }

    /// Routes an *insert/update* from `from` carrying `postings` postings
    /// (`bytes` payload bytes) for `key`, then applies `update` to the
    /// value under the stripe's lock. `update` receives `&mut V` after
    /// `default` fills a missing slot.
    ///
    /// The insert fans to the key's full replica set: the primary copy
    /// routes from `from` to the first live walk candidate, each further
    /// copy is forwarded along the walk by the previous replica — every
    /// copy is metered as its own [`MsgKind::IndexInsert`] message.
    ///
    /// Returns whatever `update` returns — e.g. feedback the global index
    /// sends back to the inserting peer (a "became non-discriminative"
    /// notification in `hdk-core`).
    #[allow(clippy::too_many_arguments)]
    pub fn upsert<R>(
        &self,
        from: PeerId,
        key: KeyHash,
        postings: u64,
        bytes: u64,
        default: impl FnOnce() -> V,
        update: impl FnOnce(&mut V) -> R,
    ) -> R {
        self.upsert_delivered(from, key, postings, bytes, default, update, |_| {})
    }

    /// [`Dht::upsert`] that additionally reports each metered copy's
    /// resolved [`Delivery`] (in storage order: primary first, then the
    /// forwarded replicas). The simulated-network backend times the
    /// message legs from these records instead of re-running
    /// `overlay.route()` — metering and timing share one derivation.
    #[allow(clippy::too_many_arguments)]
    pub fn upsert_delivered<R>(
        &self,
        from: PeerId,
        key: KeyHash,
        postings: u64,
        bytes: u64,
        default: impl FnOnce() -> V,
        update: impl FnOnce(&mut V) -> R,
        mut on_copy: impl FnMut(Delivery),
    ) -> R {
        let route = self.overlay.route(from, key);
        let origin = self.overlay.peer_index(from);
        if self.replication == 1 && self.membership.all_live() {
            // The unreplicated, churn-free fast path: metering identical
            // to the pre-replication layer.
            self.meter
                .record(MsgKind::IndexInsert, origin, postings, bytes, route.hops);
            on_copy(Delivery {
                source: from,
                target: route.responsible,
                hops: route.hops,
                dead_skips: 0,
            });
            let owner = self.overlay.peer_index(route.responsible) as u32;
            // The store's callbacks are `FnMut` (object safety); thread
            // the one-shot closures and the result through `Option`s.
            let mut default = Some(default);
            let mut update = Some(update);
            let mut result = None;
            // The fresh entry's holder is set by the update, so a new key
            // allocates no holder list on the way in.
            self.store.upsert(
                stripe_of(key),
                key.0,
                &mut || Slot {
                    value: (default.take().expect("default runs at most once"))(),
                    holders: Vec::new(),
                },
                &mut |slot| {
                    if slot.holders.is_empty() {
                        slot.holders.push(owner);
                    }
                    result = Some((update.take().expect("update runs once"))(&mut slot.value));
                },
            );
            return result.expect("upsert ran the update");
        }

        let owner = self.overlay.peer_index(route.responsible);
        let targets: Vec<(u32, u32, u32)> = self.walk(owner, None).take(self.replication).collect();
        let peers = self.overlay.peers();
        // Primary leg: normal routing plus one hop (and one timeout on
        // the simulated network) per dead candidate skipped.
        let (primary, primary_hops, primary_dead) = targets[0];
        self.meter.record(
            MsgKind::IndexInsert,
            origin,
            postings,
            bytes,
            route.hops + primary_hops,
        );
        on_copy(Delivery {
            source: from,
            target: peers[primary as usize],
            hops: route.hops + primary_hops,
            dead_skips: primary_dead,
        });
        // Replica copies: forwarded along the walk, each from the
        // previous replica, one hop per walk step (dead steps are skipped
        // hops too), attributed to the forwarding peer.
        for pair in targets.windows(2) {
            let ((prev, prev_hops, prev_dead), (next, next_hops, next_dead)) = (pair[0], pair[1]);
            let hops = next_hops - prev_hops;
            self.meter
                .record(MsgKind::IndexInsert, prev as usize, postings, bytes, hops);
            on_copy(Delivery {
                source: peers[prev as usize],
                target: peers[next as usize],
                hops,
                dead_skips: next_dead - prev_dead,
            });
        }
        let desired: Vec<u32> = targets.iter().map(|&(i, _, _)| i).collect();
        let mut default = Some(default);
        let mut update = Some(update);
        let mut result = None;
        self.store.upsert(
            stripe_of(key),
            key.0,
            &mut || Slot {
                value: (default.take().expect("default runs at most once"))(),
                holders: Vec::new(),
            },
            &mut |slot| {
                for &idx in &desired {
                    if !slot.holders.contains(&idx) {
                        slot.holders.push(idx);
                    }
                }
                slot.holders.sort_unstable();
                result = Some((update.take().expect("update runs once"))(&mut slot.value));
            },
        );
        result.expect("upsert ran the update")
    }

    /// Routes a *lookup* from `from`; `read` inspects the stored value (if
    /// any) and returns `(result, postings, bytes)` where the latter two
    /// describe the response payload, metered as [`MsgKind::QueryResponse`]
    /// attributed to the querying peer. Served by the first live replica
    /// holding the key, in deterministic failover order.
    pub fn lookup<R>(
        &self,
        from: PeerId,
        key: KeyHash,
        read: impl FnOnce(Option<&V>) -> (R, u64, u64),
    ) -> R {
        let route = self.overlay.route(from, key);
        let origin = self.overlay.peer_index(from);
        let owner = self.overlay.peer_index(route.responsible);
        let mut read = Some(read);
        let mut out = None;
        self.store.get(stripe_of(key), key.0, &mut |slot| {
            self.count_hit(stripe_of(key), key.0, slot.is_some());
            let (target, extra, dead_skips) =
                self.serve(origin, owner, slot.map(|s| s.holders.as_slice()), None);
            let hops = route.hops + extra;
            // Every dead candidate attempted on the failover walk is a
            // timed-out delivery — the cost gossip-maintained views
            // drive to zero once a death is confirmed.
            self.meter.record_failover_timeouts(u64::from(dead_skips));
            // The request itself: one message, no postings, key-sized
            // payload.
            self.meter
                .record(MsgKind::QueryLookup, origin, 0, LOOKUP_REQUEST_BYTES, hops);
            self.meter.record_served(target as usize);
            let (result, postings, bytes) =
                (read.take().expect("read runs once"))(slot.map(|s| &s.value));
            // The response travels back over the same number of hops.
            self.meter
                .record(MsgKind::QueryResponse, origin, postings, bytes, hops);
            out = Some(result);
        });
        out.expect("get runs the read callback")
    }

    /// Batched variant of [`Dht::lookup`]: resolves `keys` (one level of a
    /// query plan's fan-out) with **one read-lock acquisition per stripe**
    /// instead of one per key, stripes resolved rayon-parallel.
    ///
    /// Results come back in input order, and each key is metered exactly
    /// like a [`Dht::lookup`] of its own (request + response, same hop
    /// and dead-skip accounting, same payload accounting), so traffic
    /// counters are bit-identical to the key-at-a-time loop — the meters
    /// are order-independent atomic sums. `read` additionally receives
    /// the key's input index so callers can consult per-key context, and
    /// sees each value as a lookup does ([`Store::get_many`]): a sealed
    /// one may lack what no lookup reads.
    ///
    /// Unlike the single-key path, each probe's serving replica is
    /// *spread*: picked by `hash(query_id, key)` over the key's live
    /// holder set (see `serve`). `query_id` is a caller attribute of the
    /// batch (a query hash, a stream position — anything
    /// deterministic); at `R = 1`, or whenever a key has a single live
    /// holder, the pick is forced and metering is bit-identical to the
    /// walk-order failover of [`Dht::lookup`].
    pub fn lookup_many<R: Send>(
        &self,
        from: PeerId,
        query_id: u64,
        keys: &[KeyHash],
        read: impl Fn(usize, Option<&V>) -> (R, u64, u64) + Sync,
    ) -> Vec<R> {
        self.lookup_many_delivered(from, query_id, keys, read).0
    }

    /// [`Dht::lookup_many`] that additionally returns each key's resolved
    /// [`Delivery`] in input order — the simulated backend's timing pass
    /// consumes these instead of re-running `overlay.route()` per message.
    pub fn lookup_many_delivered<R: Send>(
        &self,
        from: PeerId,
        query_id: u64,
        keys: &[KeyHash],
        read: impl Fn(usize, Option<&V>) -> (R, u64, u64) + Sync,
    ) -> (Vec<R>, Vec<Delivery>) {
        // Group key positions by stripe with one sort of `(stripe,
        // position)` pairs: each group is one stripe's keys in input order.
        let mut order: Vec<(usize, usize)> = keys
            .iter()
            .enumerate()
            .map(|(i, key)| (stripe_of(*key), i))
            .collect();
        order.sort_unstable();
        let groups: Vec<&[(usize, usize)]> = order.chunk_by(|a, b| a.0 == b.0).collect();
        let origin = self.overlay.peer_index(from);
        let per_stripe: Vec<Vec<(usize, R, Delivery)>> = groups
            .par_iter()
            .map(|group| {
                let stripe = group[0].0;
                let stripe_keys: Vec<u64> = group.iter().map(|&(_, i)| keys[i].0).collect();
                let mut items: Vec<(usize, R, Delivery)> = Vec::with_capacity(group.len());
                self.store.get_many(stripe, &stripe_keys, &mut |j, slot| {
                    let i = group[j].1;
                    let key = keys[i];
                    self.count_hit(stripe, key.0, slot.is_some());
                    let route = self.overlay.route(from, key);
                    let owner = self.overlay.peer_index(route.responsible);
                    let (target, extra, dead_skips) = self.serve(
                        origin,
                        owner,
                        slot.map(|s| s.holders.as_slice()),
                        Some((query_id, key)),
                    );
                    let hops = route.hops + extra;
                    self.meter.record_failover_timeouts(u64::from(dead_skips));
                    self.meter
                        .record(MsgKind::QueryLookup, origin, 0, LOOKUP_REQUEST_BYTES, hops);
                    self.meter.record_served(target as usize);
                    let (result, postings, bytes) = read(i, slot.map(|s| &s.value));
                    self.meter
                        .record(MsgKind::QueryResponse, origin, postings, bytes, hops);
                    let delivery = Delivery {
                        source: from,
                        target: self.overlay.peers()[target as usize],
                        hops,
                        dead_skips,
                    };
                    items.push((i, result, delivery));
                });
                items
            })
            .collect();
        let mut out: Vec<Option<(R, Delivery)>> = Vec::with_capacity(keys.len());
        out.resize_with(keys.len(), || None);
        for (i, r, d) in per_stripe.into_iter().flatten() {
            out[i] = Some((r, d));
        }
        out.into_iter()
            .map(|o| o.expect("every key resolved exactly once"))
            .unzip()
    }

    /// Sends a *notification* (global index → peer), metered under
    /// [`MsgKind::IndexNotify`]. The paper's index notifies peers whose
    /// inserted HDKs became globally non-discriminative. Notifications are
    /// modeled as messages only; the receiving peer reacts in its next
    /// indexing round.
    pub fn notify(&self, to: PeerId, postings: u64, bytes: u64) {
        let origin = self.overlay.peer_index(to);
        // A notification is charged a flat one hop, whatever the overlay's
        // size; the simulated network's timing model charges the same
        // single leg.
        self.meter
            .record(MsgKind::IndexNotify, origin, postings, bytes, 1);
    }

    /// Reads a stored value without metering (used by *local* consumers:
    /// the peer that hosts a key reads it for free, and the experiment
    /// harness uses this to measure index sizes, which are storage — not
    /// traffic — quantities).
    pub fn peek<R>(&self, key: KeyHash, read: impl FnOnce(Option<&V>) -> R) -> R {
        let mut read = Some(read);
        let mut out = None;
        self.store.get(stripe_of(key), key.0, &mut |slot| {
            out = Some((read.take().expect("read runs once"))(
                slot.map(|s| &s.value),
            ));
        });
        out.expect("get runs the read callback")
    }

    /// Resident (hot-tier) bytes of one stripe's values, under its read
    /// lock — **per stored copy**: an entry replicated at `R` peers
    /// occupies `R` times its `measure`. `measure` reports each value's
    /// storage footprint — for compressed posting blocks that is the
    /// encoded size, so storage accounting and the wire byte meters speak
    /// the same unit. (At `R = 1` every entry has exactly one holder and
    /// this is the plain sum.) Entries a tiered store has sealed to disk
    /// do not occupy memory and are excluded — see [`Dht::disk_bytes`]
    /// for the on-disk side (an unbounded store keeps everything hot, so
    /// there this is the whole total).
    pub fn stripe_resident_bytes(&self, stripe: usize, measure: impl Fn(&V) -> u64) -> u64 {
        let mut total = 0u64;
        self.store.scan(stripe, &mut |_, s, tier| {
            if tier == Tier::Hot {
                total += measure(&s.value) * s.holders.len() as u64;
            }
        });
        total
    }

    /// Total resident (hot-tier) bytes across all stripes (storage
    /// accounting, not traffic — nothing is metered).
    pub fn resident_bytes(&self, measure: impl Fn(&V) -> u64) -> u64 {
        (0..NUM_STRIPES)
            .map(|s| self.stripe_resident_bytes(s, &measure))
            .sum()
    }

    /// Heap bytes of one stripe's storage structure, not of its values:
    /// the store's tables ([`Store::table_bytes`]) and, separately, the
    /// heap slices of resident holder sets too long to sit inline.
    pub fn stripe_structure_bytes(&self, stripe: usize) -> (TableBytes, u64) {
        let mut spilled = 0u64;
        self.store.scan(stripe, &mut |_, s, tier| {
            if tier == Tier::Hot {
                spilled += s.holders.spilled_bytes() as u64;
            }
        });
        (self.store.table_bytes(stripe), spilled)
    }

    /// Total live on-disk segment bytes across all stripes, summed per
    /// stored copy (0 for an unbounded store). The disk-tier counterpart
    /// of [`Dht::resident_bytes`].
    pub fn disk_bytes(&self) -> u64 {
        (0..NUM_STRIPES).map(|s| self.store.disk_bytes(s)).sum()
    }

    /// Iterates one stripe under its read lock, handing the callback each
    /// entry's current holder set (ascending peer indices), key, value and
    /// [`Tier`] (`Tier::Sealed` carries the entry's per-copy on-disk frame
    /// size). The backbone of stripe-parallel sweeps: disjoint stripes can
    /// be swept from different threads with zero lock contention, covering
    /// the whole index exactly once. Covers **both** tiers (sealed entries
    /// are decoded on the fly) — content accounting must not depend on
    /// tier placement. With `R = 1` and no churn the single holder is the
    /// responsible peer, so per-holder accounting degenerates to per-owner
    /// accounting.
    pub fn for_each_stripe<F: FnMut(&[u32], &u64, &V, Tier)>(&self, stripe: usize, mut f: F) {
        self.store
            .scan(stripe, &mut |k, s, tier| f(&s.holders, &k, &s.value, tier));
    }

    /// Mutable variant of [`Dht::for_each_stripe`] (the hosting peers'
    /// end-of-round sweep work, stripe-parallel). On a tiered store a
    /// sweep that changes a sealed value pulls the entry back into the
    /// hot tier.
    pub fn for_each_stripe_mut<F: FnMut(&u64, &mut V)>(&self, stripe: usize, mut f: F) {
        self.store.scan_mut(stripe, &mut |k, s| f(&k, &mut s.value));
    }

    /// Admits one peer — [`Dht::add_peers`] with a single-element wave.
    pub fn add_peer(&mut self, peer: PeerId, volume: impl Fn(&V) -> (u64, u64)) -> MigrationStats {
        self.add_peers(vec![peer], volume)
            .pop()
            .expect("one join, one migration")
    }

    /// Admits a wave of new peers: every peer joins the overlay (key-space
    /// regions split, peer indices appended), then **one shared stripe
    /// scan** re-derives each entry's replica set under the final overlay
    /// and hands the new peers the copies they are now responsible for —
    /// N joins cost one scan, not N.
    ///
    /// Ownership is computed from the overlay, so nothing physically
    /// moves between stripes — but each handed-over copy still crosses
    /// the simulated network and is metered as [`MsgKind::Maintenance`]
    /// (one aggregate message per joining peer; the paper excludes
    /// maintenance from its posting counts, and so do our
    /// indexing/retrieval figures, but the simulation reports it).
    /// Copies whose holder fell out of the re-derived replica set are
    /// dropped for free; copies *missing* at surviving old peers are left
    /// to the next [`Dht::repair_sweep`] — a join wave only ever moves
    /// data onto the joiners. `volume` reports `(postings, bytes)` per
    /// re-assigned value.
    pub fn add_peers(
        &mut self,
        peers: Vec<PeerId>,
        volume: impl Fn(&V) -> (u64, u64),
    ) -> Vec<MigrationStats> {
        let new_lo = self.overlay.len();
        for peer in &peers {
            self.overlay.join(*peer);
            self.meter.add_peer();
            self.membership.add_peer();
            if let Some(g) = self.gossip.as_mut() {
                // Joins are announced: every view gains an alive entry.
                g.add_peer();
            }
        }
        let mut stats = vec![MigrationStats::default(); peers.len()];
        let mut memo = self.walk_memo();
        let promoted = self.promoted.lock();
        for stripe in 0..NUM_STRIPES {
            self.store.scan_mut(stripe, &mut |k, slot| {
                let targets = self.targets(&mut memo, k, self.want_of(&promoted, k));
                let mut next: Holders = slot
                    .holders
                    .iter()
                    .copied()
                    .filter(|h| targets.contains(h))
                    .collect();
                for &idx in targets {
                    if idx as usize >= new_lo && !slot.holders.contains(&idx) {
                        let (postings, bytes) = volume(&slot.value);
                        let s = &mut stats[idx as usize - new_lo];
                        s.keys_moved += 1;
                        s.postings_moved += postings;
                        s.bytes_moved += bytes;
                        next.push(idx);
                    }
                }
                if next.is_empty() {
                    // Defensive: never drop the last copy (cannot happen —
                    // a changed replica set always includes a joiner).
                    next = slot.holders.clone();
                }
                next.sort_unstable();
                slot.holders = next;
            });
        }
        for (i, s) in stats.iter().enumerate() {
            self.meter.record(
                MsgKind::Maintenance,
                new_lo + i,
                s.postings_moved,
                s.bytes_moved,
                1,
            );
        }
        stats
    }

    /// Graceful departure wave: the peers are marked
    /// [`PeerState::Departed`] (replica walks re-derive around them), and
    /// **one shared stripe scan** hands every copy they held over to the
    /// re-derived replica set — metered as [`MsgKind::Maintenance`], one
    /// aggregate message per departing peer, mirroring [`Dht::add_peers`].
    /// No content is ever lost by a graceful departure, at any `R`.
    ///
    /// Returns one [`MigrationStats`] per departing peer (input order):
    /// the handover volume attributed to it (when several departing peers
    /// held the same entry, the smallest-indexed one hands it over).
    ///
    /// # Panics
    /// Panics when a peer is unknown or already dead, or when the wave
    /// would leave no live peer behind.
    pub fn leave_peers(
        &mut self,
        peers: &[PeerId],
        volume: impl Fn(&V) -> (u64, u64),
    ) -> Vec<MigrationStats> {
        let leaving: Vec<u32> = peers
            .iter()
            .map(|p| self.overlay.peer_index(*p) as u32)
            .collect();
        for &i in &leaving {
            self.membership.mark(i as usize, PeerState::Departed);
            if let Some(g) = self.gossip.as_mut() {
                // A graceful leaver says goodbye: views update at once;
                // only *crashes* must be detected by probing.
                g.mark_departed(i as usize);
            }
        }
        assert!(
            self.membership.live_count() >= 1,
            "a departure wave must leave at least one live peer"
        );
        let mut stats = vec![MigrationStats::default(); peers.len()];
        let mut memo = self.walk_memo();
        let promoted = self.promoted.lock();
        for stripe in 0..NUM_STRIPES {
            self.store.scan_mut(stripe, &mut |k, slot| {
                let departing: Vec<u32> = slot
                    .holders
                    .iter()
                    .copied()
                    .filter(|h| leaving.contains(h))
                    .collect();
                if departing.is_empty() {
                    return;
                }
                // The smallest-indexed departing holder does the handing
                // over (deterministic attribution).
                let hander = leaving
                    .iter()
                    .position(|&l| l == departing[0])
                    .expect("departing holder is in the wave");
                slot.holders.retain(|h| !departing.contains(h));
                for &idx in self.targets(&mut memo, k, self.want_of(&promoted, k)) {
                    if !slot.holders.contains(&idx) {
                        let (postings, bytes) = volume(&slot.value);
                        let s = &mut stats[hander];
                        s.keys_moved += 1;
                        s.postings_moved += postings;
                        s.bytes_moved += bytes;
                        slot.holders.push(idx);
                    }
                }
                slot.holders.sort_unstable();
                debug_assert!(!slot.holders.is_empty(), "handover lost the last copy");
            });
        }
        for (i, s) in stats.iter().enumerate() {
            self.meter.record(
                MsgKind::Maintenance,
                leaving[i] as usize,
                s.postings_moved,
                s.bytes_moved,
                1,
            );
        }
        stats
    }

    /// Crash wave: the peers are marked [`PeerState::Failed`] and every
    /// copy they held is destroyed — **no handover, no messages**. An
    /// entry whose last copy dies is removed (its content is lost; at
    /// `R ≥ 2` that takes `R` simultaneous crashes between repairs);
    /// surviving entries with fewer copies than the re-derived replica
    /// set wants are *degraded* until a [`Dht::repair_sweep`] runs.
    ///
    /// `volume` sizes the damage report. Returns the [`LossStats`].
    ///
    /// # Panics
    /// Panics when a peer is unknown or already dead, or when the wave
    /// would leave no live peer behind.
    pub fn fail_peers(&mut self, peers: &[PeerId], volume: impl Fn(&V) -> (u64, u64)) -> LossStats {
        let failing: Vec<u32> = peers
            .iter()
            .map(|p| self.overlay.peer_index(*p) as u32)
            .collect();
        for &i in &failing {
            self.membership.mark(i as usize, PeerState::Failed);
        }
        assert!(
            self.membership.live_count() >= 1,
            "a crash wave must leave at least one live peer"
        );
        let want = self.replication.min(self.membership.live_count());
        let mut loss = LossStats::default();
        for stripe in 0..NUM_STRIPES {
            self.store.retain(stripe, &mut |_, slot| {
                slot.holders.retain(|h| !failing.contains(h));
                if slot.holders.is_empty() {
                    let (postings, bytes) = volume(&slot.value);
                    loss.keys_lost += 1;
                    loss.postings_lost += postings;
                    loss.bytes_lost += bytes;
                    false
                } else {
                    if slot.holders.len() < want {
                        loss.keys_degraded += 1;
                    }
                    true
                }
            });
        }
        loss
    }

    /// Restarts live peers *in place*: their in-memory state is assumed
    /// gone (the process died and came back), and whatever their storage
    /// store persisted is recovered: each peer's segment logs are
    /// replayed, truncated/corrupt tails discarded by checksum, and
    /// exactly the copies whose sealed frames are current kept. Hot copies
    /// do not survive, so on an unbounded store (which never seals) every
    /// copy the peers held is dropped.
    ///
    /// Replay is **host-local disk I/O, not traffic** — nothing is
    /// metered (the simulated backend charges virtual replay time from
    /// the returned byte counts). Unlike [`Dht::fail_peers`] the peers
    /// stay live and keep their membership slot; run a
    /// [`Dht::repair_sweep`] afterwards to re-materialize whatever the
    /// logs could not cover.
    ///
    /// # Panics
    /// Panics when a peer is unknown or dead — a dead peer has no state
    /// to restart; it rejoins as a new peer.
    pub fn restart_peers(
        &mut self,
        peers: &[PeerId],
        volume: impl Fn(&V) -> (u64, u64),
    ) -> RecoveryStats {
        let indices: Vec<u32> = peers
            .iter()
            .map(|p| self.overlay.peer_index(*p) as u32)
            .collect();
        for &i in &indices {
            assert!(
                self.membership.is_live(i as usize),
                "only live peers restart in place; dead peers rejoin as new peers"
            );
        }
        let mut stats = RecoveryStats::default();
        let mut vol = |v: &V| volume(v);
        for stripe in 0..NUM_STRIPES {
            self.store.recover(stripe, &indices, &mut vol, &mut stats);
        }
        stats
    }

    /// Seals every hot entry to the store's segment logs — after this, a
    /// restart recovers every copy. An unbounded store never seals, so
    /// there this does nothing. Host-local, unmetered.
    pub fn sync_storage(&self) {
        self.store.sync();
    }

    /// The background repair sweep: re-derives every entry's replica set
    /// under the current overlay + membership and re-materializes the
    /// missing copies from surviving holders. Each copied entry is one
    /// [`MsgKind::Repair`] message (postings + bytes per `volume`, one
    /// forwarding hop), emitted in canonical `(key, target)` order —
    /// `on_copy` receives the key, the resolved [`Delivery`] and the
    /// payload size so the simulated backend can time the copies without
    /// re-deriving anything. Idempotent: a repaired network repairs to
    /// nothing. Keys the popularity sweep promoted are repaired to their
    /// extended `R + extra` replica set, so a crash does not silently
    /// shed a hot key's extra copies until its demotion.
    ///
    /// The read *source* of each copy is picked deterministically by
    /// hashing `(key, target)` over the entry's surviving holder set, so
    /// a mass repair spreads its read load across the replicas instead of
    /// hammering whichever holder sorts first.
    pub fn repair_sweep(
        &self,
        volume: impl Fn(&V) -> (u64, u64),
        on_copy: impl FnMut(KeyHash, Delivery, u64),
    ) -> RepairStats {
        let mut planned = Vec::new();
        let mut memo = self.walk_memo();
        let promoted = self.promoted.lock();
        for stripe in 0..NUM_STRIPES {
            self.store.scan_mut(stripe, &mut |k, slot| {
                let targets = self.targets(&mut memo, k, self.want_of(&promoted, k));
                plan_missing(k, slot, targets, &volume, &mut planned);
            });
        }
        drop(promoted);
        self.send_copies(MsgKind::Repair, planned, on_copy)
    }

    /// The popularity-maintenance sweep: snapshots the per-key lookup hit
    /// counters, *promotes* every key whose count reached the configured
    /// threshold — materializing up to `extra` additional replicas along
    /// the successor walk, each metered as one [`MsgKind::HotReplicate`]
    /// message (postings + bytes per `volume`, one forwarding hop, source
    /// picked by hashing `(key, target)` over the current holders, emitted
    /// in canonical `(key, target)` order like [`Dht::repair_sweep`]) —
    /// and *demotes* previously hot keys that fell below it, trimming
    /// their holders back to the structural replica set (dropping a copy
    /// is local and message-less, like the copies a crash destroys, only
    /// deliberate).
    ///
    /// Every counter is then halved (integer division, zeros removed):
    /// staying promoted requires *sustained* popularity, and the decay is
    /// a deterministic function of the counter snapshot — never of wall
    /// clock — so runs are bit-identical at any thread count. Idempotent
    /// in the repair sense: a second sweep over an unchanged workload
    /// whose keys still qualify plans zero copies.
    ///
    /// A no-op (returning all-zero [`HotStats`]) unless
    /// [`Dht::set_hot_config`] enabled the mechanism.
    pub fn rebalance_hot(
        &self,
        volume: impl Fn(&V) -> (u64, u64),
        on_copy: impl FnMut(KeyHash, Delivery, u64),
    ) -> HotStats {
        if self.hot.threshold == 0 {
            return HotStats::default();
        }
        // Phase 1: snapshot-and-decay the counters. Promotion reads the
        // snapshot; halving makes last sweep's traffic half as loud next
        // time.
        let mut next: HashSet<u64> = HashSet::new();
        for hits in &self.hits {
            hits.lock().retain(|&k, count| {
                if *count >= self.hot.threshold {
                    next.insert(k);
                }
                *count /= 2;
                *count > 0
            });
        }
        // Phase 2: scan, extend or trim holder sets, plan the copies.
        let mut planned = Vec::new();
        let mut memo = self.walk_memo();
        let mut demoted = 0;
        let mut promoted = self.promoted.lock();
        for stripe in 0..NUM_STRIPES {
            self.store.scan_mut(stripe, &mut |k, slot| {
                if next.contains(&k) {
                    let targets = self.targets(&mut memo, k, self.replication + self.hot.extra);
                    plan_missing(k, slot, targets, &volume, &mut planned);
                } else if promoted.contains(&k) {
                    // Demotion: trim the extras this mechanism added back
                    // to the structural replica set.
                    let targets = self.targets(&mut memo, k, self.replication);
                    let keep: Holders = slot
                        .holders
                        .iter()
                        .copied()
                        .filter(|h| targets.contains(h))
                        .collect();
                    // Never drop the last copy: a degraded entry whose
                    // holders all sit outside the structural set is left
                    // for the next repair sweep to sort out.
                    if !keep.is_empty() && keep.len() < slot.holders.len() {
                        demoted += 1;
                        slot.holders = keep;
                    }
                }
            });
        }
        let promoted_now = next.len() as u64;
        *promoted = next;
        drop(promoted);
        let sent = self.send_copies(MsgKind::HotReplicate, planned, on_copy);
        HotStats {
            promoted: promoted_now,
            demoted,
            copies: sent.copies,
            postings: sent.postings,
            bytes: sent.bytes,
        }
    }

    /// Emits one sweep's planned re-copies in canonical `(key, target)`
    /// order, so the store's scan order never leaks into metering or
    /// timing: each copy is one `kind` message from its source (postings
    /// and bytes per the plan, one forwarding hop), reported to `on_copy`
    /// with its resolved [`Delivery`] and payload size. Returns the totals.
    fn send_copies(
        &self,
        kind: MsgKind,
        mut planned: Vec<PlannedCopy>,
        mut on_copy: impl FnMut(KeyHash, Delivery, u64),
    ) -> RepairStats {
        planned.sort_unstable_by_key(|&(k, _, target, _, _)| (k, target));
        let peers = self.overlay.peers();
        let mut stats = RepairStats::default();
        for (key, source, target, postings, bytes) in planned {
            self.meter.record(kind, source as usize, postings, bytes, 1);
            stats.copies += 1;
            stats.postings += postings;
            stats.bytes += bytes;
            on_copy(
                KeyHash(key),
                Delivery {
                    source: peers[source as usize],
                    target: peers[target as usize],
                    hops: 1,
                    dead_skips: 0,
                },
                bytes,
            );
        }
        stats
    }

    /// Number of stored key copies at each peer (holder-resolved: an
    /// entry replicated at `R` peers counts once per holder).
    pub fn keys_per_peer(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.overlay.len()];
        for stripe in 0..NUM_STRIPES {
            self.for_each_stripe(stripe, |holders, _, _, _| {
                for &h in holders {
                    counts[h as usize] += 1;
                }
            });
        }
        counts
    }

    /// Total number of stored keys (each counted once, however many
    /// replicas hold it, whichever tier it occupies).
    pub fn num_keys(&self) -> usize {
        (0..NUM_STRIPES).map(|s| self.store.len(s)).sum()
    }
}

impl<V: Send + Sync + 'static> std::fmt::Debug for Dht<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dht")
            .field("peers", &self.overlay.len())
            .field("live", &self.membership.live_count())
            .field("replication", &self.replication)
            .field("stripes", &NUM_STRIPES)
            .field("keys", &self.num_keys())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::hash_u64s;

    fn dht_pgrid(n: u64) -> Dht<Vec<u32>> {
        Dht::new(Box::new(PGrid::new((0..n).map(PeerId).collect())))
    }

    fn dht_replicated(n: u64, r: usize) -> Dht<Vec<u32>> {
        Dht::replicated(Box::new(PGrid::new((0..n).map(PeerId).collect())), r)
    }

    // &Vec (not &[u32]): passed as `impl Fn(&V)` with `V = Vec<u32>`.
    #[allow(clippy::ptr_arg)]
    fn vol(v: &Vec<u32>) -> (u64, u64) {
        (v.len() as u64, 4 * v.len() as u64)
    }

    #[test]
    fn upsert_then_lookup_roundtrip() {
        let dht = dht_pgrid(8);
        let key = KeyHash(hash_u64s(&[1, 2]));
        dht.upsert(PeerId(3), key, 2, 10, Vec::new, |v| {
            v.extend([7, 9]);
        });
        let got = dht.lookup(PeerId(5), key, |v| {
            let v = v.cloned().unwrap_or_default();
            let n = v.len() as u64;
            (v, n, n * 4)
        });
        assert_eq!(got, vec![7, 9]);
    }

    #[test]
    fn lookup_missing_key() {
        let dht = dht_pgrid(4);
        let got = dht.lookup(PeerId(0), KeyHash(12345), |v| (v.is_none(), 0, 0));
        assert!(got);
    }

    #[test]
    fn metering_counts_all_phases() {
        let dht = dht_pgrid(8);
        let key = KeyHash(hash_u64s(&[9]));
        dht.upsert(PeerId(0), key, 5, 20, Vec::new, |v| v.push(1));
        dht.lookup(PeerId(1), key, |_| ((), 5, 20));
        dht.notify(PeerId(0), 0, 8);
        let s = dht.snapshot();
        assert_eq!(s.kind(MsgKind::IndexInsert).messages, 1);
        assert_eq!(s.kind(MsgKind::IndexInsert).postings, 5);
        assert_eq!(s.kind(MsgKind::QueryLookup).messages, 1);
        assert_eq!(s.kind(MsgKind::QueryResponse).postings, 5);
        assert_eq!(s.kind(MsgKind::IndexNotify).messages, 1);
        assert_eq!(s.inserted_by_peer[0], 5);
        assert_eq!(s.retrieved_by_peer[1], 5);
    }

    #[test]
    fn values_land_on_responsible_peer() {
        let dht = dht_pgrid(16);
        for i in 0..200u64 {
            let key = KeyHash(hash_u64s(&[i, 77]));
            dht.upsert(PeerId(i % 16), key, 1, 4, Vec::new, |v| v.push(i as u32));
        }
        assert_eq!(dht.num_keys(), 200);
        // keys_per_peer sums to the total and is reasonably spread.
        let per = dht.keys_per_peer();
        assert_eq!(per.iter().sum::<usize>(), 200);
        assert!(per.iter().filter(|&&c| c > 0).count() >= 12);
    }

    #[test]
    fn resident_bytes_sums_measure_over_all_values() {
        let dht = dht_pgrid(8);
        for i in 0..300u64 {
            let key = KeyHash(hash_u64s(&[i, 3]));
            dht.upsert(PeerId(i % 8), key, 1, 4, Vec::new, |v| v.push(i as u32));
        }
        // Each value is a Vec with one element; measure 4 bytes per entry.
        let total = dht.resident_bytes(|v| 4 * v.len() as u64);
        assert_eq!(total, 4 * 300);
        // Per-stripe accounting covers every stripe exactly once.
        let by_stripe: u64 = (0..dht.num_stripes())
            .map(|s| dht.stripe_resident_bytes(s, |v| 4 * v.len() as u64))
            .sum();
        assert_eq!(by_stripe, total);
    }

    #[test]
    fn peek_and_storage_accounting_do_not_meter() {
        let dht = dht_pgrid(4);
        let key = KeyHash(hash_u64s(&[3]));
        dht.upsert(PeerId(0), key, 1, 4, Vec::new, |v| v.push(5));
        let before = dht.snapshot();
        dht.peek(key, |v| assert!(v.is_some()));
        dht.resident_bytes(|v| v.len() as u64);
        for s in 0..dht.num_stripes() {
            dht.for_each_stripe(s, |_, _, _, _| {});
        }
        let after = dht.snapshot();
        assert_eq!(before, after);
    }

    #[test]
    fn lookup_many_matches_key_at_a_time_loop() {
        let make = || {
            let dht = dht_pgrid(8);
            for i in 0..64u64 {
                let key = KeyHash(hash_u64s(&[i, 5]));
                dht.upsert(PeerId(i % 8), key, 1, 4, Vec::new, |v| v.push(i as u32));
            }
            dht
        };
        let keys: Vec<KeyHash> = (0..80u64).map(|i| KeyHash(hash_u64s(&[i, 5]))).collect();
        let read = |v: Option<&Vec<u32>>| match v {
            Some(v) => (Some(v.clone()), v.len() as u64, 4 * v.len() as u64),
            None => (None, 0, 8),
        };

        let a = make();
        let one_by_one: Vec<Option<Vec<u32>>> =
            keys.iter().map(|&k| a.lookup(PeerId(3), k, read)).collect();

        let b = make();
        let batched = b.lookup_many(PeerId(3), 0, &keys, |_, v| read(v));

        // Same results in input order (16 of the probed keys are absent).
        assert_eq!(one_by_one, batched);
        assert!(batched.iter().any(|r| r.is_none()));
        // Bit-identical traffic: every message/posting/byte/hop counter.
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn lookup_many_empty_keys_is_free() {
        let dht = dht_pgrid(4);
        let before = dht.snapshot();
        let out: Vec<Option<u32>> =
            dht.lookup_many(PeerId(0), 0, &[], |_, v: Option<&Vec<u32>>| {
                (v.map(|x| x[0]), 0, 0)
            });
        assert!(out.is_empty());
        assert_eq!(before, dht.snapshot());
    }

    #[test]
    fn concurrent_upserts_are_safe() {
        let dht = std::sync::Arc::new(dht_pgrid(8));
        std::thread::scope(|s| {
            for p in 0..8u64 {
                let dht = dht.clone();
                s.spawn(move || {
                    for i in 0..500u64 {
                        let key = KeyHash(hash_u64s(&[i % 50]));
                        dht.upsert(PeerId(p), key, 1, 4, Vec::new, |v| v.push(i as u32));
                    }
                });
            }
        });
        let s = dht.snapshot();
        assert_eq!(s.kind(MsgKind::IndexInsert).messages, 4000);
        assert_eq!(dht.num_keys(), 50);
    }

    #[test]
    fn stripe_parallel_sweep_covers_every_key_once() {
        let dht = std::sync::Arc::new(dht_pgrid(4));
        for i in 0..1000u64 {
            let key = KeyHash(hash_u64s(&[i, 11]));
            dht.upsert(PeerId(i % 4), key, 1, 4, Vec::new, |v| v.push(i as u32));
        }
        let seen = std::sync::Mutex::new(std::collections::HashSet::new());
        std::thread::scope(|scope| {
            for chunk in 0..4usize {
                let dht = &dht;
                let seen = &seen;
                scope.spawn(move || {
                    for s in (chunk..NUM_STRIPES).step_by(4) {
                        dht.for_each_stripe_mut(s, |k, v| {
                            v.push(0); // mutation while swept
                            assert!(seen.lock().unwrap().insert(*k), "key visited twice");
                        });
                    }
                });
            }
        });
        assert_eq!(seen.lock().unwrap().len(), 1000);
    }

    #[test]
    fn replicated_upsert_meters_r_copies_and_r_holders() {
        let r1 = dht_replicated(8, 1);
        let r3 = dht_replicated(8, 3);
        let key = KeyHash(hash_u64s(&[21]));
        for dht in [&r1, &r3] {
            dht.upsert(PeerId(2), key, 5, 20, Vec::new, |v| v.push(9));
        }
        let (s1, s3) = (r1.snapshot(), r3.snapshot());
        assert_eq!(s1.kind(MsgKind::IndexInsert).messages, 1);
        assert_eq!(s3.kind(MsgKind::IndexInsert).messages, 3, "R stored copies");
        assert_eq!(s3.kind(MsgKind::IndexInsert).postings, 15);
        // The copies land on 3 distinct peers.
        assert_eq!(r3.keys_per_peer().iter().sum::<usize>(), 3);
        assert_eq!(r1.keys_per_peer().iter().sum::<usize>(), 1);
        // Replicated residency is R times the single-copy residency.
        assert_eq!(
            r3.resident_bytes(|v| 4 * v.len() as u64),
            3 * r1.resident_bytes(|v| 4 * v.len() as u64)
        );
        // Lookups are unaffected while everyone is live: same metering.
        r1.lookup(PeerId(5), key, |v| ((), v.map_or(0, |v| v.len() as u64), 4));
        r3.lookup(PeerId(5), key, |v| ((), v.map_or(0, |v| v.len() as u64), 4));
        assert_eq!(
            r1.snapshot().kind(MsgKind::QueryLookup),
            r3.snapshot().kind(MsgKind::QueryLookup)
        );
    }

    #[test]
    fn replica_copies_report_deliveries_without_extra_routing() {
        let dht = dht_replicated(8, 2);
        let key = KeyHash(hash_u64s(&[4, 4]));
        let mut deliveries = Vec::new();
        dht.upsert_delivered(
            PeerId(1),
            key,
            1,
            4,
            Vec::new,
            |v| v.push(1),
            |d| deliveries.push(d),
        );
        assert_eq!(deliveries.len(), 2);
        assert_eq!(deliveries[0].source, PeerId(1));
        assert_eq!(deliveries[0].target, dht.overlay().responsible(key));
        // The copy is forwarded by the primary, one neighbor hop.
        assert_eq!(deliveries[1].source, deliveries[0].target);
        assert_eq!(deliveries[1].hops, 1);
        assert_eq!(deliveries[1].dead_skips, 0);
        assert_ne!(deliveries[1].target, deliveries[0].target);
    }

    #[test]
    fn fail_loses_sole_copy_at_r1_but_not_at_r2() {
        for (r, expect_lost) in [(1usize, true), (2usize, false)] {
            let mut dht = dht_replicated(8, r);
            for i in 0..100u64 {
                let key = KeyHash(hash_u64s(&[i, 13]));
                dht.upsert(PeerId(i % 8), key, 1, 4, Vec::new, |v| v.push(i as u32));
            }
            let victim = PeerId(3);
            let before = dht.snapshot();
            let loss = dht.fail_peers(&[victim], vol);
            if expect_lost {
                assert!(loss.keys_lost > 0, "R=1 must lose the victim's keys");
                assert!(loss.postings_lost > 0);
            } else {
                assert_eq!(loss.keys_lost, 0, "R=2 survives one crash");
                assert!(loss.keys_degraded > 0, "survivors are degraded");
            }
            assert_eq!(dht.num_keys(), 100 - loss.keys_lost as usize);
            // A crash sends no messages.
            assert!(before.same_counts(&dht.snapshot()));
            // Every surviving key is still readable (failover).
            for i in 0..100u64 {
                let key = KeyHash(hash_u64s(&[i, 13]));
                let found = dht.lookup(PeerId(0), key, |v| (v.cloned(), 0, 0));
                if !expect_lost {
                    assert_eq!(found.unwrap(), vec![i as u32], "key {i} unreachable");
                }
            }
        }
    }

    #[test]
    fn graceful_leave_never_loses_content_even_at_r1() {
        let mut dht = dht_replicated(8, 1);
        for i in 0..120u64 {
            let key = KeyHash(hash_u64s(&[i, 17]));
            dht.upsert(PeerId(i % 8), key, 1, 4, Vec::new, |v| v.push(i as u32));
        }
        let stats = dht.leave_peers(&[PeerId(2), PeerId(5)], vol);
        assert_eq!(stats.len(), 2);
        assert!(
            stats.iter().any(|s| s.keys_moved > 0),
            "departing peers must hand over their copies"
        );
        assert_eq!(dht.num_keys(), 120, "graceful leave loses nothing");
        let snap = dht.snapshot();
        assert_eq!(snap.kind(MsgKind::Maintenance).messages, 2);
        assert_eq!(
            snap.kind(MsgKind::Maintenance).postings,
            stats.iter().map(|s| s.postings_moved).sum::<u64>()
        );
        // All content is served by live peers, with failover hops charged.
        for i in 0..120u64 {
            let key = KeyHash(hash_u64s(&[i, 17]));
            let found = dht.lookup(PeerId(0), key, |v| (v.cloned(), 0, 0));
            assert_eq!(found.unwrap(), vec![i as u32], "key {i} lost after leave");
        }
        // Departed peers hold nothing.
        let per = dht.keys_per_peer();
        assert_eq!(per[2] + per[5], 0);
    }

    #[test]
    fn repair_rematerializes_missing_copies_and_is_idempotent() {
        let mut dht = dht_replicated(8, 2);
        for i in 0..100u64 {
            let key = KeyHash(hash_u64s(&[i, 19]));
            dht.upsert(PeerId(i % 8), key, 1, 4, Vec::new, |v| v.push(i as u32));
        }
        let loss = dht.fail_peers(&[PeerId(1)], vol);
        assert_eq!(loss.keys_lost, 0);
        assert!(loss.keys_degraded > 0);
        let mut copies = Vec::new();
        let stats = dht.repair_sweep(vol, |k, d, b| copies.push((k, d, b)));
        assert_eq!(stats.copies, loss.keys_degraded);
        assert_eq!(copies.len() as u64, stats.copies);
        // Canonical emission order and live, distinct endpoints.
        assert!(copies.windows(2).all(|w| w[0].0 .0 <= w[1].0 .0));
        for (_, d, _) in &copies {
            assert_ne!(d.source, PeerId(1));
            assert_ne!(d.target, PeerId(1));
            assert_ne!(d.source, d.target);
        }
        let snap = dht.snapshot();
        assert_eq!(snap.kind(MsgKind::Repair).messages, stats.copies);
        assert_eq!(snap.kind(MsgKind::Repair).postings, stats.postings);
        // Every key has two live holders again; a second sweep is a no-op.
        let again = dht.repair_sweep(vol, |_, _, _| panic!("repaired twice"));
        assert_eq!(again, RepairStats::default());
        // A second crash (of a different peer) now loses nothing either.
        let loss2 = dht.fail_peers(&[PeerId(4)], vol);
        assert_eq!(loss2.keys_lost, 0, "repair restored the redundancy");
    }

    /// A single-key [`Dht::lookup`] with its resolved [`Delivery`] read
    /// off the meter: the peer that served it, the request's hops and
    /// the failover timeouts it paid.
    fn lookup_metered(
        dht: &Dht<Vec<u32>>,
        from: PeerId,
        key: KeyHash,
    ) -> (Option<Vec<u32>>, Delivery) {
        let before = dht.snapshot();
        let found = dht.lookup(from, key, |v| (v.cloned(), 3, 12));
        let d = dht.snapshot().since(&before);
        let served = d.served_by_peer.iter().position(|&n| n == 1);
        let delivery = Delivery {
            source: from,
            target: dht.overlay().peers()[served.expect("one peer served")],
            hops: d.kind(MsgKind::QueryLookup).hops as u32,
            dead_skips: d.failover_timeouts as u32,
        };
        (found, delivery)
    }

    #[test]
    fn failover_lookup_charges_skips_and_serves_from_live_holder() {
        let mut dht = dht_replicated(4, 2);
        // One key whose owner we will crash.
        let key = KeyHash(hash_u64s(&[7, 7]));
        dht.upsert(PeerId(0), key, 3, 12, Vec::new, |v| v.extend([1, 2, 3]));
        let owner = dht.overlay().responsible(key);
        let healthy = lookup_metered(&dht, PeerId(0), key);
        assert_eq!(healthy.1.target, owner);
        assert_eq!(healthy.1.dead_skips, 0);
        dht.fail_peers(&[owner], vol);
        let before = dht.snapshot();
        let (found, delivery) = lookup_metered(&dht, PeerId(0), key);
        assert_eq!(found.unwrap(), vec![1, 2, 3], "replica must serve");
        assert_ne!(delivery.target, owner);
        assert!(delivery.dead_skips >= 1, "the dead owner was skipped");
        assert!(delivery.hops > healthy.1.dead_skips);
        // The failover exchange is still exactly one lookup + one response.
        let d = dht.snapshot().since(&before);
        assert_eq!(d.kind(MsgKind::QueryLookup).messages, 1);
        assert_eq!(d.kind(MsgKind::QueryResponse).messages, 1);
        assert!(
            d.kind(MsgKind::QueryLookup).hops >= 1,
            "failover hops are charged"
        );
    }

    #[test]
    fn join_wave_shares_one_scan_and_matches_single_joins_for_one() {
        let build = || {
            let dht = dht_pgrid(4);
            for k in 0..300u64 {
                let key = KeyHash(hash_u64s(&[k, 23]));
                dht.upsert(PeerId(k % 4), key, 2, 8, Vec::new, |v| v.push(k as u32));
            }
            dht
        };
        // Single join through both entry points: identical stats+traffic.
        let a = &mut build();
        let sa = a.add_peer(PeerId(50), vol);
        let mut b = build();
        let sb = b.add_peers(vec![PeerId(50)], vol);
        assert_eq!(vec![sa], sb);
        assert_eq!(a.snapshot(), b.snapshot());
        // A wave admits several peers with one scan; every key stays
        // reachable and each joiner took over a region.
        let mut c = build();
        let wave = c.add_peers(vec![PeerId(60), PeerId(61), PeerId(62)], vol);
        assert_eq!(wave.len(), 3);
        assert!(wave.iter().all(|s| s.keys_moved > 0));
        assert_eq!(c.num_keys(), 300);
        assert_eq!(c.snapshot().kind(MsgKind::Maintenance).messages, 3);
        for k in 0..300u64 {
            let key = KeyHash(hash_u64s(&[k, 23]));
            let found = c.lookup(PeerId(0), key, |v| (v.cloned(), 0, 0));
            assert_eq!(found.unwrap(), vec![k as u32], "key {k} lost in wave");
        }
    }

    #[test]
    #[should_panic(expected = "at least one live peer")]
    fn failing_everyone_is_rejected() {
        let mut dht = dht_pgrid(2);
        dht.fail_peers(&[PeerId(0), PeerId(1)], vol);
    }

    #[test]
    fn spread_lookups_rotate_over_replicas_at_r3() {
        let dht = dht_replicated(8, 3);
        let key = KeyHash(hash_u64s(&[31]));
        dht.upsert(PeerId(0), key, 1, 4, Vec::new, |v| v.push(1));
        let mut targets = std::collections::HashSet::new();
        for qid in 0..32u64 {
            let (_, deliveries) =
                dht.lookup_many_delivered(PeerId(5), qid, &[key], |_, v| (v.cloned(), 1, 4));
            targets.insert(deliveries[0].target);
        }
        // All three holders serve some of the stream, none monopolizes it.
        assert_eq!(targets.len(), 3, "spread must reach every replica");
        // Each pick is a pure function of (query_id, key): replaying a
        // query id reproduces its delivery exactly.
        let (_, a) = dht.lookup_many_delivered(PeerId(5), 7, &[key], |_, v| (v.cloned(), 1, 4));
        let (_, b) = dht.lookup_many_delivered(PeerId(5), 7, &[key], |_, v| (v.cloned(), 1, 4));
        assert_eq!(a, b);
    }

    #[test]
    fn spread_accounting_matches_walk_order_when_pick_is_forced() {
        // Crash the owner at R=2: one live holder remains, so the spread
        // pick is forced and must charge exactly what the single-key
        // walk-order path charges — same hops, same dead skips.
        let mut dht = dht_replicated(4, 2);
        let key = KeyHash(hash_u64s(&[7, 7]));
        dht.upsert(PeerId(0), key, 3, 12, Vec::new, |v| v.extend([1, 2, 3]));
        let owner = dht.overlay().responsible(key);
        dht.fail_peers(&[owner], vol);
        let before = dht.snapshot();
        let (_, walk) = lookup_metered(&dht, PeerId(0), key);
        let mid = dht.snapshot();
        let (_, spread) =
            dht.lookup_many_delivered(PeerId(0), 99, &[key], |_, v| (v.cloned(), 3, 12));
        assert_eq!(walk, spread[0]);
        assert!(walk.dead_skips >= 1, "the dead owner was skipped");
        // Bit-identical metering for the two paths.
        assert_eq!(mid.since(&before), dht.snapshot().since(&mid));
    }

    #[test]
    fn spread_is_a_no_op_at_r1_for_any_query_id() {
        let a = dht_pgrid(8);
        let b = dht_pgrid(8);
        let keys: Vec<KeyHash> = (0..40u64).map(|i| KeyHash(hash_u64s(&[i, 29]))).collect();
        for dht in [&a, &b] {
            for (i, &key) in keys.iter().enumerate() {
                dht.upsert(PeerId(i as u64 % 8), key, 1, 4, Vec::new, |v| {
                    v.push(i as u32)
                });
            }
        }
        let ra = a.lookup_many(PeerId(2), 0, &keys, |_, v| (v.cloned(), 1, 4));
        let rb = b.lookup_many(PeerId(2), 0xDEAD_BEEF, &keys, |_, v| (v.cloned(), 1, 4));
        assert_eq!(ra, rb);
        assert_eq!(
            a.snapshot(),
            b.snapshot(),
            "single holder: id cannot matter"
        );
    }

    #[test]
    fn hot_keys_gain_extras_then_decay_demotes_them() {
        let mut dht = dht_replicated(8, 1);
        for i in 0..50u64 {
            let key = KeyHash(hash_u64s(&[i, 37]));
            dht.upsert(PeerId(i % 8), key, 1, 4, Vec::new, |v| v.push(i as u32));
        }
        dht.set_hot_config(HotConfig {
            threshold: 4,
            extra: 1,
        });
        let hot_key = KeyHash(hash_u64s(&[3, 37]));
        for _ in 0..5 {
            dht.lookup(PeerId(1), hot_key, |v| {
                ((), v.map_or(0, |v| v.len() as u64), 4)
            });
        }
        let mut copies = Vec::new();
        let stats = dht.rebalance_hot(vol, |k, d, b| copies.push((k, d, b)));
        assert_eq!(stats.promoted, 1);
        assert_eq!(stats.copies, 1, "one extra copy at R=1, extra=1");
        assert_eq!(stats.demoted, 0);
        assert_eq!(copies.len(), 1);
        assert_eq!(copies[0].0, hot_key);
        let snap = dht.snapshot();
        assert_eq!(snap.kind(MsgKind::HotReplicate).messages, 1);
        dht.peek(hot_key, |v| assert!(v.is_some()));
        assert_eq!(
            dht.keys_per_peer().iter().sum::<usize>(),
            51,
            "50 + 1 extra"
        );
        // Counter decayed 5 → 2 < 4: the next sweep demotes, locally.
        let before = dht.snapshot();
        let stats2 = dht.rebalance_hot(vol, |_, _, _| panic!("demotion sends nothing"));
        assert_eq!(stats2.promoted, 0);
        assert_eq!(stats2.demoted, 1);
        assert!(before.same_counts(&dht.snapshot()));
        assert_eq!(dht.keys_per_peer().iter().sum::<usize>(), 50);
        // And with no hits at all, a further sweep does nothing.
        assert_eq!(
            dht.rebalance_hot(vol, |_, _, _| panic!("nothing left")),
            HotStats::default()
        );
    }

    #[test]
    fn sustained_popularity_keeps_extras_and_resweep_plans_nothing() {
        let mut dht = dht_replicated(8, 2);
        let key = KeyHash(hash_u64s(&[11, 41]));
        dht.upsert(PeerId(0), key, 1, 4, Vec::new, |v| v.push(7));
        dht.set_hot_config(HotConfig {
            threshold: 2,
            extra: 2,
        });
        for _ in 0..8 {
            dht.lookup(PeerId(1), key, |v| ((), v.map_or(0, |v| v.len() as u64), 4));
        }
        let s1 = dht.rebalance_hot(vol, |_, _, _| {});
        assert_eq!((s1.promoted, s1.copies), (1, 2), "R=2 grows to 4 holders");
        // 8 → 4 ≥ 2: still hot; extras already in place, nothing planned.
        let s2 = dht.rebalance_hot(vol, |_, _, _| panic!("idempotent while hot"));
        assert_eq!((s2.promoted, s2.copies, s2.demoted), (1, 0, 0));
        assert_eq!(dht.keys_per_peer().iter().sum::<usize>(), 4);
    }

    #[test]
    fn promoted_extras_survive_crash_repair_and_join() {
        let mut dht = dht_replicated(8, 1);
        let key = KeyHash(hash_u64s(&[13, 43]));
        dht.upsert(PeerId(0), key, 1, 4, Vec::new, |v| v.push(9));
        dht.set_hot_config(HotConfig {
            threshold: 1,
            extra: 1,
        });
        // Keep the key hot across the whole test (threshold 1, decay
        // floors at 1 hit per sweep via re-lookup).
        dht.lookup(PeerId(1), key, |v| ((), v.map_or(0, |v| v.len() as u64), 4));
        assert_eq!(dht.rebalance_hot(vol, |_, _, _| {}).copies, 1);
        // Crash the extra's holder: repair re-materializes the *extended*
        // set, under Repair (crash restoration), not HotReplicate.
        let holders: Vec<u32> = {
            let mut h = Vec::new();
            dht.for_each_stripe(stripe_of(key), |hs, k, _, _| {
                if *k == key.0 {
                    h = hs.to_vec();
                }
            });
            h
        };
        assert_eq!(holders.len(), 2);
        let extra_holder = PeerId(dht.overlay().peers()[holders[1] as usize].0);
        let owner = dht.overlay().responsible(key);
        let victim = if extra_holder == owner {
            dht.overlay().peers()[holders[0] as usize]
        } else {
            extra_holder
        };
        dht.fail_peers(&[victim], vol);
        let before = dht.snapshot();
        let repaired = dht.repair_sweep(vol, |_, _, _| {});
        assert_eq!(repaired.copies, 1, "repair restores the hot extra");
        let d = dht.snapshot().since(&before);
        assert_eq!(d.kind(MsgKind::Repair).messages, 1);
        assert_eq!(d.kind(MsgKind::HotReplicate).messages, 0);
        // A join wave re-derives placement without shedding the extra.
        dht.add_peers(vec![PeerId(90), PeerId(91)], vol);
        dht.repair_sweep(vol, |_, _, _| {});
        let mut held = 0;
        dht.for_each_stripe(stripe_of(key), |hs, k, _, _| {
            if *k == key.0 {
                held = hs.len();
            }
        });
        assert_eq!(held, 2, "extended set survives churn");
    }

    #[test]
    fn rebalance_disabled_counts_and_does_nothing() {
        let dht = dht_replicated(8, 2);
        let key = KeyHash(hash_u64s(&[17, 47]));
        dht.upsert(PeerId(0), key, 1, 4, Vec::new, |v| v.push(3));
        for _ in 0..100 {
            dht.lookup(PeerId(1), key, |v| ((), v.map_or(0, |v| v.len() as u64), 4));
        }
        let before = dht.snapshot();
        assert_eq!(
            dht.rebalance_hot(vol, |_, _, _| panic!("disabled")),
            HotStats::default()
        );
        assert!(before.same_counts(&dht.snapshot()));
    }

    #[test]
    fn gossip_views_pay_the_oracle_walk_until_converged_then_skip_the_dead_free() {
        let build = |gossip: bool| {
            let mut dht = dht_replicated(8, 3);
            if gossip {
                dht.enable_gossip(GossipConfig {
                    fanout: 2,
                    loss_prob: 0.0,
                    ..GossipConfig::default()
                });
            }
            for i in 0..40u64 {
                let key = KeyHash(hash_u64s(&[i, 53]));
                dht.upsert(PeerId(i % 8), key, 1, 4, Vec::new, |v| v.push(i as u32));
            }
            dht
        };
        let (mut g, mut o) = (build(true), build(false));
        let key = KeyHash(hash_u64s(&[5, 53]));
        let owner = g.overlay().responsible(key);
        let from = PeerId((owner.0 + 3) % 8);
        // One single-key lookup and eight spread probes; returns the
        // traffic they caused.
        let probe = |dht: &Dht<Vec<u32>>| {
            let before = dht.snapshot();
            assert_eq!(lookup_metered(dht, from, key).0, Some(vec![5]));
            let found = dht.lookup_many(from, 0, &[key; 8], |_, v| (v.cloned(), 1, 4));
            assert!(found.iter().all(|v| v.as_deref() == Some(&[5][..])));
            dht.snapshot().since(&before)
        };
        const PROBES: u64 = 9;
        for dht in [&mut g, &mut o] {
            dht.fail_peers(&[owner], vol);
        }
        // Stale views still believe in the dead owner: every probe
        // attempts it, exactly like the oracle walk.
        let (stale, twin) = (probe(&g), probe(&o));
        assert_eq!(
            stale.kind(MsgKind::QueryLookup),
            twin.kind(MsgKind::QueryLookup)
        );
        assert_eq!(stale.served_by_peer, twin.served_by_peer);
        assert_eq!(
            (stale.failover_timeouts, twin.failover_timeouts),
            (PROBES, PROBES)
        );
        // Gossip detects the crash, confirms it everywhere and repairs;
        // the twin repairs too, so both serve from the same holder sets.
        let mut repaired = false;
        for _ in 0..200 {
            if g.gossip().expect("enabled").converged(g.membership()) {
                break;
            }
            repaired |= g.gossip_round(vol, |_| {}, |_, _, _| {}).repair.is_some();
        }
        assert!(g.gossip().expect("enabled").converged(g.membership()));
        assert!(repaired, "universal confirmation triggers the repair");
        o.repair_sweep(vol, |_, _, _| {});
        let (fresh, twin) = (probe(&g), probe(&o));
        // The owner is now skipped free: one hop fewer per probe (request
        // and response), no timeouts, and the same live holders serve.
        let (f, t) = (
            fresh.kind(MsgKind::QueryLookup),
            twin.kind(MsgKind::QueryLookup),
        );
        assert_eq!((f.messages, f.hops + PROBES), (t.messages, t.hops));
        let (f, t) = (
            fresh.kind(MsgKind::QueryResponse),
            twin.kind(MsgKind::QueryResponse),
        );
        assert_eq!(f.hops + PROBES, t.hops);
        assert_eq!(
            (fresh.failover_timeouts, twin.failover_timeouts),
            (0, PROBES)
        );
        assert_eq!(fresh.served_by_peer, twin.served_by_peer);
        let owner_index = g.overlay().peer_index(owner);
        assert_eq!(fresh.served_by_peer[owner_index], 0);
        assert_eq!(fresh.served_by_peer.iter().sum::<u64>(), PROBES);
    }
}
