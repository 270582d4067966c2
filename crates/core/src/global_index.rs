//! The global key-to-document index in the structured P2P network.
//!
//! Stores, for every key that peers computed locally, the merged global
//! posting list and the running *global* document frequency. At the end of
//! each indexing round, hosting peers sweep their fraction of the index
//! (Section 3.1, "Computing the global index"):
//!
//! * keys with `df <= DFmax` stay discriminative — full posting list kept;
//! * keys with `df > DFmax` become NDKs — their lists are truncated to the
//!   top-`DFmax` "best elements", and every peer that contributed the key
//!   is notified so it can expand the key in the next round.
//!
//! [`GlobalIndex`] is a *client*: every operation builds a [`Request`]
//! (`InsertBatch` per inserting peer per round, `Notify` per sweep's NDK
//! notifications, `LookupMany` per query-plan level, `Sweep` for the
//! host-local work) or a [`Control`] (joins, departures, settings), hands
//! it to a pluggable [`NetworkBackend`] (see `hdk_p2p::rpc`) and reads the
//! [`Response`] — with no knowledge of which backend that is. The
//! hosting-peer application logic (how an insert merges, how a lookup
//! reads, what each sweep computes over a host's stripes) lives in
//! [`IndexStore`], this crate's [`StoreService`] implementation, which
//! every backend runs through the same handler — so in-process, simulated
//! and multi-process builds produce identical storage state and traffic
//! counts by construction.
//!
//! ## One posting format everywhere
//!
//! Postings live as [`CompressedPostings`] — the framed varint block —
//! from the moment a peer encodes its local batch until a querying peer
//! streams it through the ranker. Inserts merge block-to-block
//! (sorted streaming merge, never materializing a `Vec<Posting>`), the
//! byte meters report the *actual* block sizes that were stored or
//! transmitted, lookups hand back a refcounted clone of the resident
//! block, and exact `df` bookkeeping past truncation uses a
//! [`CompressedDocSet`] in place of the former `HashSet<u32>`.

use crate::classify::{classify, KeyClass};
use crate::config::StoreConfig;
use crate::key::{Key, MAX_KEY_SIZE};
use hdk_ir::{CompressedDocSet, CompressedPostings, Posting, PostingList};
use hdk_p2p::wire::{self, Wire, WireReader};
use hdk_p2p::{
    wire_enum, wire_record, wire_stats, Absorb, Addressed, Control, Dht, GossipConfig,
    GossipMetering, GossipOutcome, HotConfig, HotStats, InProc, InlineVec, LossStats, Membership,
    MigrationStats, NetworkBackend, Notification, PGrid, PeerId, RecoveryStats, RepairStats,
    Request, Response, SegmentStore, Store, StoreCodec, StoreService, Tier, TrafficSnapshot,
};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The peers that contributed a key's postings: one or two inline (most
/// keys have no more), longer lists in one heap slice.
pub type Contributors = InlineVec<PeerId, 2>;

/// State stored in the DHT per key.
///
/// Every stored key pays for this struct, so the rare parts stay small:
/// `contributors` is inline up to two peers and `seen_docs`, set on about
/// one key in a hundred, is boxed.
#[derive(Debug, Clone)]
pub struct KeyEntry {
    /// The key itself (guards against 64-bit hash collisions and lets local
    /// sweeps know key sizes).
    pub key: Key,
    /// Merged postings, resident in encoded form: full for DKs,
    /// top-`DFmax` for NDKs.
    pub postings: CompressedPostings,
    /// True global document frequency (keeps counting past truncation).
    pub df: u32,
    /// Peers that inserted postings for this key (notification targets),
    /// in first-insert order.
    pub contributors: Contributors,
    /// Set once the end-of-round sweep marked the key non-discriminative.
    pub is_ndk: bool,
    /// Documents already counted in `df`, kept only once the stored list
    /// is truncated (while the list is complete it *is* the doc set).
    /// Needed so incremental sessions never double-count a document.
    pub seen_docs: Option<Box<CompressedDocSet>>,
}

// One encoding for the segment log and the wire: key, block, df,
// contributors, NDK flag, doc-set — each part validated by its own decoder.
wire_record!(KeyEntry[19](
    key,
    postings,
    df,
    contributors,
    is_ndk,
    seen_docs
));

/// Result of a retrieval-time key lookup.
#[derive(Debug, Clone)]
pub struct KeyLookup {
    /// Stored postings (full for HDK, truncated for NDK) — a refcounted
    /// clone of the resident block, so lookups (and cache hits) copy no
    /// posting data.
    pub postings: CompressedPostings,
    /// Global document frequency.
    pub df: u32,
    /// Whether the key is non-discriminative.
    pub is_ndk: bool,
}

/// Per-posting quality used for NDK truncation: a saturating function of
/// `tf` (the paper keeps the "top-DFmax best elements"; any monotone
/// relevance proxy serves — this one is BM25's tf saturation with `k1=1.2`).
fn posting_quality(p: &Posting) -> f64 {
    f64::from(p.tf) / (f64::from(p.tf) + 1.2)
}

/// The hosting peer's application logic, plugged into any
/// [`NetworkBackend`]: how an insert payload merges into a stored
/// [`KeyEntry`], how a lookup reads one, and how large each payload is on
/// the wire. One implementation shared by every backend — which is what
/// guarantees that the in-process and simulated-network backends agree on
/// storage state and traffic counts bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct IndexStore {
    dfmax: u32,
}

impl IndexStore {
    /// Store logic with the given `DFmax` threshold (drives NDK
    /// re-truncation on post-classification inserts).
    pub fn new(dfmax: u32) -> Self {
        Self { dfmax }
    }
}

impl StoreService for IndexStore {
    type Value = KeyEntry;
    /// What one key's insert carries: the key (for collision guarding and
    /// sweep bookkeeping) plus its encoded posting block — the block *is*
    /// the wire payload, so the byte meter records its exact size.
    type Insert = (Key, CompressedPostings);
    type LookupKey = Key;
    type Lookup = KeyLookup;
    type Sweep = IndexSweep;
    type Swept = IndexSwept;

    fn insert_volume(&self, (_, block): &Self::Insert) -> (u64, u64) {
        (block.len() as u64, block.encoded_len() as u64)
    }

    fn fresh(&self, &(key, _): &Self::Insert) -> KeyEntry {
        KeyEntry {
            key,
            postings: CompressedPostings::new(),
            df: 0,
            contributors: Contributors::new(),
            is_ndk: false,
            seen_docs: None,
        }
    }

    /// Merges one insert into the stored entry, accumulating global `df`
    /// (counting distinct documents exactly, even across incremental
    /// sessions). The returned flag — "this key is already
    /// non-discriminative" — rides back in the insert acknowledgement, so
    /// late joiners learn NDK status without an extra notification
    /// round-trip.
    fn merge(&self, from: PeerId, (key, block): &Self::Insert, entry: &mut KeyEntry) -> bool {
        debug_assert_eq!(entry.key, *key, "DHT hash collision");
        // One streaming merge yields both the merged block and the count
        // of genuinely new documents; while the stored list is complete
        // that count is the exact df increment, afterwards the doc-set
        // keeps counting exactly.
        let (merged, new_in_list) = entry.postings.merge_counting(block);
        let new_docs = match &mut entry.seen_docs {
            Some(seen) => seen.merge_count_new(block.docs()),
            None => new_in_list,
        };
        entry.df += new_docs;
        entry.postings = merged;
        if entry.is_ndk {
            entry.postings = entry
                .postings
                .truncate_top_k(self.dfmax as usize, posting_quality);
        }
        if !entry.contributors.contains(&from) {
            entry.contributors.push(from);
        }
        entry.is_ndk
    }

    /// Builds one lookup response from a stored entry: the refcounted
    /// block clone plus the `(postings, bytes)` payload accounting for the
    /// response meter (a miss answers with an 8-byte "not found").
    fn read(&self, key: &Key, entry: Option<&KeyEntry>) -> (Option<KeyLookup>, u64, u64) {
        match entry {
            Some(e) => {
                debug_assert_eq!(e.key, *key, "DHT hash collision");
                let postings = e.postings.clone();
                let n = postings.len() as u64;
                let bytes = postings.encoded_len() as u64;
                (
                    Some(KeyLookup {
                        postings,
                        df: e.df,
                        is_ndk: e.is_ndk,
                    }),
                    n,
                    bytes,
                )
            }
            None => (None, 0, 8),
        }
    }

    fn migrate_volume(&self, entry: &KeyEntry) -> (u64, u64) {
        (
            entry.postings.len() as u64,
            entry.postings.encoded_len() as u64,
        )
    }

    fn sweep(&self, dht: &Dht<KeyEntry>, sweep: &IndexSweep) -> IndexSwept {
        let peers = dht.overlay().len();
        match sweep {
            IndexSweep::Classify { size } => {
                let (size, dfmax) = (*size as usize, self.dfmax);
                let per_stripe: Vec<Vec<(PeerId, Key)>> = (0..dht.num_stripes())
                    .into_par_iter()
                    .map(|stripe| {
                        let mut notes = Vec::new();
                        dht.for_each_stripe_mut(stripe, |_, entry| {
                            if entry.key.size() != size || entry.is_ndk {
                                return;
                            }
                            if classify(entry.df, dfmax) == KeyClass::NonDiscriminative {
                                entry.is_ndk = true;
                                // The stored list is still complete at transition
                                // time; remember its documents (as a compact
                                // sorted-delta set) so later (incremental) inserts
                                // keep `df` exact after truncation.
                                entry.seen_docs = Some(Box::new(CompressedDocSet::from_postings(
                                    &entry.postings,
                                )));
                                entry.postings = entry
                                    .postings
                                    .truncate_top_k(dfmax as usize, posting_quality);
                                for &peer in &entry.contributors {
                                    notes.push((peer, entry.key));
                                }
                            }
                        });
                        notes
                    })
                    .collect();
                IndexSwept::Classified(per_stripe.into_iter().flatten().collect())
            }
            IndexSweep::Peek(key) => IndexSwept::Peeked(dht.peek(key.dht_hash(), |e| e.cloned())),
            IndexSweep::Counts => {
                IndexSwept::Counts(fold_stripes(dht, IndexCounts::default, |stripe, counts| {
                    dht.for_each_stripe(stripe, |_, _, e, _| {
                        let s = e.key.size() - 1;
                        if e.is_ndk {
                            counts.ndk_keys[s] += 1;
                            counts.ndk_postings[s] += e.postings.len() as u64;
                        } else {
                            counts.hdk_keys[s] += 1;
                            counts.hdk_postings[s] += e.postings.len() as u64;
                        }
                    });
                }))
            }
            IndexSweep::StoredPostings => IndexSwept::StoredPostings(fold_stripes(
                dht,
                || vec![0u64; peers],
                |stripe, totals| {
                    dht.for_each_stripe(stripe, |holders, _, e, _| {
                        for &h in holders {
                            totals[h as usize] += e.postings.len() as u64;
                        }
                    });
                },
            )),
            IndexSweep::StoragePerPeer => IndexSwept::StoragePerPeer(fold_stripes(
                dht,
                || vec![PeerStorage::default(); peers],
                |stripe, totals| {
                    dht.for_each_stripe(stripe, |holders, _, e, tier| {
                        for &h in holders {
                            let t = &mut totals[h as usize];
                            t.postings += e.postings.len() as u64;
                            if let Some(s) = &e.seen_docs {
                                t.docset_docs += s.len() as u64;
                            }
                            match tier {
                                Tier::Hot => {
                                    t.posting_bytes += e.postings.encoded_len() as u64;
                                    if let Some(s) = &e.seen_docs {
                                        t.docset_bytes += s.encoded_len() as u64;
                                    }
                                }
                                Tier::Sealed { frame_bytes } => {
                                    t.sealed_bytes += frame_bytes;
                                }
                            }
                        }
                    });
                },
            )),
            IndexSweep::ResidentBytes => {
                IndexSwept::Bytes(dht.resident_bytes(|e| KeyEntryCodec.weight(e)))
            }
            IndexSweep::SealedBytes => IndexSwept::Bytes(dht.disk_bytes()),
            IndexSweep::SyncStorage => {
                dht.sync_storage();
                IndexSwept::Done
            }
            IndexSweep::Reassign {
                departed,
                custodian,
            } => {
                (0..dht.num_stripes()).into_par_iter().for_each(|stripe| {
                    dht.for_each_stripe_mut(stripe, |_, entry| {
                        let had = entry.contributors.len();
                        entry.contributors.retain(|p| !departed.contains(p));
                        if entry.contributors.len() != had
                            && !entry.contributors.contains(custodian)
                        {
                            entry.contributors.push(*custodian);
                        }
                    });
                });
                IndexSwept::Done
            }
            IndexSweep::Footprint => IndexSwept::Footprint(fold_stripes(
                dht,
                IndexFootprint::default,
                |stripe, total| {
                    let (tables, holders) = dht.stripe_structure_bytes(stripe);
                    total.table_bytes += tables.hot;
                    total.sealed_table_bytes += tables.sealed;
                    total.holder_spill_bytes += holders;
                    dht.for_each_stripe(stripe, |_, _, e, tier| {
                        total.keys += 1;
                        if tier != Tier::Hot {
                            return;
                        }
                        total.hot_keys += 1;
                        total.contributor_spill_bytes += e.contributors.spilled_bytes() as u64;
                        total.block_bytes += (ARC_HEADER_BYTES + e.postings.encoded_len()) as u64;
                        if let Some(seen) = &e.seen_docs {
                            total.docset_bytes += (std::mem::size_of::<CompressedDocSet>()
                                + ARC_HEADER_BYTES
                                + seen.encoded_len())
                                as u64;
                        }
                    });
                },
            )),
            IndexSweep::Entries => {
                let mut entries = Vec::new();
                for stripe in 0..dht.num_stripes() {
                    dht.for_each_stripe(stripe, |_, _, e, _| entries.push(e.clone()));
                }
                IndexSwept::Entries(entries)
            }
        }
    }
}

/// Sweeps every stripe of `dht` in parallel — each hosting peer sweeping
/// its own index fraction concurrently, as in the paper's protocol — and
/// folds the per-stripe partials in stripe order, so the result is
/// independent of thread count.
fn fold_stripes<T: Absorb + Send>(
    dht: &Dht<KeyEntry>,
    empty: impl Fn() -> T + Sync,
    visit: impl Fn(usize, &mut T) + Sync,
) -> T {
    let partials: Vec<T> = (0..dht.num_stripes())
        .into_par_iter()
        .map(|stripe| {
            let mut partial = empty();
            visit(stripe, &mut partial);
            partial
        })
        .collect();
    partials.into_iter().fold(empty(), |mut acc, partial| {
        acc.absorb(partial);
        acc
    })
}

/// The host-local sweeps of the index: work the paper runs "locally at
/// each hosting peer" — free, so never metered — shipped as
/// [`Request::Sweep`] and answered by [`IndexStore`] over the stripes of
/// whichever host receives it.
#[derive(Debug, Clone)]
pub enum IndexSweep {
    /// The end-of-round classification of the keys of `size`: marks the
    /// newly non-discriminative ones, truncates their lists, and reports
    /// one `(contributor, key)` pair per notification that is now due.
    Classify { size: u32 },
    /// Reads one entry.
    Peek(Key),
    /// Counts stored keys and postings, split HDK/NDK and by size.
    Counts,
    /// Sums stored postings per holding peer.
    StoredPostings,
    /// Sums the storage composition per holding peer, both tiers.
    StoragePerPeer,
    /// Sums resident (hot-tier) posting-storage bytes.
    ResidentBytes,
    /// Sums live sealed segment-log bytes on disk.
    SealedBytes,
    /// Seals every hot entry to the persistent tier.
    SyncStorage,
    /// Replaces `departed` peers by `custodian` in every stored
    /// contributor list.
    Reassign {
        departed: Vec<PeerId>,
        custodian: PeerId,
    },
    /// Copies out every stored entry (all stripes, both tiers).
    Entries,
    /// Sums where the index's in-memory bytes go.
    Footprint,
}

/// What an [`IndexSweep`] reports.
#[derive(Debug, Clone)]
pub enum IndexSwept {
    /// `(contributor, key)` pairs, in stripe order.
    Classified(Vec<(PeerId, Key)>),
    Peeked(Option<KeyEntry>),
    Counts(IndexCounts),
    StoredPostings(Vec<u64>),
    StoragePerPeer(Vec<PeerStorage>),
    /// A byte total (`ResidentBytes`, `SealedBytes`).
    Bytes(u64),
    /// An effect-only sweep ran.
    Done,
    Entries(Vec<KeyEntry>),
    Footprint(IndexFootprint),
}

wire_enum!(IndexSweep {
    0 => Classify { size },
    1 => Peek(key),
    2 => Counts,
    3 => StoredPostings,
    4 => StoragePerPeer,
    5 => ResidentBytes,
    6 => SealedBytes,
    7 => SyncStorage,
    8 => Reassign { departed, custodian },
    9 => Entries,
    10 => Footprint,
});
wire_enum!(IndexSwept {
    0 => Classified(notes),
    1 => Peeked(entry),
    2 => Counts(counts),
    3 => StoredPostings(totals),
    4 => StoragePerPeer(totals),
    5 => Bytes(total),
    6 => Done,
    7 => Entries(entries),
    8 => Footprint(footprint),
});

/// Hosts hold disjoint stripes: counts add, lists concatenate, and a
/// peeked key lives on at most one of them.
impl Absorb for IndexSwept {
    fn absorb(&mut self, other: Self) {
        match (self, other) {
            (IndexSwept::Classified(acc), IndexSwept::Classified(other)) => acc.extend(other),
            (IndexSwept::Peeked(acc @ None), IndexSwept::Peeked(other)) => *acc = other,
            (IndexSwept::Counts(acc), IndexSwept::Counts(other)) => acc.absorb(other),
            (IndexSwept::StoredPostings(acc), IndexSwept::StoredPostings(other)) => {
                acc.absorb(other)
            }
            (IndexSwept::StoragePerPeer(acc), IndexSwept::StoragePerPeer(other)) => {
                acc.absorb(other)
            }
            (IndexSwept::Bytes(acc), IndexSwept::Bytes(other)) => acc.absorb(other),
            (IndexSwept::Entries(acc), IndexSwept::Entries(other)) => acc.extend(other),
            (IndexSwept::Footprint(acc), IndexSwept::Footprint(other)) => acc.absorb(other),
            _ => {}
        }
    }
}

/// Segment-frame codec for [`KeyEntry`]: the canonical byte encoding a
/// sealed entry occupies in a per-stripe segment file, and the hot-tier
/// weight budget enforcement charges it.
///
/// The weight is **exactly** the resident-byte measure the engine reports
/// ([`GlobalIndex::resident_posting_bytes`]): the encoded posting block
/// plus the encoded `df` doc-set. Budget enforcement and memory reporting
/// therefore agree byte for byte — a build under budget *measures* under
/// budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyEntryCodec;

impl StoreCodec<KeyEntry> for KeyEntryCodec {
    fn encode(&self, entry: &KeyEntry, out: &mut Vec<u8>) {
        entry.put(out);
    }

    /// Total, like every [`Wire`] decoder: a frame that is truncated,
    /// carries an invalid key, block or doc-set, or has trailing garbage
    /// is `None`.
    fn decode(&self, bytes: &[u8]) -> Option<KeyEntry> {
        wire::decode(bytes).ok()
    }

    /// What [`IndexStore::read`] answers from: the key (the collision
    /// guard), the block, `df` and the NDK flag. The contributor list and
    /// the doc-set are bounds-checked and skipped — the entry comes back
    /// with neither — and the block is copied once, out of the frame. A
    /// payload is refused on every truncation and every trailing byte,
    /// like [`KeyEntryCodec::decode`].
    fn decode_lookup(&self, bytes: &[u8]) -> Option<KeyEntry> {
        let mut r = WireReader::new(bytes);
        let key = Key::get(&mut r).ok()?;
        let postings = CompressedPostings::get(&mut r).ok()?;
        let df = u32::get(&mut r).ok()?;
        let contributors = r.seq_len(PeerId::MIN_BYTES).ok()?;
        r.take(contributors * PeerId::MIN_BYTES).ok()?;
        let is_ndk = bool::get(&mut r).ok()?;
        if bool::get(&mut r).ok()? {
            r.bytes().ok()?;
        }
        r.done().ok()?;
        Some(KeyEntry {
            key,
            postings,
            df,
            contributors: Contributors::new(),
            is_ndk,
            seen_docs: None,
        })
    }

    fn weight(&self, entry: &KeyEntry) -> u64 {
        entry.postings.encoded_len() as u64
            + entry
                .seen_docs
                .as_ref()
                .map_or(0, |s| s.encoded_len() as u64)
    }
}

/// Builds the [`SegmentStore`] over [`KeyEntryCodec`] a [`StoreConfig`]
/// selects: unbounded for [`StoreConfig::Memory`], budgeted for
/// [`StoreConfig::Segment`]. Always `Some`.
pub fn build_entry_store(config: &StoreConfig) -> Option<Box<dyn Store<KeyEntry>>> {
    Some(entry_store(config))
}

fn entry_store(config: &StoreConfig) -> Box<dyn Store<KeyEntry>> {
    match config {
        StoreConfig::Memory => Box::new(SegmentStore::ephemeral(KeyEntryCodec, u64::MAX)),
        StoreConfig::Segment {
            dir: None,
            hot_bytes,
        } => Box::new(SegmentStore::ephemeral(KeyEntryCodec, *hot_bytes)),
        StoreConfig::Segment {
            dir: Some(dir),
            hot_bytes,
        } => Box::new(SegmentStore::at_dir(KeyEntryCodec, dir.clone(), *hot_bytes)),
    }
}

/// The in-process backend over the entry storage `store` selects — what
/// the engine runs by default, and what every peer process of the serving
/// tier runs over its share of the stripes.
pub(crate) fn local_backend(
    overlay: Box<PGrid>,
    dfmax: u32,
    replication: usize,
    store: &StoreConfig,
) -> InProc<IndexStore> {
    let logic = IndexStore::new(dfmax);
    InProc::with_store(overlay, logic, replication, entry_store(store))
}

/// The network the index speaks through, as a boxed trait object so the
/// backend is chosen at construction time.
pub type IndexBackend = Box<dyn NetworkBackend<IndexStore>>;

/// The data-plane message type of the index: [`Request`] at
/// [`IndexStore`]'s payload types.
pub type IndexRequest = hdk_p2p::RequestOf<IndexStore>;
/// The reply type of the index: [`Response`] at [`IndexStore`]'s payload
/// types.
pub type IndexResponse = hdk_p2p::ResponseOf<IndexStore>;

/// One peer's addressed insert batch as it appears inside an
/// [`Request::InsertBatch`] message.
type AddressedBatch = (PeerId, Vec<Addressed<(Key, CompressedPostings)>>);

/// The global index.
pub struct GlobalIndex {
    backend: IndexBackend,
    dfmax: u32,
    /// Postings inserted per key size (`IS_s` of Figure 5; slot `s-1`).
    inserted_by_size: [AtomicU64; MAX_KEY_SIZE],
}

impl GlobalIndex {
    /// Creates an empty index over `overlay` with threshold `dfmax`,
    /// dispatching through the in-process backend (the default).
    pub fn new(overlay: Box<PGrid>, dfmax: u32) -> Self {
        Self::with_backend(
            Box::new(InProc::new(overlay, IndexStore::new(dfmax))),
            dfmax,
        )
    }

    /// Creates an empty index speaking through an explicit backend
    /// (construct it with an [`IndexStore::new`] of the same `dfmax`).
    pub fn with_backend(backend: IndexBackend, dfmax: u32) -> Self {
        Self {
            backend,
            dfmax,
            inserted_by_size: Default::default(),
        }
    }

    /// The configured `DFmax`.
    pub fn dfmax(&self) -> u32 {
        self.dfmax
    }

    /// The routing state — overlay, membership, gossip views. Stored
    /// entries are reached through [`GlobalIndex::sweep`] only: on a
    /// remote backend they do not live here.
    fn dht(&self) -> &Dht<KeyEntry> {
        self.backend.dht()
    }

    /// Ships one host-local sweep and returns what the hosts reported.
    fn sweep(&self, sweep: IndexSweep) -> IndexSwept {
        match self.backend.call(&Request::Sweep(sweep)) {
            Response::Swept(swept) => swept,
            other => unreachable!("Sweep answered with {other:?}"),
        }
    }

    /// Ships one control-plane message.
    ///
    /// # Panics
    /// Panics when the message is refused: the engine only sends settings
    /// it validated and waves it checked, so a refusal is a caller bug.
    fn control(&mut self, control: Control) -> IndexResponse {
        match self.backend.control(control) {
            Response::Err(reason) => panic!("control message refused: {reason}"),
            response => response,
        }
    }

    /// Deliveries that failed in the backend's transport (always 0 on
    /// local backends).
    pub fn transport_errors(&self) -> u64 {
        self.backend.transport_errors()
    }

    /// The underlying overlay.
    pub fn overlay(&self) -> &PGrid {
        self.dht().overlay()
    }

    /// Virtual network time consumed so far (0 unless the backend
    /// simulates time).
    pub fn virtual_time_ns(&self) -> u64 {
        self.backend.virtual_time_ns()
    }

    /// Peer `from` inserts its local postings for `key` (convenience
    /// wrapper encoding on the way in; the round path transmits
    /// pre-encoded blocks via [`GlobalIndex::insert_block`]).
    pub fn insert(&self, from: PeerId, key: Key, postings: PostingList) -> bool {
        self.insert_block(from, key, &CompressedPostings::from_list(&postings))
    }

    /// Peer `from` inserts one encoded posting block for `key`: a
    /// single-item `InsertBatch` message. Returns the acknowledgement flag
    /// ("key is currently non-discriminative").
    pub fn insert_block(&self, from: PeerId, key: Key, block: &CompressedPostings) -> bool {
        let request = self.insert_request(vec![(from, vec![(key, block.clone())])]);
        let mut acks = self.send_insert(&request);
        acks.pop().expect("one batch").1.pop().expect("one item")
    }

    /// Addresses per-peer batches as an [`Request::InsertBatch`]
    /// message. Also advances the engine-side `IS_s` counters (the
    /// *sending* peers know what they inserted; no response needed for
    /// that).
    fn insert_request(
        &self,
        batches: Vec<(PeerId, Vec<(Key, CompressedPostings)>)>,
    ) -> IndexRequest {
        let batches: Vec<AddressedBatch> = batches
            .into_iter()
            .map(|(peer, batch)| {
                let items = batch
                    .into_iter()
                    .map(|(key, block)| {
                        self.inserted_by_size[key.size() - 1]
                            .fetch_add(block.len() as u64, Ordering::Relaxed);
                        Addressed {
                            route: key.dht_hash(),
                            body: (key, block),
                        }
                    })
                    .collect();
                (peer, items)
            })
            .collect();
        Request::InsertBatch { batches }
    }

    /// Ships an [`Request::InsertBatch`] and returns the per-key
    /// acknowledgement flags, aligned with its batches.
    fn send_insert(&self, request: &IndexRequest) -> Vec<(PeerId, Vec<bool>)> {
        match self.backend.call(request) {
            Response::Inserted { acks } => acks,
            other => unreachable!("InsertBatch answered with {other:?}"),
        }
    }

    /// Applies per-peer insert batches — one [`Request::InsertBatch`]
    /// message set — with a deterministic outcome. The engine calls it
    /// once per inserting peer of a round, in ascending [`PeerId`] order,
    /// so a round never holds more than a wave of peers' batches.
    ///
    /// `batches` holds `(peer, sorted key batch)` pairs in ascending
    /// [`PeerId`] order. The hosts partition the message by *stripe* (the
    /// lock shards of the underlying [`Dht`]) and apply each stripe's
    /// inserts in `(PeerId, Key)` order, so every [`KeyEntry`] — including
    /// its `contributors` order — comes out identical whatever the thread
    /// count, and whether a round's peers ship together or one by one.
    /// Traffic counters are sums of per-insert contributions and are
    /// therefore order-independent too.
    ///
    /// Returns, per inserting peer, the sorted keys whose insert
    /// acknowledgement reported "already non-discriminative" (late-joiner
    /// feedback in incremental sessions). The flags are mapped to keys
    /// through the request itself, which the backend only borrows.
    pub fn insert_round(
        &self,
        batches: Vec<(PeerId, Vec<(Key, CompressedPostings)>)>,
    ) -> HashMap<PeerId, Vec<Key>> {
        debug_assert!(
            batches.windows(2).all(|w| w[0].0 < w[1].0),
            "insert_round batches must arrive in ascending PeerId order"
        );
        let request = self.insert_request(batches);
        let acks = self.send_insert(&request);
        let Request::InsertBatch { batches } = &request else {
            unreachable!("insert_request builds an InsertBatch")
        };
        let mut feedback: HashMap<PeerId, Vec<Key>> = HashMap::new();
        for ((peer, items), (_, flags)) in batches.iter().zip(acks) {
            let ndk = items.iter().zip(flags).filter(|(_, flag)| *flag);
            let mut ndk = ndk.map(|(item, _)| item.body.0).peekable();
            if ndk.peek().is_some() {
                feedback.entry(*peer).or_default().extend(ndk);
            }
        }
        for keys in feedback.values_mut() {
            keys.sort_unstable();
        }
        feedback
    }

    /// End-of-round classification sweep over all keys of `size`: marks
    /// NDKs, truncates their lists, meters one notification per
    /// contributor, and returns the keys-to-expand per peer.
    ///
    /// The sweep itself ([`IndexSweep::Classify`]) runs at the hosts,
    /// stripe-parallel; the notifications it reports are merged and sorted
    /// here, so the result is independent of thread count, sweep order and
    /// how the stripes are spread over hosts.
    ///
    /// Keys already swept in a previous call keep their state (inserts only
    /// happen for the round's size, so re-sweeping is idempotent).
    pub fn classify_round(&self, size: usize) -> HashMap<PeerId, Vec<Key>> {
        let due = match self.sweep(IndexSweep::Classify { size: size as u32 }) {
            IndexSwept::Classified(due) => due,
            other => unreachable!("Classify answered with {other:?}"),
        };
        // Defensive liveness filter: contributor lists are rewritten to a
        // live custodian when peers depart or fail (see
        // [`GlobalIndex::reassign_contributors`]), so dead recipients
        // should never appear here — but a notification to a dead peer
        // would be an unanswerable message, so membership is consulted
        // anyway.
        let membership = self.membership();
        let overlay = self.overlay();
        let mut notifications: HashMap<PeerId, Vec<Key>> = HashMap::new();
        for (peer, key) in due {
            if !membership.is_live(overlay.peer_index(peer)) {
                continue;
            }
            notifications.entry(peer).or_default().push(key);
        }
        // Canonical order: determinism downstream, and the simulated
        // backend's FIFO/jitter model keys off each note's position.
        for keys in notifications.values_mut() {
            keys.sort_unstable();
        }
        // Deliver the sweep's notifications as one Notify message set in
        // (peer, key) order — one metered message per contributor per key
        // (key-sized payload, no postings), same-recipient notes queueing
        // FIFO on the simulated network.
        let mut ordered: Vec<(&PeerId, &Vec<Key>)> = notifications.iter().collect();
        ordered.sort_unstable_by_key(|(peer, _)| **peer);
        let notes: Vec<Notification> = ordered
            .into_iter()
            .flat_map(|(&peer, keys)| {
                keys.iter().map(move |key| Notification {
                    to: peer,
                    postings: 0,
                    bytes: 4 * key.size() as u64 + 2,
                })
            })
            .collect();
        if !notes.is_empty() {
            self.backend.call(&Request::Notify { notes });
        }
        notifications
    }

    /// Retrieval-time lookup of one key by peer `from`: a single-key
    /// [`Request::LookupMany`] message. The request routes to the
    /// responsible peer; the response carries the stored block back — the
    /// byte counter is its exact resident size, and the "copy" is a
    /// refcount bump on the shared block. The key's own hash serves as
    /// the spread attribute, so the serving replica is a pure function of
    /// the key (and the no-spread identity at `R = 1`).
    pub fn lookup(&self, from: PeerId, key: Key) -> Option<KeyLookup> {
        self.lookup_many(from, key.dht_hash().0, &[key])
            .pop()
            .expect("one response")
    }

    /// Batched retrieval-time lookup of one query-plan level by peer
    /// `from`, shipped as one [`Request::LookupMany`] message set: all
    /// `keys` resolve against the DHT with one read-lock acquisition per
    /// stripe (stripes in parallel) instead of one per key. Results come
    /// back in input order; each key is metered exactly like a
    /// [`GlobalIndex::lookup`] of its own (both paths share
    /// [`IndexStore::read`]), so traffic is bit-identical to the
    /// sequential loop.
    ///
    /// `query_id` is the replica-spread attribute: at `R > 1` each probe's
    /// serving holder is `hash(query_id, key)` over the live holder set,
    /// so distinct queries for the same hot key land on distinct replicas
    /// while identical messages stay identical (determinism at any thread
    /// count). At `R = 1` the value is irrelevant.
    pub fn lookup_many(&self, from: PeerId, query_id: u64, keys: &[Key]) -> Vec<Option<KeyLookup>> {
        let request = Request::LookupMany {
            from,
            query_id,
            keys: keys
                .iter()
                .map(|&key| Addressed {
                    route: key.dht_hash(),
                    body: key,
                })
                .collect(),
        };
        match self.backend.call(&request) {
            Response::Found { results } => results,
            other => unreachable!("LookupMany answered with {other:?}"),
        }
    }

    /// Unmetered inspection (tests, ablations, stored-size measurements).
    /// A host that cannot be reached reads as `None`.
    pub fn peek(&self, key: Key) -> Option<KeyEntry> {
        match self.sweep(IndexSweep::Peek(key)) {
            IndexSwept::Peeked(entry) => entry,
            other => unreachable!("Peek answered with {other:?}"),
        }
    }

    /// Stored postings per hosting peer — Figure 3's quantity, resolved
    /// per *holder*: an entry replicated at `R` peers is stored (and
    /// counted) at each of them. With `R = 1` and no churn the single
    /// holder is the responsible peer, reproducing the pre-replication
    /// figures bit for bit. Swept stripe-parallel; per-peer sums are
    /// order-independent.
    pub fn stored_postings_per_peer(&self) -> Vec<u64> {
        match self.sweep(IndexSweep::StoredPostings) {
            IndexSwept::StoredPostings(totals) => totals,
            other => unreachable!("StoredPostings answered with {other:?}"),
        }
    }

    /// Inserted postings per key size (`IS_s`, Figure 5). Slot `s-1`.
    pub fn inserted_by_size(&self) -> [u64; MAX_KEY_SIZE] {
        let mut out = [0u64; MAX_KEY_SIZE];
        for (i, a) in self.inserted_by_size.iter().enumerate() {
            out[i] = a.load(Ordering::Relaxed);
        }
        out
    }

    /// Counts of stored keys and postings, split HDK/NDK and by size.
    /// Swept stripe-parallel; the merged counts are order-independent sums.
    pub fn index_counts(&self) -> IndexCounts {
        match self.sweep(IndexSweep::Counts) {
            IndexSwept::Counts(counts) => counts,
            other => unreachable!("Counts answered with {other:?}"),
        }
    }

    /// Traffic so far.
    pub fn snapshot(&self) -> TrafficSnapshot {
        self.backend.snapshot()
    }

    /// Admits a wave of peers to the overlay ([`Control::Join`]): the
    /// index fractions they take over are handed over in **one shared
    /// stripe scan** (N joins, one scan — not one scan per joiner),
    /// metered as maintenance at the blocks' actual stored sizes. One
    /// [`MigrationStats`] per peer, in input order.
    pub fn add_peers(&mut self, peers: Vec<PeerId>) -> Vec<MigrationStats> {
        match self.control(Control::Join { peers }) {
            Response::Moved(stats) => stats,
            other => unreachable!("Join answered with {other:?}"),
        }
    }

    /// Graceful departure wave ([`Control::Leave`]): the peers hand every
    /// index copy they hold to the re-derived replica sets (metered as
    /// maintenance, the mirror of a join), then disappear from the
    /// replica walks. No content is lost, at any replication factor.
    pub fn leave_peers(&mut self, peers: &[PeerId]) -> Vec<MigrationStats> {
        let peers = peers.to_vec();
        match self.control(Control::Leave { peers }) {
            Response::Moved(stats) => stats,
            other => unreachable!("Leave answered with {other:?}"),
        }
    }

    /// Crash wave ([`Control::Fail`]): the peers' copies are destroyed
    /// without handover or messages. Entries whose last copy died are
    /// lost; the rest are degraded until [`GlobalIndex::repair`] runs.
    pub fn fail_peers(&mut self, peers: &[PeerId]) -> LossStats {
        let peers = peers.to_vec();
        match self.control(Control::Fail { peers }) {
            Response::Lost(stats) => stats,
            other => unreachable!("Fail answered with {other:?}"),
        }
    }

    /// The background repair sweep ([`Request::Repair`]): surviving
    /// replicas re-materialize the copies the re-derived replica sets are
    /// missing, one [`hdk_p2p::MsgKind::Repair`] message per copy.
    /// Idempotent.
    pub fn repair(&self) -> RepairStats {
        match self.backend.call(&Request::Repair) {
            Response::Repaired(stats) => stats,
            other => unreachable!("Repair answered with {other:?}"),
        }
    }

    /// Switches peer liveness from the membership oracle to gossiped
    /// per-peer views ([`hdk_p2p::GossipState`]) — one
    /// [`Control::EnableGossip`]. A backend that spreads the index over
    /// several hosts makes each run the same deterministic schedule and
    /// meter only its share of the probes.
    pub fn enable_gossip(&mut self, config: GossipConfig) {
        let metering = GossipMetering::All;
        match self.control(Control::EnableGossip { config, metering }) {
            Response::Done => {}
            other => unreachable!("EnableGossip answered with {other:?}"),
        }
    }

    /// Advances the gossip layer one round ([`Control::Gossip`]):
    /// deterministic probe schedule, digest merges,
    /// suspicion/confirmation transitions, and — when a death is
    /// universally confirmed — the triggered repair sweep. Panics unless
    /// [`GlobalIndex::enable_gossip`] ran.
    pub fn gossip_round(&mut self) -> GossipOutcome {
        let round = self.dht().gossip().map_or(0, |g| g.round());
        match self.control(Control::Gossip { round }) {
            Response::Gossiped(outcome) => outcome,
            other => unreachable!("Gossip answered with {other:?}"),
        }
    }

    /// Whether every live peer's view currently matches ground-truth
    /// membership (`None` until gossip is enabled).
    pub fn gossip_converged(&self) -> Option<bool> {
        let dht = self.dht();
        dht.gossip().map(|g| g.converged(dht.membership()))
    }

    /// `(observer, subject)` pairs where a live peer's view has falsely
    /// confirmed another live peer dead, per the ground-truth oracle
    /// (`None` until gossip is enabled). Empty under loss-free probing;
    /// transiently nonempty under probe loss until refutations land.
    pub fn gossip_false_positives(&self) -> Option<Vec<(u32, u32)>> {
        let dht = self.dht();
        dht.gossip().map(|g| g.false_positives(dht.membership()))
    }

    /// The popularity-driven replication pass ([`Request::Rebalance`]):
    /// snapshots the per-key hit counters, promotes keys whose count
    /// crossed the configured threshold by materializing extra replicas
    /// along the successor walk (one [`hdk_p2p::MsgKind::HotReplicate`]
    /// message per new copy), demotes keys whose popularity decayed, and
    /// halves all counters (the decay clock). Idempotent between reads;
    /// a no-op unless [`HotConfig::threshold`] is set.
    pub fn rebalance_hot(&self) -> HotStats {
        match self.backend.call(&Request::Rebalance) {
            Response::Rebalanced(stats) => stats,
            other => unreachable!("Rebalance answered with {other:?}"),
        }
    }

    /// Installs the popularity-replication knobs at every host of the
    /// index ([`Control::HotConfig`]; engine construction time).
    pub fn set_hot_config(&mut self, hot: HotConfig) {
        match self.control(Control::HotConfig(hot)) {
            Response::Done => {}
            other => unreachable!("HotConfig answered with {other:?}"),
        }
    }

    /// A restart wave ([`Control::Restart`]): each peer loses its hot
    /// (in-memory) tier and replays its own on-disk segment log —
    /// host-local disk I/O, never a message. Only meaningful over a
    /// tiered store ([`StoreConfig::Segment`]); on the unbounded default
    /// a restart simply loses the peers' copies, like a crash. Run
    /// [`GlobalIndex::repair`] afterwards to close any recovery gap.
    pub fn restart_peers(&mut self, peers: &[PeerId]) -> RecoveryStats {
        let peers = peers.to_vec();
        match self.control(Control::Restart { peers }) {
            Response::Recovered(stats) => stats,
            other => unreachable!("Restart answered with {other:?}"),
        }
    }

    /// Seals every hot entry to the segment logs (a graceful shutdown's
    /// flush). No-op on an unbounded store. Host-local, unmetered.
    pub fn sync_storage(&self) {
        self.sweep(IndexSweep::SyncStorage);
    }

    /// Live bytes in the on-disk segment tier, summed over every sealed
    /// frame at every holder (0 on an unbounded store).
    pub fn sealed_segment_bytes(&self) -> u64 {
        match self.sweep(IndexSweep::SealedBytes) {
            IndexSwept::Bytes(total) => total,
            other => unreachable!("SealedBytes answered with {other:?}"),
        }
    }

    /// The network's peer-liveness view.
    pub fn membership(&self) -> &Membership {
        self.dht().membership()
    }

    /// Rewrites the `contributors` lists of every stored entry, replacing
    /// the departed/failed peers with their document custodian, so future
    /// "became non-discriminative" notifications reach the peer that can
    /// actually act on them (it inherited the documents). A host-local
    /// metadata sweep — stripe-parallel, free, never a message — mirroring
    /// how the classification sweep itself runs locally at each hosting
    /// peer.
    pub fn reassign_contributors(&self, departed: &[PeerId], custodian: PeerId) {
        self.sweep(IndexSweep::Reassign {
            departed: departed.to_vec(),
            custodian,
        });
    }

    /// Total resident posting-storage bytes across the index: every
    /// stored block plus every `df` doc-set, at their exact encoded
    /// sizes (via the DHT's per-stripe accounting hook).
    pub fn resident_posting_bytes(&self) -> u64 {
        match self.sweep(IndexSweep::ResidentBytes) {
            IndexSwept::Bytes(total) => total,
            other => unreachable!("ResidentBytes answered with {other:?}"),
        }
    }

    /// Visits every stored entry once (all stripes, both tiers, every
    /// host) — a diagnostic sweep for whole-network invariants and
    /// samples of the stored entries. The entries are copied out first
    /// ([`IndexSweep::Entries`]).
    pub fn for_each_entry(&self, f: impl FnMut(&KeyEntry)) {
        match self.sweep(IndexSweep::Entries) {
            IndexSwept::Entries(entries) => entries.iter().for_each(f),
            other => unreachable!("Entries answered with {other:?}"),
        }
    }

    /// Per-peer storage composition — the memory-footprint analogue of
    /// Figure 3's per-peer posting volumes, resolved per holder like
    /// [`GlobalIndex::stored_postings_per_peer`] and split by tier:
    /// posting/doc-set counts cover both tiers (the *content* a peer
    /// hosts), resident byte fields cover only the hot tier, and sealed
    /// frames land in [`PeerStorage::sealed_bytes`]. Swept
    /// stripe-parallel; per-peer sums are order-independent.
    pub fn storage_per_peer(&self) -> Vec<PeerStorage> {
        match self.sweep(IndexSweep::StoragePerPeer) {
            IndexSwept::StoragePerPeer(totals) => totals,
            other => unreachable!("StoragePerPeer answered with {other:?}"),
        }
    }

    /// Where the index's in-memory bytes go: store tables, spilled holder
    /// and contributor lists, blocks and doc-sets (see [`IndexFootprint`]).
    pub fn footprint(&self) -> IndexFootprint {
        match self.sweep(IndexSweep::Footprint) {
            IndexSwept::Footprint(footprint) => footprint,
            other => unreachable!("Footprint answered with {other:?}"),
        }
    }
}

impl std::fmt::Debug for GlobalIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalIndex")
            .field("dfmax", &self.dfmax)
            .field("dht", self.dht())
            .finish()
    }
}

/// One peer's index storage, in exact encoded bytes, split by tier:
/// counts cover everything the peer hosts, `*_bytes` cover the hot
/// (in-memory) tier, `sealed_bytes` the on-disk segment tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerStorage {
    /// Stored postings (post-truncation), Figure 3's count — both tiers.
    pub postings: u64,
    /// Bytes of the hot-resident posting blocks.
    pub posting_bytes: u64,
    /// Documents tracked in `df` doc-sets (NDK entries only) — both tiers.
    pub docset_docs: u64,
    /// Bytes of the hot-resident doc-sets.
    pub docset_bytes: u64,
    /// Bytes of this peer's live sealed segment frames on disk (0 on the
    /// in-memory store, where everything is hot).
    pub sealed_bytes: u64,
}

wire_stats!(PeerStorage(
    postings,
    posting_bytes,
    docset_docs,
    docset_bytes,
    sealed_bytes
));

impl PeerStorage {
    /// Everything this peer keeps resident in memory for posting storage.
    pub fn resident_bytes(&self) -> u64 {
        self.posting_bytes + self.docset_bytes
    }

    /// What the same state would occupy decoded: a `Vec<Posting>` at
    /// 12 B/posting plus 4 B per tracked document id — the representation
    /// this refactor retired (hash-table overhead not even counted, so the
    /// comparison is conservative).
    pub fn decoded_baseline_bytes(&self) -> u64 {
        self.postings * std::mem::size_of::<Posting>() as u64
            + self.docset_docs * std::mem::size_of::<u32>() as u64
    }
}

/// The reference counts in front of a shared buffer's bytes (a posting
/// block or doc-set is one `Arc<[u8]>` allocation).
const ARC_HEADER_BYTES: usize = 2 * std::mem::size_of::<usize>();

/// Where the index's in-memory bytes go, summed over every host. Each
/// entry counts once, however many holders it has: one process stores one
/// copy. Only resident (hot) entries own value bytes; a tiered store's
/// sealed entries live in its segment logs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexFootprint {
    /// Stored keys, both tiers.
    pub keys: u64,
    /// Stored keys resident in memory: all of them, but under a tiered
    /// store's budget only its hot tier's.
    pub hot_keys: u64,
    /// The stores' tables of resident entries: slot storage, filled or
    /// not, and key indexes ([`hdk_p2p::TableBytes::hot`]).
    pub table_bytes: u64,
    /// A tiered store's sealed index: where each sealed key's frames sit
    /// ([`hdk_p2p::TableBytes::sealed`]; 0 in memory).
    pub sealed_table_bytes: u64,
    /// Heap slices of holder sets too long to sit inline in their slot.
    pub holder_spill_bytes: u64,
    /// Heap slices of contributor lists too long to sit inline.
    pub contributor_spill_bytes: u64,
    /// Posting blocks: encoded bytes plus each block's reference counts.
    pub block_bytes: u64,
    /// `df` doc-sets: the boxed set, its encoded bytes and reference
    /// counts.
    pub docset_bytes: u64,
}

wire_stats!(IndexFootprint(
    keys,
    hot_keys,
    table_bytes,
    sealed_table_bytes,
    holder_spill_bytes,
    contributor_spill_bytes,
    block_bytes,
    docset_bytes
));

impl IndexFootprint {
    /// Every in-memory byte the index accounts for.
    pub fn total_bytes(&self) -> u64 {
        self.table_bytes
            + self.sealed_table_bytes
            + self.holder_spill_bytes
            + self.contributor_spill_bytes
            + self.block_bytes
            + self.docset_bytes
    }

    /// [`IndexFootprint::total_bytes`] per stored key.
    pub fn bytes_per_key(&self) -> f64 {
        self.total_bytes() as f64 / self.keys.max(1) as f64
    }

    /// Resident-entry table bytes per resident key: a tiered store's
    /// hot-tier cost per hot key.
    pub fn hot_table_bytes_per_key(&self) -> f64 {
        self.table_bytes as f64 / self.hot_keys.max(1) as f64
    }

    /// Sealed-index bytes per sealed key.
    pub fn sealed_table_bytes_per_key(&self) -> f64 {
        self.sealed_table_bytes as f64 / (self.keys - self.hot_keys).max(1) as f64
    }
}

/// Stored-index composition, by key size (slot `s-1`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexCounts {
    /// Number of stored highly-discriminative keys.
    pub hdk_keys: [u64; MAX_KEY_SIZE],
    /// Postings stored under HDKs.
    pub hdk_postings: [u64; MAX_KEY_SIZE],
    /// Number of stored non-discriminative keys.
    pub ndk_keys: [u64; MAX_KEY_SIZE],
    /// Postings stored under NDKs (each <= DFmax).
    pub ndk_postings: [u64; MAX_KEY_SIZE],
}

wire_stats!(IndexCounts(hdk_keys, hdk_postings, ndk_keys, ndk_postings));

impl IndexCounts {
    /// Total stored postings.
    pub fn total_postings(&self) -> u64 {
        self.hdk_postings.iter().sum::<u64>() + self.ndk_postings.iter().sum::<u64>()
    }

    /// Total stored keys.
    pub fn total_keys(&self) -> u64 {
        self.hdk_keys.iter().sum::<u64>() + self.ndk_keys.iter().sum::<u64>()
    }
}

impl std::fmt::Display for IndexCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} keys / {} postings (",
            self.total_keys(),
            self.total_postings()
        )?;
        let mut first = true;
        for s in 0..MAX_KEY_SIZE {
            let total = self.hdk_keys[s] + self.ndk_keys[s];
            if total == 0 {
                continue;
            }
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(
                f,
                "size {}: {} HDK + {} NDK",
                s + 1,
                self.hdk_keys[s],
                self.ndk_keys[s]
            )?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdk_corpus::DocId;
    use hdk_text::TermId;

    fn index(peers: u64, dfmax: u32) -> GlobalIndex {
        GlobalIndex::new(
            Box::new(PGrid::new((0..peers).map(PeerId).collect())),
            dfmax,
        )
    }

    fn list(docs: &[u32]) -> PostingList {
        PostingList::from_unsorted(
            docs.iter()
                .map(|&d| Posting {
                    doc: DocId(d),
                    tf: 1 + d % 3,
                    doc_len: 80,
                })
                .collect(),
        )
    }

    fn key(terms: &[u32]) -> Key {
        Key::from_terms(&terms.iter().map(|&t| TermId(t)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn insert_accumulates_df_and_contributors() {
        let idx = index(4, 10);
        idx.insert(PeerId(0), key(&[1]), list(&[0, 1, 2]));
        idx.insert(PeerId(1), key(&[1]), list(&[5, 6]));
        let e = idx.peek(key(&[1])).unwrap();
        assert_eq!(e.df, 5);
        assert_eq!(e.postings.len(), 5);
        assert_eq!(e.contributors.len(), 2);
        assert!(!e.is_ndk);
    }

    #[test]
    fn classify_marks_and_truncates_ndk() {
        let idx = index(4, 3);
        idx.insert(PeerId(0), key(&[1]), list(&[0, 1, 2, 3, 4]));
        idx.insert(PeerId(1), key(&[2]), list(&[0, 1]));
        let notes = idx.classify_round(1);
        // Key {1} has df 5 > 3 -> NDK, truncated to 3; key {2} stays DK.
        let e1 = idx.peek(key(&[1])).unwrap();
        assert!(e1.is_ndk);
        assert_eq!(e1.postings.len(), 3);
        assert_eq!(e1.df, 5, "true df survives truncation");
        let e2 = idx.peek(key(&[2])).unwrap();
        assert!(!e2.is_ndk);
        assert_eq!(e2.postings.len(), 2);
        // Only the contributor of {1} is notified.
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[&PeerId(0)], vec![key(&[1])]);
    }

    #[test]
    fn classification_is_idempotent() {
        let idx = index(2, 2);
        idx.insert(PeerId(0), key(&[7]), list(&[0, 1, 2, 3]));
        let first = idx.classify_round(1);
        assert_eq!(first.len(), 1);
        let second = idx.classify_round(1);
        assert!(second.is_empty(), "already-swept keys must not re-notify");
    }

    #[test]
    fn sweep_only_touches_requested_size() {
        let idx = index(2, 1);
        idx.insert(PeerId(0), key(&[1]), list(&[0, 1]));
        idx.insert(PeerId(0), key(&[1, 2]), list(&[0, 1]));
        let notes = idx.classify_round(2);
        assert_eq!(notes[&PeerId(0)], vec![key(&[1, 2])]);
        // The single {1} is still unswept.
        assert!(!idx.peek(key(&[1])).unwrap().is_ndk);
    }

    #[test]
    fn lookup_meters_and_returns_state() {
        let idx = index(4, 2);
        idx.insert(PeerId(0), key(&[3]), list(&[0, 1, 2, 3]));
        idx.classify_round(1);
        let before = idx.snapshot();
        let found = idx.lookup(PeerId(2), key(&[3])).unwrap();
        assert!(found.is_ndk);
        assert_eq!(found.postings.len(), 2);
        assert_eq!(found.df, 4);
        let after = idx.snapshot();
        let d = after.since(&before);
        assert_eq!(d.kind(hdk_p2p::MsgKind::QueryLookup).messages, 1);
        assert_eq!(d.kind(hdk_p2p::MsgKind::QueryResponse).postings, 2);
        assert!(idx.lookup(PeerId(2), key(&[99])).is_none());
    }

    #[test]
    fn lookup_many_matches_sequential_lookups() {
        let build = || {
            let idx = index(4, 2);
            idx.insert(PeerId(0), key(&[1]), list(&[0, 1, 2, 3]));
            idx.insert(PeerId(1), key(&[2]), list(&[4]));
            idx.insert(PeerId(0), key(&[1, 2]), list(&[0, 4]));
            idx.classify_round(1);
            idx.classify_round(2);
            idx
        };
        let probes = [key(&[1]), key(&[2]), key(&[1, 2]), key(&[99])];

        let a = build();
        let sequential: Vec<_> = probes.iter().map(|&k| a.lookup(PeerId(3), k)).collect();
        let b = build();
        let batched = b.lookup_many(PeerId(3), 0, &probes);

        assert_eq!(sequential.len(), batched.len());
        for (s, m) in sequential.iter().zip(&batched) {
            match (s, m) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.df, y.df);
                    assert_eq!(x.is_ndk, y.is_ndk);
                    assert_eq!(x.postings, y.postings);
                }
                (None, None) => {}
                _ => panic!("batched lookup diverged from sequential"),
            }
        }
        assert_eq!(a.snapshot(), b.snapshot(), "traffic diverged");
    }

    #[test]
    fn is_counters_track_sizes() {
        let idx = index(2, 10);
        idx.insert(PeerId(0), key(&[1]), list(&[0, 1]));
        idx.insert(PeerId(0), key(&[1, 2]), list(&[0, 1, 2]));
        idx.insert(PeerId(1), key(&[1, 2, 3]), list(&[4]));
        let by_size = idx.inserted_by_size();
        assert_eq!(by_size[0], 2);
        assert_eq!(by_size[1], 3);
        assert_eq!(by_size[2], 1);
    }

    #[test]
    fn index_counts_split_correctly() {
        let idx = index(2, 2);
        idx.insert(PeerId(0), key(&[1]), list(&[0, 1, 2, 3])); // -> NDK
        idx.insert(PeerId(0), key(&[2]), list(&[0])); // -> HDK
        idx.insert(PeerId(0), key(&[2, 3]), list(&[0, 1])); // -> HDK size 2
        idx.classify_round(1);
        idx.classify_round(2);
        let c = idx.index_counts();
        assert_eq!(c.ndk_keys[0], 1);
        assert_eq!(c.ndk_postings[0], 2); // truncated to DFmax=2
        assert_eq!(c.hdk_keys[0], 1);
        assert_eq!(c.hdk_keys[1], 1);
        assert_eq!(c.total_keys(), 3);
        assert_eq!(c.total_postings(), 5);
        let stored: u64 = idx.stored_postings_per_peer().iter().sum();
        assert_eq!(stored, c.total_postings());
    }

    #[test]
    fn df_stays_exact_after_truncation() {
        // Once an entry is NDK (truncated), further inserts must neither
        // lose df (docs dropped from the stored list) nor double-count
        // docs re-announced by the same peer.
        let idx = index(2, 2);
        idx.insert(PeerId(0), key(&[5]), list(&[0, 1, 2, 3]));
        idx.classify_round(1);
        assert_eq!(idx.peek(key(&[5])).unwrap().df, 4);
        // New docs from another peer: df grows by exactly 2.
        idx.insert(PeerId(1), key(&[5]), list(&[7, 8]));
        let e = idx.peek(key(&[5])).unwrap();
        assert_eq!(e.df, 6);
        assert_eq!(e.postings.len(), 2, "stored list stays truncated");
        // Re-announcing already-counted docs (including ones truncated out
        // of the stored list) must not change df.
        idx.insert(PeerId(1), key(&[5]), list(&[0, 7]));
        assert_eq!(idx.peek(key(&[5])).unwrap().df, 6);
    }

    #[test]
    fn insert_reports_ndk_state() {
        let idx = index(2, 2);
        assert!(!idx.insert(PeerId(0), key(&[6]), list(&[0, 1, 2])));
        idx.classify_round(1);
        // A later insert (e.g. a joining peer) learns the NDK state from
        // the acknowledgement.
        assert!(idx.insert(PeerId(1), key(&[6]), list(&[9])));
    }

    #[test]
    fn entry_codec_round_trips_block_codec_tag() {
        // A block is self-describing, so the store codec must carry it
        // byte for byte: an entry sealed to disk decodes back unchanged.
        let entry = KeyEntry {
            key: key(&[1, 2]),
            postings: CompressedPostings::from_list(&list(&[3, 9, 400])),
            df: 3,
            contributors: Contributors::from(vec![PeerId(0), PeerId(7)]),
            is_ndk: false,
            seen_docs: Some(Box::new(CompressedDocSet::from_sorted_docs([
                DocId(3),
                DocId(9),
                DocId(400),
            ]))),
        };
        let mut bytes = Vec::new();
        KeyEntryCodec.encode(&entry, &mut bytes);
        let back = KeyEntryCodec.decode(&bytes).expect("decodes");
        assert_eq!(back.postings.as_bytes(), entry.postings.as_bytes());
        assert_eq!(
            back.seen_docs.as_ref().unwrap().as_bytes(),
            entry.seen_docs.as_ref().unwrap().as_bytes()
        );
        assert_eq!(back.df, 3);
        assert_eq!(back.contributors, entry.contributors);
    }

    #[test]
    fn truncation_keeps_highest_tf() {
        let idx = index(2, 2);
        let pl = PostingList::from_unsorted(vec![
            Posting {
                doc: DocId(0),
                tf: 1,
                doc_len: 10,
            },
            Posting {
                doc: DocId(1),
                tf: 9,
                doc_len: 10,
            },
            Posting {
                doc: DocId(2),
                tf: 5,
                doc_len: 10,
            },
        ]);
        idx.insert(PeerId(0), key(&[4]), pl);
        idx.classify_round(1);
        let e = idx.peek(key(&[4])).unwrap();
        let docs: Vec<u32> = e.postings.docs().map(|d| d.0).collect();
        assert_eq!(docs, [1, 2]);
    }
}
