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
//! [`Response`] as the payload it expects ([`Reply`]) — with no knowledge
//! of which backend that is. The hosting-peer application logic (how an
//! insert merges, how a lookup reads, what each sweep computes over a
//! host's stripes) lives in [`IndexStore`], this crate's [`StoreService`]
//! implementation, which every backend runs through the same handler — so
//! in-process, simulated and multi-process builds produce identical
//! storage state and traffic counts by construction.
//!
//! ## One posting format everywhere
//!
//! Postings live as [`CompressedPostings`] — the framed varint block —
//! from the moment a peer encodes its local batch until a querying peer
//! streams it through the ranker. Inserts merge block-to-block
//! (sorted streaming merge, never materializing a `Vec<Posting>`), the
//! byte meters report the *actual* block sizes that were stored or
//! transmitted, lookups hand back a clone of the resident block (a short
//! block sits inline, a long one is shared), and exact `df` bookkeeping
//! past truncation uses a
//! [`CompressedDocSet`] in place of the former `HashSet<u32>`.

use crate::classify::{classify, KeyClass};
use crate::config::StoreConfig;
use crate::key::{Key, MAX_KEY_SIZE};
use hdk_ir::codec::{read_known_varint, write_varint};
use hdk_ir::{CompressedDocSet, CompressedPostings, Posting, StoredBlock};
use hdk_p2p::wire::{put_bytes, Wire, WireError, WireReader, WireResult};
use hdk_p2p::{
    reply_types, wire_enum, wire_stats, Absorb, Addressed, Control, Dht, GossipConfig,
    GossipMetering, GossipOutcome, HotConfig, HotStats, InProc, LossStats, Membership,
    MigrationStats, NetworkBackend, Notification, PGrid, PeerId, Record, RecoveryStats,
    RepairStats, Reply, Request, Response, SegmentStore, Shared, Store, StoreCodec, StoreService,
    Tier, TrafficSnapshot,
};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// State stored in the DHT per key — as the value a write materializes.
/// The store keeps it as a record ([`Record`]) — in the hot tier's arena,
/// in a sealed frame and on the wire — read in place through a
/// [`KeyEntryRef`].
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
    pub contributors: Vec<PeerId>,
    /// Set once the end-of-round sweep marked the key non-discriminative.
    pub is_ndk: bool,
    /// Documents already counted in `df`, kept only once the stored list
    /// is truncated (while the list is complete it *is* the doc set).
    /// Needed so incremental sessions never double-count a document.
    pub seen_docs: Option<CompressedDocSet>,
}

// Every hot key pays for its row — the key hash and where its record sits
// — beside the record itself (`tests/alloc_budget.rs` measures the rest).
const _: () = assert!(hdk_p2p::HOT_ROW_BYTES == 16);

/// [`KeyEntry`] record flags: the key is non-discriminative.
const NDK: u8 = 1;
/// The posting block is shared: the record names it, not holds it.
const SHARED_BLOCK: u8 = 2;
/// The record carries a doc-set.
const DOCSET: u8 = 4;
/// The doc-set is shared.
const SHARED_DOCSET: u8 = 8;

/// Appends a block's part of a record: its max doc, then its bytes,
/// length-prefixed — or, for a shared block when there is a `shared` list,
/// nothing: the block is pushed onto the list and `true` returned, for
/// `put_record` to flag.
fn put_block(
    stored: StoredBlock<'_>,
    max_doc: u32,
    out: &mut Vec<u8>,
    shared: Option<&mut Vec<Arc<[u8]>>>,
) -> bool {
    write_varint(out, u64::from(max_doc));
    match (stored, shared) {
        (StoredBlock::Shared(bytes), Some(shared)) => {
            shared.push(Arc::clone(bytes));
            true
        }
        _ => {
            let bytes = stored.bytes();
            write_varint(out, bytes.len() as u64);
            out.extend_from_slice(bytes);
            false
        }
    }
}

/// An entry's record, in the order reads need it:
/// `[flags][key size][df][block][terms][contributors][doc-set]`, every
/// number a varint. The flags, key size and `df` lead, so a
/// classification sweep reads three bytes or so of a record to pick the
/// entries it rewrites, and a lookup reads the block next. A block is its
/// max doc, then its length and bytes — in the hot tier only when it has at
/// most [`hdk_ir::compressed::INLINE_BYTES`] encoded bytes (its length one
/// byte); a longer one is shared there, the block first, then the doc-set.
/// The flat record, a sealed frame's payload and the wire's, holds every
/// block inline and sets no shared flag.
impl Record for KeyEntry {
    type Ref<'a> = KeyEntryRef<'a>;

    fn put_record(&self, out: &mut Vec<u8>, mut shared: Option<&mut Vec<Arc<[u8]>>>) {
        let flags_at = out.len();
        out.push(0);
        out.push(self.key.size() as u8);
        write_varint(out, u64::from(self.df));
        let max_doc = self.postings.max_doc().map_or(0, |d| d.0);
        let mut flags = if self.is_ndk { NDK } else { 0 };
        if put_block(self.postings.stored(), max_doc, out, shared.as_deref_mut()) {
            flags |= SHARED_BLOCK;
        }
        for term in self.key.terms() {
            write_varint(out, u64::from(term.0));
        }
        write_varint(out, self.contributors.len() as u64);
        for peer in &self.contributors {
            write_varint(out, peer.0);
        }
        if let Some(seen) = &self.seen_docs {
            flags |= DOCSET;
            if put_block(seen.stored(), seen.max_doc(), out, shared) {
                flags |= SHARED_DOCSET;
            }
        }
        out[flags_at] = flags;
    }

    /// The record with its shared blocks written inline: the flags without
    /// their shared bits, the blocks' bytes, everything else as it is.
    fn put_flat(record: &[u8], shared: Shared<'_>, out: &mut Vec<u8>) {
        let entry = KeyEntryRef { record, shared };
        let (block, max_doc, df, terms_at) = entry.head();
        out.push(entry.flags() & (NDK | DOCSET));
        out.push(record[1]);
        write_varint(out, u64::from(df));
        put_block(block, max_doc, out, None);
        out.extend_from_slice(&record[terms_at..entry.docset_at()]);
        if let Some((seen, max_doc)) = entry.seen_docs_block() {
            put_block(seen, max_doc, out, None);
        }
    }

    fn check(record: &[u8]) -> bool {
        Flat { record, pos: 0 }.entry().is_some()
    }

    fn from_record(record: &[u8], shared: Shared<'_>) -> Self {
        KeyEntryRef { record, shared }.to_entry()
    }

    fn view<'a>(record: &'a [u8], shared: Shared<'a>) -> KeyEntryRef<'a> {
        KeyEntryRef { record, shared }
    }
}

/// A stored entry as a read sees it: its record read in place — trusting
/// the store's own bytes or a flat record [`Record::check`] accepted,
/// validating nothing and copying nothing but what a caller takes (a block
/// costs a 32-byte copy, a reference-count bump, or — for a long block of a
/// flat record — one allocation).
#[derive(Clone, Copy)]
pub struct KeyEntryRef<'a> {
    record: &'a [u8],
    shared: Shared<'a>,
}

impl<'a> KeyEntryRef<'a> {
    #[inline]
    fn varint(&self, pos: &mut usize) -> u64 {
        read_known_varint(self.record, pos)
    }

    fn flags(&self) -> u8 {
        self.record[0]
    }

    /// Whether the key is non-discriminative.
    pub fn is_ndk(&self) -> bool {
        self.flags() & NDK != 0
    }

    /// The key's size (its number of terms).
    pub fn key_size(&self) -> usize {
        usize::from(self.record[1])
    }

    /// The true global document frequency.
    pub fn df(&self) -> u32 {
        self.varint(&mut 2) as u32
    }

    /// A block's part of the record at `pos`: the block and its max doc.
    fn block_at(&self, pos: &mut usize, shared: bool, ordinal: usize) -> (StoredBlock<'a>, u32) {
        let max_doc = self.varint(pos) as u32;
        if shared {
            let bytes = self
                .shared
                .get(ordinal)
                .expect("a record names what it shares");
            return (StoredBlock::Shared(bytes), max_doc);
        }
        let len = self.varint(pos) as usize;
        let bytes = &self.record[*pos..*pos + len];
        *pos += len;
        (StoredBlock::Inline(bytes), max_doc)
    }

    /// The posting block as stored and its max doc, with `df` and the
    /// offset of the terms.
    fn head(&self) -> (StoredBlock<'a>, u32, u32, usize) {
        let mut pos = 2;
        let df = self.varint(&mut pos) as u32;
        let (stored, max_doc) = self.block_at(&mut pos, self.flags() & SHARED_BLOCK != 0, 0);
        (stored, max_doc, df, pos)
    }

    /// The posting block as stored, and its max doc.
    pub fn block(&self) -> (StoredBlock<'a>, u32) {
        let (stored, max_doc, _, _) = self.head();
        (stored, max_doc)
    }

    /// What a lookup answers: the posting block — a copy of a short one,
    /// a shared long one — and `df`.
    pub fn postings_and_df(&self) -> (CompressedPostings, u32) {
        let (stored, max_doc, df, _) = self.head();
        (CompressedPostings::from_stored(stored, max_doc), df)
    }

    /// The key's terms, read from `pos`.
    fn key_at(&self, pos: &mut usize) -> Key {
        let mut terms = [0u32; MAX_KEY_SIZE];
        let size = self.key_size();
        for term in &mut terms[..size] {
            *term = self.varint(pos) as u32;
        }
        Key::from_ascending(&terms[..size])
    }

    /// The key.
    pub fn key(&self) -> Key {
        self.key_at(&mut self.head().3)
    }

    /// The offset of the contributor list.
    fn contributors_at(&self) -> usize {
        let mut pos = self.head().3;
        for _ in 0..self.key_size() {
            self.varint(&mut pos);
        }
        pos
    }

    /// The contributing peers, in first-insert order.
    pub fn contributors(&self) -> impl Iterator<Item = PeerId> + 'a {
        let this = *self;
        let mut pos = self.contributors_at();
        let n = this.varint(&mut pos);
        (0..n).map(move |_| PeerId(this.varint(&mut pos)))
    }

    /// The offset of the doc-set's part (the record's end without one).
    fn docset_at(&self) -> usize {
        let mut pos = self.contributors_at();
        for _ in 0..self.varint(&mut pos) {
            self.varint(&mut pos);
        }
        pos
    }

    /// The `df` doc-set as stored, and its max doc.
    pub fn seen_docs_block(&self) -> Option<(StoredBlock<'a>, u32)> {
        let flags = self.flags();
        if flags & DOCSET == 0 {
            return None;
        }
        let ordinal = usize::from(flags & SHARED_BLOCK != 0);
        let shared = flags & SHARED_DOCSET != 0;
        Some(self.block_at(&mut self.docset_at(), shared, ordinal))
    }

    /// The whole entry, read in one pass.
    pub fn to_entry(&self) -> KeyEntry {
        let flags = self.flags();
        let (stored, max_doc, df, mut pos) = self.head();
        let key = self.key_at(&mut pos);
        // Room for one more: a merge adds at most one contributor.
        let n = self.varint(&mut pos) as usize;
        let mut contributors = Vec::with_capacity(n + 1);
        contributors.extend((0..n).map(|_| PeerId(self.varint(&mut pos))));
        let seen_docs = (flags & DOCSET != 0).then(|| {
            let ordinal = usize::from(flags & SHARED_BLOCK != 0);
            let (stored, max_doc) = self.block_at(&mut pos, flags & SHARED_DOCSET != 0, ordinal);
            CompressedDocSet::from_stored(stored, max_doc)
        });
        KeyEntry {
            key,
            postings: CompressedPostings::from_stored(stored, max_doc),
            df,
            contributors,
            is_ndk: flags & NDK != 0,
            seen_docs,
        }
    }
}

/// The validating reader of a flat [`KeyEntry`] record — bytes off disk or
/// the wire: a cursor whose every step is checked, so no input panics.
struct Flat<'a> {
    record: &'a [u8],
    pos: usize,
}

impl Flat<'_> {
    fn byte(&mut self) -> Option<u8> {
        let byte = *self.record.get(self.pos)?;
        self.pos += 1;
        Some(byte)
    }

    /// A varint of at most `max`, in its shortest form: the form
    /// `put_record` writes, so an accepted record re-encodes to itself.
    fn varint(&mut self, max: u64) -> Option<u64> {
        let (mut value, mut shift) = (0u64, 0);
        loop {
            let byte = self.byte()?;
            let bits = u64::from(byte & 0x7f);
            if shift > 63 || shift == 63 && bits > 1 || shift > 0 && byte == 0 {
                return None;
            }
            value |= bits << shift;
            if byte < 0x80 {
                return (value <= max).then_some(value);
            }
            shift += 7;
        }
    }

    /// A block's part: its max doc, which must be the last document of the
    /// block `check` validates, then its length and bytes.
    fn block(&mut self, check: fn(&[u8]) -> Option<u32>) -> Option<()> {
        let max_doc = self.varint(u32::MAX.into())?;
        let len = usize::try_from(self.varint(u64::MAX)?).ok()?;
        let bytes = self.record.get(self.pos..self.pos.checked_add(len)?)?;
        self.pos += len;
        (u64::from(check(bytes)?) == max_doc).then_some(())
    }

    /// The whole record: no unknown or shared flag, a key of 1 to
    /// [`MAX_KEY_SIZE`] strictly ascending terms, valid blocks, no
    /// trailing byte.
    fn entry(&mut self) -> Option<()> {
        let flags = self.byte()?;
        let size = usize::from(self.byte()?);
        if flags & !(NDK | DOCSET) != 0 || !(1..=MAX_KEY_SIZE).contains(&size) {
            return None;
        }
        self.varint(u32::MAX.into())?;
        self.block(CompressedPostings::check)?;
        let mut floor = 0;
        for _ in 0..size {
            floor = 1 + self.varint(u32::MAX.into()).filter(|&term| term >= floor)?;
        }
        for _ in 0..self.varint(u64::MAX)? {
            self.varint(u64::MAX)?;
        }
        if flags & DOCSET != 0 {
            self.block(CompressedDocSet::check)?;
        }
        (self.pos == self.record.len()).then_some(())
    }
}

/// The wire carries an entry (a [`IndexSwept::Peeked`] or
/// [`IndexSwept::Entries`] reply) as its flat record, length-prefixed, and
/// reads it through [`Record::check`].
impl Wire for KeyEntry {
    const MIN_BYTES: usize = 12;

    fn put(&self, buf: &mut Vec<u8>) {
        let mut flat = Vec::new();
        self.put_record(&mut flat, None);
        put_bytes(buf, &flat);
    }

    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        let record = r.bytes()?;
        (KeyEntry::check(record).then(|| KeyEntry::from_record(record, Shared::default())))
            .ok_or(WireError::Corrupt)
    }
}

/// Result of a retrieval-time key lookup.
#[derive(Debug, Clone)]
pub struct KeyLookup {
    /// Stored postings (full for HDK, truncated for NDK) — a clone of the
    /// resident block: a 32-byte copy of a short block, a reference-count
    /// bump on a long one.
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
            contributors: Vec::new(),
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

    /// Builds one lookup response from a stored entry's record: the
    /// block's clone plus the `(postings, bytes)` payload accounting for
    /// the response meter (a miss answers with an 8-byte "not found").
    fn read(&self, key: &Key, entry: Option<KeyEntryRef<'_>>) -> (Option<KeyLookup>, u64, u64) {
        match entry {
            Some(e) => {
                debug_assert_eq!(e.key(), *key, "DHT hash collision");
                let (postings, df) = e.postings_and_df();
                let n = postings.len() as u64;
                let bytes = postings.encoded_len() as u64;
                (
                    Some(KeyLookup {
                        postings,
                        df,
                        is_ndk: e.is_ndk(),
                    }),
                    n,
                    bytes,
                )
            }
            None => (None, 0, 8),
        }
    }

    fn migrate_volume(&self, entry: KeyEntryRef<'_>) -> (u64, u64) {
        let block = entry.block().0;
        (u64::from(block.count()), block.bytes().len() as u64)
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
                        // Only the entries that turn non-discriminative are
                        // materialized and rewritten.
                        let turns = |e: KeyEntryRef<'_>| {
                            e.key_size() == size
                                && !e.is_ndk()
                                && classify(e.df(), dfmax) == KeyClass::NonDiscriminative
                        };
                        dht.for_each_stripe_mut(stripe, turns, |_, entry| {
                            entry.is_ndk = true;
                            // The stored list is still complete at transition
                            // time; remember its documents (as a compact
                            // sorted-delta set) so later (incremental) inserts
                            // keep `df` exact after truncation.
                            entry.seen_docs =
                                Some(CompressedDocSet::from_postings(&entry.postings));
                            entry.postings = entry
                                .postings
                                .truncate_top_k(dfmax as usize, posting_quality);
                            for &peer in &entry.contributors {
                                notes.push((peer, entry.key));
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
                        let s = e.key_size() - 1;
                        let postings = u64::from(e.block().0.count());
                        if e.is_ndk() {
                            counts.ndk_keys[s] += 1;
                            counts.ndk_postings[s] += postings;
                        } else {
                            counts.hdk_keys[s] += 1;
                            counts.hdk_postings[s] += postings;
                        }
                    });
                }))
            }
            IndexSweep::StoragePerPeer => IndexSwept::StoragePerPeer(fold_stripes(
                dht,
                || vec![PeerStorage::default(); peers],
                |stripe, totals| {
                    dht.for_each_stripe(stripe, |holders, _, e, tier| {
                        let block = e.block().0;
                        let seen = e.seen_docs_block().map(|(s, _)| s);
                        for &h in holders {
                            let t = &mut totals[h as usize];
                            t.postings += u64::from(block.count());
                            if let Some(s) = seen {
                                t.docset_docs += u64::from(s.count());
                            }
                            match tier {
                                Tier::Hot => {
                                    t.posting_bytes += block.bytes().len() as u64;
                                    if let Some(s) = seen {
                                        t.docset_bytes += s.bytes().len() as u64;
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
            IndexSweep::SyncStorage => {
                dht.sync_storage();
                IndexSwept::Done
            }
            IndexSweep::Reassign {
                departed,
                custodian,
            } => {
                (0..dht.num_stripes()).into_par_iter().for_each(|stripe| {
                    let names_departed =
                        |e: KeyEntryRef<'_>| e.contributors().any(|p| departed.contains(&p));
                    dht.for_each_stripe_mut(stripe, names_departed, |_, entry| {
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
                    let tables = dht.stripe_table_bytes(stripe);
                    total.table_bytes += tables.hot;
                    total.record_bytes += tables.records;
                    total.dead_record_bytes += tables.dead_records;
                    total.sealed_table_bytes += tables.sealed;
                    dht.for_each_stripe(stripe, |_, _, e, tier| {
                        total.keys += 1;
                        if tier != Tier::Hot {
                            return;
                        }
                        total.hot_keys += 1;
                        total.block_bytes += e.block().0.heap_bytes() as u64;
                        if let Some((seen, _)) = e.seen_docs_block() {
                            total.docset_bytes += seen.heap_bytes() as u64;
                        }
                    });
                },
            )),
            IndexSweep::Entries => {
                let mut entries = Vec::new();
                for stripe in 0..dht.num_stripes() {
                    dht.for_each_stripe(stripe, |_, _, e, _| entries.push(e.to_entry()));
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
    /// Sums the storage composition per holding peer, both tiers.
    StoragePerPeer,
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
    StoragePerPeer(Vec<PeerStorage>),
    /// An effect-only sweep ran.
    Done,
    Entries(Vec<KeyEntry>),
    Footprint(IndexFootprint),
}

// Retired tags stay unassigned: `IndexSweep` 3, 5 and 6, `IndexSwept` 3
// and 5.
wire_enum!(IndexSweep {
    0 => Classify { size },
    1 => Peek(key),
    2 => Counts,
    4 => StoragePerPeer,
    7 => SyncStorage,
    8 => Reassign { departed, custodian },
    9 => Entries,
    10 => Footprint,
});
wire_enum!(IndexSwept {
    0 => Classified(notes),
    1 => Peeked(entry),
    2 => Counts(counts),
    4 => StoragePerPeer(totals),
    6 => Done,
    7 => Entries(entries),
    8 => Footprint(footprint),
});

// What each sweep's reply carries, as the payload `GlobalIndex` asks for.
reply_types!([] Response<KeyLookup, IndexSwept> {
    Vec<(PeerId, Key)> = Response::Swept(IndexSwept::Classified(due)) => due;
    Option<KeyEntry> = Response::Swept(IndexSwept::Peeked(entry)) => entry;
    IndexCounts = Response::Swept(IndexSwept::Counts(counts)) => counts;
    Vec<PeerStorage> = Response::Swept(IndexSwept::StoragePerPeer(totals)) => totals;
    SweepDone = Response::Swept(IndexSwept::Done) => SweepDone;
    Vec<KeyEntry> = Response::Swept(IndexSwept::Entries(entries)) => entries;
    IndexFootprint = Response::Swept(IndexSwept::Footprint(footprint)) => footprint;
});

/// The reply of an effect-only sweep ([`IndexSwept::Done`]).
struct SweepDone;

/// The store codec of [`KeyEntry`]: what its hot-tier budget enforcement
/// charges an entry.
///
/// The weight is **exactly** the resident-byte measure the engine reports
/// ([`GlobalIndex::resident_posting_bytes`]): the encoded posting block
/// plus the encoded `df` doc-set. Budget enforcement and memory reporting
/// therefore agree byte for byte — a build under budget *measures* under
/// budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyEntryCodec;

impl StoreCodec<KeyEntry> for KeyEntryCodec {
    fn weight(&self, entry: KeyEntryRef<'_>) -> u64 {
        let seen = entry.seen_docs_block().map(|(seen, _)| seen.bytes().len());
        (entry.block().0.bytes().len() + seen.unwrap_or(0)) as u64
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

    /// Ships one data-plane message and reads its reply as the payload
    /// `R` it carries.
    ///
    /// # Panics
    /// Panics when the message is refused or answered with another reply:
    /// the engine names only peers its overlay knows, so either is a bug.
    fn call<R: Reply<KeyLookup, IndexSwept>>(&self, request: &IndexRequest) -> R {
        match self.backend.call(request).map(R::from_response) {
            Ok(Ok(reply)) => reply,
            reply => {
                // A sweep in full; any other message by its cost category
                // (an insert batch's items would drown the reply).
                let message = (request.kind())
                    .map_or_else(|| format!("{request:?}"), |kind| format!("{kind:?}"));
                panic!("{message} answered with {:?}", reply.map(Result::err))
            }
        }
    }

    /// Ships one host-local sweep and returns what the hosts reported.
    fn sweep<R: Reply<KeyLookup, IndexSwept>>(&self, sweep: IndexSweep) -> R {
        self.call(&Request::Sweep(sweep))
    }

    /// [`GlobalIndex::call`] for a control-plane message: the engine only
    /// sends settings it validated and waves it checked.
    fn control<R: Reply<KeyLookup, IndexSwept>>(&mut self, control: Control) -> R {
        match self.backend.control(control.clone()).map(R::from_response) {
            Ok(Ok(reply)) => reply,
            reply => panic!("{control:?} answered with {:?}", reply.map(Result::err)),
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
        // The sending peers know what they inserted: the `IS_s` counters
        // advance as the keys are addressed, not from the reply.
        let address = |(key, block): (Key, CompressedPostings)| {
            self.inserted_by_size[key.size() - 1].fetch_add(block.len() as u64, Ordering::Relaxed);
            Addressed {
                route: key.dht_hash(),
                body: (key, block),
            }
        };
        let batches = (batches.into_iter())
            .map(|(peer, batch)| (peer, batch.into_iter().map(address).collect()))
            .collect();
        let request: IndexRequest = Request::InsertBatch { batches };
        let flags: Vec<bool> = self.call(&request);
        // The flags align with the items of the request built just above.
        let batches = match &request {
            Request::InsertBatch { batches } => &batches[..],
            _ => &[],
        };
        let items = (batches.iter())
            .flat_map(|(peer, items)| items.iter().map(move |item| (*peer, item.body.0)));
        let mut feedback: HashMap<PeerId, Vec<Key>> = HashMap::new();
        for ((peer, key), _) in items.zip(flags).filter(|(_, flag)| *flag) {
            feedback.entry(peer).or_default().push(key);
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
        let due: Vec<(PeerId, Key)> = self.sweep(IndexSweep::Classify { size: size as u32 });
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
            self.call::<()>(&Request::Notify { notes });
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
        self.call(&request)
    }

    /// Unmetered inspection (tests, ablations, stored-size measurements).
    /// A host that cannot be reached reads as `None`.
    pub fn peek(&self, key: Key) -> Option<KeyEntry> {
        self.sweep(IndexSweep::Peek(key))
    }

    /// Stored postings per hosting peer — Figure 3's quantity, resolved
    /// per *holder*: an entry replicated at `R` peers is stored (and
    /// counted) at each of them. With `R = 1` and no churn the single
    /// holder is the responsible peer, reproducing the pre-replication
    /// figures bit for bit. The [`PeerStorage::postings`] column of
    /// [`GlobalIndex::storage_per_peer`].
    pub fn stored_postings_per_peer(&self) -> Vec<u64> {
        self.storage_per_peer().iter().map(|p| p.postings).collect()
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
        self.sweep(IndexSweep::Counts)
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
        self.control(Control::Join { peers })
    }

    /// Graceful departure wave ([`Control::Leave`]): the peers hand every
    /// index copy they hold to the re-derived replica sets (metered as
    /// maintenance, the mirror of a join), then disappear from the
    /// replica walks. No content is lost, at any replication factor.
    pub fn leave_peers(&mut self, peers: &[PeerId]) -> Vec<MigrationStats> {
        self.control(Control::Leave {
            peers: peers.to_vec(),
        })
    }

    /// Crash wave ([`Control::Fail`]): the peers' copies are destroyed
    /// without handover or messages. Entries whose last copy died are
    /// lost; the rest are degraded until [`GlobalIndex::repair`] runs.
    pub fn fail_peers(&mut self, peers: &[PeerId]) -> LossStats {
        self.control(Control::Fail {
            peers: peers.to_vec(),
        })
    }

    /// The background repair sweep ([`Request::Repair`]): surviving
    /// replicas re-materialize the copies the re-derived replica sets are
    /// missing, one [`hdk_p2p::MsgKind::Repair`] message per copy.
    /// Idempotent.
    pub fn repair(&self) -> RepairStats {
        self.call(&Request::Repair)
    }

    /// Switches peer liveness from the membership oracle to gossiped
    /// per-peer views ([`hdk_p2p::GossipState`]) — one
    /// [`Control::EnableGossip`]. A backend that spreads the index over
    /// several hosts makes each run the same deterministic schedule and
    /// meter only its share of the probes.
    pub fn enable_gossip(&mut self, config: GossipConfig) {
        let metering = GossipMetering::All;
        self.control(Control::EnableGossip { config, metering })
    }

    /// Advances the gossip layer one round ([`Control::Gossip`]):
    /// deterministic probe schedule, digest merges,
    /// suspicion/confirmation transitions, and — when a death is
    /// universally confirmed — the triggered repair sweep. Panics unless
    /// [`GlobalIndex::enable_gossip`] ran.
    pub fn gossip_round(&mut self) -> GossipOutcome {
        let round = self.dht().gossip().map_or(0, |g| g.round());
        self.control(Control::Gossip { round })
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
        self.call(&Request::Rebalance)
    }

    /// Installs the popularity-replication knobs at every host of the
    /// index ([`Control::HotConfig`]; engine construction time).
    pub fn set_hot_config(&mut self, hot: HotConfig) {
        self.control(Control::HotConfig(hot))
    }

    /// A restart wave ([`Control::Restart`]): each peer loses its hot
    /// (in-memory) tier and replays its own on-disk segment log —
    /// host-local disk I/O, never a message. Only meaningful over a
    /// tiered store ([`StoreConfig::Segment`]); on the unbounded default
    /// a restart simply loses the peers' copies, like a crash. Run
    /// [`GlobalIndex::repair`] afterwards to close any recovery gap.
    pub fn restart_peers(&mut self, peers: &[PeerId]) -> RecoveryStats {
        self.control(Control::Restart {
            peers: peers.to_vec(),
        })
    }

    /// Seals every hot entry to the segment logs (a graceful shutdown's
    /// flush). No-op on an unbounded store. Host-local, unmetered.
    pub fn sync_storage(&self) {
        let SweepDone = self.sweep(IndexSweep::SyncStorage);
    }

    /// Live bytes in the on-disk segment tier, summed over every sealed
    /// frame at every holder (0 on an unbounded store):
    /// [`PeerStorage::sealed_bytes`] summed over
    /// [`GlobalIndex::storage_per_peer`].
    pub fn sealed_segment_bytes(&self) -> u64 {
        self.storage_per_peer().iter().map(|p| p.sealed_bytes).sum()
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
        let SweepDone = self.sweep(IndexSweep::Reassign {
            departed: departed.to_vec(),
            custodian,
        });
    }

    /// Total resident posting-storage bytes across the index: every
    /// hot-tier block plus every hot `df` doc-set, at their exact encoded
    /// sizes, once per holder — [`PeerStorage::resident_bytes`] summed
    /// over [`GlobalIndex::storage_per_peer`].
    pub fn resident_posting_bytes(&self) -> u64 {
        self.storage_per_peer()
            .iter()
            .map(PeerStorage::resident_bytes)
            .sum()
    }

    /// Visits every stored entry once (all stripes, both tiers, every
    /// host) — a diagnostic sweep for whole-network invariants and
    /// samples of the stored entries. The entries are copied out first
    /// ([`IndexSweep::Entries`]).
    pub fn for_each_entry(&self, f: impl FnMut(&KeyEntry)) {
        let entries: Vec<KeyEntry> = self.sweep(IndexSweep::Entries);
        entries.iter().for_each(f)
    }

    /// Per-peer storage composition — the memory-footprint analogue of
    /// Figure 3's per-peer posting volumes, resolved per holder like
    /// [`GlobalIndex::stored_postings_per_peer`] and split by tier:
    /// posting/doc-set counts cover both tiers (the *content* a peer
    /// hosts), resident byte fields cover only the hot tier, and sealed
    /// frames land in [`PeerStorage::sealed_bytes`]. Swept
    /// stripe-parallel; per-peer sums are order-independent.
    pub fn storage_per_peer(&self) -> Vec<PeerStorage> {
        self.sweep(IndexSweep::StoragePerPeer)
    }

    /// Where the index's in-memory bytes go: store tables, spilled holder
    /// and contributor lists, blocks and doc-sets (see [`IndexFootprint`]).
    pub fn footprint(&self) -> IndexFootprint {
        self.sweep(IndexSweep::Footprint)
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
    /// The stores' tables of resident entries: rows and key indexes, the
    /// record arenas' whole capacity — live, dead and spare bytes — and
    /// the slabs of shared slices ([`hdk_p2p::TableBytes::hot`]).
    pub table_bytes: u64,
    /// A tiered store's sealed index: where each sealed key's frames sit
    /// ([`hdk_p2p::TableBytes::sealed`]; 0 in memory).
    pub sealed_table_bytes: u64,
    /// Of `table_bytes`, the live records.
    pub record_bytes: u64,
    /// Of `table_bytes`, the superseded records awaiting compaction.
    pub dead_record_bytes: u64,
    /// Posting blocks too long to sit in their record: encoded bytes plus
    /// each block's reference counts.
    pub block_bytes: u64,
    /// `df` doc-sets too long to sit in their record: encoded bytes plus
    /// reference counts.
    pub docset_bytes: u64,
}

wire_stats!(IndexFootprint(
    keys,
    hot_keys,
    table_bytes,
    sealed_table_bytes,
    record_bytes,
    dead_record_bytes,
    block_bytes,
    docset_bytes
));

impl IndexFootprint {
    /// Every in-memory byte the index accounts for.
    pub fn total_bytes(&self) -> u64 {
        self.table_bytes + self.sealed_table_bytes + self.block_bytes + self.docset_bytes
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
    use hdk_ir::PostingList;
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

    /// Peer `from`'s one-key insert, shipped as a one-item round; `true`
    /// when the acknowledgement reports the key non-discriminative.
    fn insert(idx: &GlobalIndex, from: PeerId, key: Key, postings: PostingList) -> bool {
        let block = CompressedPostings::from_list(&postings);
        idx.insert_round(vec![(from, vec![(key, block)])])
            .contains_key(&from)
    }

    fn key(terms: &[u32]) -> Key {
        Key::from_terms(&terms.iter().map(|&t| TermId(t)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn insert_accumulates_df_and_contributors() {
        let idx = index(4, 10);
        insert(&idx, PeerId(0), key(&[1]), list(&[0, 1, 2]));
        insert(&idx, PeerId(1), key(&[1]), list(&[5, 6]));
        let e = idx.peek(key(&[1])).unwrap();
        assert_eq!(e.df, 5);
        assert_eq!(e.postings.len(), 5);
        assert_eq!(e.contributors.len(), 2);
        assert!(!e.is_ndk);
    }

    #[test]
    fn classify_marks_and_truncates_ndk() {
        let idx = index(4, 3);
        insert(&idx, PeerId(0), key(&[1]), list(&[0, 1, 2, 3, 4]));
        insert(&idx, PeerId(1), key(&[2]), list(&[0, 1]));
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
        insert(&idx, PeerId(0), key(&[7]), list(&[0, 1, 2, 3]));
        let first = idx.classify_round(1);
        assert_eq!(first.len(), 1);
        let second = idx.classify_round(1);
        assert!(second.is_empty(), "already-swept keys must not re-notify");
    }

    #[test]
    fn sweep_only_touches_requested_size() {
        let idx = index(2, 1);
        insert(&idx, PeerId(0), key(&[1]), list(&[0, 1]));
        insert(&idx, PeerId(0), key(&[1, 2]), list(&[0, 1]));
        let notes = idx.classify_round(2);
        assert_eq!(notes[&PeerId(0)], vec![key(&[1, 2])]);
        // The single {1} is still unswept.
        assert!(!idx.peek(key(&[1])).unwrap().is_ndk);
    }

    #[test]
    fn lookup_meters_and_returns_state() {
        let idx = index(4, 2);
        insert(&idx, PeerId(0), key(&[3]), list(&[0, 1, 2, 3]));
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
            insert(&idx, PeerId(0), key(&[1]), list(&[0, 1, 2, 3]));
            insert(&idx, PeerId(1), key(&[2]), list(&[4]));
            insert(&idx, PeerId(0), key(&[1, 2]), list(&[0, 4]));
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
        insert(&idx, PeerId(0), key(&[1]), list(&[0, 1]));
        insert(&idx, PeerId(0), key(&[1, 2]), list(&[0, 1, 2]));
        insert(&idx, PeerId(1), key(&[1, 2, 3]), list(&[4]));
        let by_size = idx.inserted_by_size();
        assert_eq!(by_size[0], 2);
        assert_eq!(by_size[1], 3);
        assert_eq!(by_size[2], 1);
    }

    #[test]
    fn index_counts_split_correctly() {
        // Once unreplicated, once at R = 3: the counts see each key once,
        // the per-peer storage sums see each of its R copies.
        let mut resident = Vec::new();
        for replication in [1, 3] {
            let overlay = Box::new(PGrid::new((0..4).map(PeerId).collect()));
            let backend = local_backend(overlay, 2, replication, &StoreConfig::Memory);
            let idx = GlobalIndex::with_backend(Box::new(backend), 2);
            insert(&idx, PeerId(0), key(&[1]), list(&[0, 1, 2, 3])); // -> NDK
            insert(&idx, PeerId(0), key(&[2]), list(&[0])); // -> HDK
            insert(&idx, PeerId(0), key(&[2, 3]), list(&[0, 1])); // -> HDK size 2
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
            assert_eq!(stored, replication as u64 * c.total_postings());
            // The resident total is the per-stripe sum of every hot copy.
            let mut by_stripe = 0u64;
            for stripe in 0..idx.dht().num_stripes() {
                idx.dht().for_each_stripe(stripe, |holders, _, e, tier| {
                    assert_eq!(tier, Tier::Hot);
                    by_stripe += KeyEntryCodec.weight(e) * holders.len() as u64;
                });
            }
            assert_eq!(idx.resident_posting_bytes(), by_stripe);
            resident.push(by_stripe);
        }
        assert!(resident[0] > 0);
        assert_eq!(resident[1], 3 * resident[0], "R = 3 holds three copies");
    }

    #[test]
    fn df_stays_exact_after_truncation() {
        // Once an entry is NDK (truncated), further inserts must neither
        // lose df (docs dropped from the stored list) nor double-count
        // docs re-announced by the same peer.
        let idx = index(2, 2);
        insert(&idx, PeerId(0), key(&[5]), list(&[0, 1, 2, 3]));
        idx.classify_round(1);
        assert_eq!(idx.peek(key(&[5])).unwrap().df, 4);
        // New docs from another peer: df grows by exactly 2.
        insert(&idx, PeerId(1), key(&[5]), list(&[7, 8]));
        let e = idx.peek(key(&[5])).unwrap();
        assert_eq!(e.df, 6);
        assert_eq!(e.postings.len(), 2, "stored list stays truncated");
        // Re-announcing already-counted docs (including ones truncated out
        // of the stored list) must not change df.
        insert(&idx, PeerId(1), key(&[5]), list(&[0, 7]));
        assert_eq!(idx.peek(key(&[5])).unwrap().df, 6);
    }

    #[test]
    fn insert_reports_ndk_state() {
        let idx = index(2, 2);
        assert!(!insert(&idx, PeerId(0), key(&[6]), list(&[0, 1, 2])));
        idx.classify_round(1);
        // A later insert (e.g. a joining peer) learns the NDK state from
        // the acknowledgement.
        assert!(insert(&idx, PeerId(1), key(&[6]), list(&[9])));
    }

    #[test]
    fn flat_record_round_trips_block_codec_tag() {
        // A block is self-describing, so the flat record must carry it
        // byte for byte: an entry sealed to disk reads back unchanged.
        let entry = KeyEntry {
            key: key(&[1, 2]),
            postings: CompressedPostings::from_list(&list(&[3, 9, 400])),
            df: 3,
            contributors: vec![PeerId(0), PeerId(7)],
            is_ndk: false,
            seen_docs: Some(CompressedDocSet::from_sorted_docs([
                DocId(3),
                DocId(9),
                DocId(400),
            ])),
        };
        let mut bytes = Vec::new();
        entry.put_record(&mut bytes, None);
        assert!(KeyEntry::check(&bytes));
        let back = KeyEntry::from_record(&bytes, Shared::default());
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
        insert(&idx, PeerId(0), key(&[4]), pl);
        idx.classify_round(1);
        let e = idx.peek(key(&[4])).unwrap();
        let docs: Vec<u32> = e.postings.docs().map(|d| d.0).collect();
        assert_eq!(docs, [1, 2]);
    }
}
