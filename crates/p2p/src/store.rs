//! Per-stripe entry storage under the DHT.
//!
//! [`crate::Dht`] owns routing, replication, metering and churn; *where
//! entry bytes live* is delegated to a [`Store`]. There is one
//! implementation, [`SegmentStore`], and its hot-tier budget is the only
//! thing that tells an in-memory store from a tiered one:
//!
//! * **Unbounded** (`hot_bytes` = `u64::MAX`) — the in-memory store
//!   every [`crate::Dht::new`] builds. Every entry stays hot; nothing is
//!   ever sealed or queued for sealing, no directory is made,
//!   [`Store::sync`] seals nothing, and a restart ([`Store::recover`])
//!   drops the restarting peers' copies.
//! * **Budgeted** — a tiered engine: entries start in the *hot* in-memory
//!   tier under a per-stripe byte budget; overflow is *sealed* into
//!   checksummed frames ([`hdk_ir::segment`]) appended to per-`(peer,
//!   stripe)` segment log files on disk, one frame per holding replica.
//!   The sealed tier is a packed stripe table of where each sealed
//!   entry's frames sit. A frame's payload is the value's *flat* record —
//!   its [`Record`] with every shared slice written inline — so a sealed
//!   entry is validated ([`Record::check`]), then viewed for reads and
//!   sweeps like a hot one, and materialized only where a caller needs a
//!   whole value. A value sweep ([`Store::scan_mut`]) that changes a
//!   sealed value un-seals it back into the hot tier; a holder sweep
//!   ([`Store::retain`]) writes its changes through to the logs instead.
//!   The log is what makes peers *restartable*:
//!   [`Store::recover`] replays a restarting peer's files, discards
//!   truncated/corrupt tails by checksum, and keeps exactly the copies
//!   whose latest sealed frame matches the entry's current version. Every
//!   log starts with a format header; a log of an earlier format is
//!   refused, not read.
//!
//! **The hot tier is one byte arena per stripe.** Each hot entry is one
//! varint-coded *record* in the stripe's arena: its holder set, then the
//! value's own [`Record`] bytes. A packed table of 16-byte rows — the key
//! hash, the record's offset and length — finds it, through the same
//! open-addressing index the sealed tier uses, and its positions are the
//! sweep order. Byte strings worth sharing
//! rather than copying (a long posting block, a doc-set) sit outside the
//! arena, one `Arc<[u8]>` each in the stripe's slab; the record names
//! their slab slots. Reads never decode a record into a value:
//! [`Store::get_many`], [`Store::scan_ref`], [`Store::retain`] and the
//! `pick` of [`Store::scan_mut`] hand out the value's borrowed view
//! ([`Record::Ref`]), which trusts the store's own bytes; a sealed entry's
//! view is the same view of its frame's flat record, once checked. A
//! callback that needs a whole [`Slot`] ([`Store::get`], [`Store::scan`],
//! an upsert) or value (the edits of [`Store::scan_mut`]) gets a fresh one
//! materialized from the record, as sealed entries get one from their flat
//! record. Churn builds none: a holder sweep rewrites only a hot record's
//! holder part, its value bytes and slab slots kept as they are. A seal writes
//! the flat record from the arena record and its shared slices
//! ([`Record::put_flat`]), materializing nothing. A write that changes an entry
//! appends its new record and counts the old bytes as dead — or, when the
//! length matches, copies it over the old one; a write that changes
//! nothing writes nothing. A stripe compacts its arena — live records
//! copied in position order into a fresh arena — once its dead bytes
//! exceed its live bytes, so an arena holds at most twice its live bytes.
//! Nothing of a write outlives it: a stripe keeps no slot or buffer
//! outside its tables.
//!
//! The trait is object-safe (`&mut dyn FnMut` callbacks) so `Dht` holds a
//! `Box<dyn Store<V>>` chosen at construction. Callbacks run under the
//! stripe's lock, mirroring the original inlined code.
//!
//! **Segment handles.** A `SegmentStore` keeps every `(peer, stripe)` log
//! it has written or replayed open for its whole life, as one `Segment`
//! (the file plus its append offset) inside the stripe's state. A sealed
//! read is one positional read (`read_exact_at`) into the reading
//! thread's frame buffer, checked and viewed in place; a seal one
//! positional write at the recorded tail, recovery replays and truncates
//! through the same handle; every open goes through one function,
//! `open_log`.
//! Positional I/O never touches the descriptor's cursor, so any number of
//! readers share a handle under the stripe's *shared* lock with no further
//! coordination, and the frames a reader is handed offsets of are never
//! rewritten — appends (under the exclusive lock) only extend the file.
//!
//! **Descriptor budget.** One descriptor per segment file that exists: at
//! most `peers ×` [`crate::NUM_STRIPES`] — 2 048 for 16 peers, 3 584 for
//! the paper's 28, above a stock 1 024 soft limit. Running out is handled,
//! not fatal: when an open fails with `EMFILE`/`ENFILE` the store closes
//! the handles it holds, keeps none for the rest of its life, and serves
//! that and every later access with an open per operation (what every
//! access cost before handles were kept). Nothing selects that state but
//! the error.
//!
//! **Determinism contract**: all engine-level mutations of one stripe
//! happen in a canonical order (parallelism is *across* stripes), so the
//! `SegmentStore`'s seal points, frame versions and file offsets are
//! reproducible run to run and independent of `RAYON_NUM_THREADS` — which
//! is what makes restart-recovery bit-reproducible.
//!
//! **Sweep order.** `scan`, `scan_ref`, `scan_mut` and `retain` walk the
//! hot tier in position order (insertion order, as permuted by removals:
//! an entry `retain` removes is replaced by the last one, visited next),
//! then the sealed tier in key order. No caller depends on the order —
//! sweeps fold order-free sums or sort what they collect — but the store
//! does: only the sealed walk un-seals entries (`scan_mut`) or appends
//! frames (`retain`), so walking it in key order keeps the seal queue,
//! versions and file offsets canonical.

use hdk_ir::codec::{read_known_varint, write_varint};
use hdk_ir::segment::{read_frame, write_frame, FrameRead, FRAME_HEADER_BYTES};
use parking_lot::RwLock;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io;
use std::marker::PhantomData;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// One stored entry: the value plus the peers currently holding a copy.
///
/// The value is stored once (the simulation's canonical state); the
/// holder set models *availability* — who would survive a crash with a
/// copy — not divergence between replicas (inserts reach every replica in
/// the same round, so replicas never disagree).
#[derive(Debug)]
pub struct Slot<V> {
    /// The entry's value.
    pub value: V,
    /// Peer indices holding a copy, ascending. Always non-empty and
    /// always a subset of the live peers (dead peers' copies are removed
    /// the moment they depart or fail).
    pub holders: Vec<u32>,
}

/// How a value is stored (see the module docs). Its one encoder,
/// [`Record::put_record`], writes the tail of its entry's record in the
/// stripe's arena, naming the byte strings it shares, or — without a slab
/// list — its *flat* record, every byte string inline: the payload of its
/// sealed frames and of the wire. [`Record::check`] is the one validating
/// reader of flat records: bytes from disk or the wire are read only once
/// it accepted them.
///
/// `from_record(put_record(v))` must reproduce `v` exactly, and
/// `put_record` must be deterministic: the store compares a rewritten
/// record with the old one to skip writes that change nothing.
pub trait Record: Sized + Send + Sync + 'static {
    /// What a read sees of a stored value without materializing it: a
    /// view borrowed from the record, or — for a value that costs nothing
    /// to rebuild — the value itself.
    type Ref<'a>;

    /// Appends the value's record bytes to `out`. With `shared`, a byte
    /// string worth sharing rather than copying is pushed there instead,
    /// and the record names it by its position ([`Shared::get`]); without,
    /// it is written inline.
    fn put_record(&self, out: &mut Vec<u8>, shared: Option<&mut Vec<Arc<[u8]>>>);

    /// Appends the flat record of the value `record` and `shared` spell,
    /// without materializing it. The default copies the record: right for
    /// a value that shares nothing.
    fn put_flat(record: &[u8], _shared: Shared<'_>, out: &mut Vec<u8>) {
        out.extend_from_slice(record);
    }

    /// Whether `record` is a flat record `put_record(.., None)` writes.
    /// Total: never panics, whatever the bytes.
    fn check(record: &[u8]) -> bool;

    /// The value a record spells: one the store wrote, or a flat record
    /// [`Record::check`] accepted. Nothing is validated.
    fn from_record(record: &[u8], shared: Shared<'_>) -> Self;

    /// The view of a record that [`Record::Ref`] names.
    fn view<'a>(record: &'a [u8], shared: Shared<'a>) -> Self::Ref<'a>;
}

/// The shared byte strings one record names: the `i`-th slice its
/// [`Record::put_record`] pushed is `get(i)`. The default names none, as a
/// flat record does.
#[derive(Clone, Copy, Default)]
pub struct Shared<'a> {
    slab: &'a [Option<Arc<[u8]>>],
    /// The record's slot numbers, `u32` LE each, in push order.
    slots: &'a [u8],
}

/// What a read sees of one stored entry without materializing it: the
/// holder set and the value's view.
pub struct Found<'a, V: Record> {
    /// Peer indices holding a copy, ascending.
    pub holders: &'a [u32],
    /// The value's view.
    pub value: V::Ref<'a>,
}

/// What one peer-restart recovered — and failed to recover — from the
/// segment logs. Summed across stripes (and peers) by
/// [`crate::Dht::restart_peers`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Intact frames replayed from the restarting peers' logs.
    pub frames_replayed: u64,
    /// Total bytes of those intact frames (sizes local replay I/O).
    pub bytes_replayed: u64,
    /// Truncated or checksum-corrupt tail frames discarded during replay.
    pub frames_discarded: u64,
    /// Replica copies whose current sealed frame survived on disk.
    pub copies_recovered: u64,
    /// Postings inside recovered copies (postings × surviving copies).
    pub postings_recovered: u64,
    /// Replica copies dropped: hot (RAM-only) at restart, sealed under a
    /// stale version, or past a discarded tail.
    pub copies_lost: u64,
    /// Entries whose *last* copy was lost (gone until re-published).
    pub keys_lost: u64,
    /// Postings inside those fully-lost entries (0 for entries lost in
    /// sealed form — an undecodable value cannot be counted).
    pub postings_lost: u64,
    /// Resident/payload bytes of fully-lost entries.
    pub bytes_lost: u64,
    /// Non-empty logs of an earlier format (no log header), left as they
    /// are: their copies count as lost, never as silently empty.
    pub logs_refused: u64,
}

/// Which tier an entry currently occupies (reported by [`Store::scan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Resident in memory (every entry of an unbounded store).
    Hot,
    /// Sealed to the segment logs; `frame_bytes` is the on-disk size of
    /// one replica's frame (checksum header included).
    Sealed {
        /// On-disk bytes of one holder's frame.
        frame_bytes: u64,
    },
}

/// How much of a [`SegmentStore`]'s hot-tier budget a value occupies.
pub trait StoreCodec<V: Record>: Send + Sync {
    /// Hot-tier bytes one copy of the value viewed occupies — use the same
    /// measure as the layer's resident-byte accounting so budget
    /// enforcement and reporting agree.
    fn weight(&self, value: V::Ref<'_>) -> u64;
}

/// The codec of the unbounded store [`crate::Dht::new`] builds: nothing is
/// weighed against its budget ([`SegmentStore`] asks an unbounded store's
/// codec nothing), so every value weighs 0.
pub(crate) struct Unweighed;

impl<V: Record> StoreCodec<V> for Unweighed {
    fn weight(&self, _: V::Ref<'_>) -> u64 {
        0
    }
}

/// The callback of a holder sweep ([`Store::retain`]): an entry's key, its
/// holder set to edit, and its value's view.
pub type EditHolders<'f, V> = dyn FnMut(u64, &mut Vec<u32>, <V as Record>::Ref<'_>) + 'f;

/// Per-stripe entry storage. All callbacks run under the stripe's lock;
/// `stripe` indexes `0..`[`crate::NUM_STRIPES`].
pub trait Store<V: Record>: Send + Sync {
    /// Reads one entry, materialized (shared lock).
    fn get(&self, stripe: usize, key: u64, f: &mut dyn FnMut(Option<&Slot<V>>));

    /// Reads a batch of keys under **one** shared-lock acquisition,
    /// invoking `f(position, entry)` per key in input order — the lookup
    /// path. A hot entry is read in place through its view, a sealed one
    /// through the view of its frame's flat record.
    fn get_many(&self, stripe: usize, keys: &[u64], f: &mut dyn FnMut(usize, Option<Found<'_, V>>));

    /// Merge-upsert: `default` builds a missing entry (value *and* initial
    /// holder set), then `update` runs on the entry (exclusive lock).
    fn upsert(
        &self,
        stripe: usize,
        key: u64,
        default: &mut dyn FnMut() -> Slot<V>,
        update: &mut dyn FnMut(&mut Slot<V>),
    );

    /// Iterates every entry of the stripe, materialized (shared lock),
    /// reporting each entry's current [`Tier`]. Sealed entries are read
    /// from their frames on the fly.
    fn scan(&self, stripe: usize, f: &mut dyn FnMut(u64, &Slot<V>, Tier));

    /// [`Store::scan`] through each entry's view: nothing is
    /// materialized.
    fn scan_ref(&self, stripe: usize, f: &mut dyn FnMut(u64, Found<'_, V>, Tier));

    /// Value sweep (exclusive lock): `f` edits the value of every entry
    /// `pick` chooses by its view, materialized. It never removes an entry
    /// and never touches a holder set; a sealed entry whose value changes
    /// is un-sealed into the hot tier.
    fn scan_mut(
        &self,
        stripe: usize,
        pick: &mut dyn FnMut(V::Ref<'_>) -> bool,
        f: &mut dyn FnMut(u64, &mut V),
    );

    /// Holder sweep (exclusive lock), the one way churn moves a copy: `f`
    /// edits every entry's holder set, left ascending, beside the entry's
    /// key and its value's view; an entry left with no holder is removed.
    /// No value is decoded: a hot entry's record gets a new holder part, a
    /// sealed entry's change is written through to the segment logs (a
    /// dropped holder's frame is forgotten, an added holder is appended
    /// the current frame).
    fn retain(&self, stripe: usize, f: &mut EditHolders<'_, V>);

    /// Number of entries stored in the stripe (each counted once).
    fn len(&self, stripe: usize) -> usize;

    /// In-memory bytes of the stripe's own tables, per tier (see
    /// [`TableBytes`]). What the shared slices of the hot tier's slab hold
    /// is not counted.
    fn table_bytes(&self, stripe: usize) -> TableBytes;

    /// Replays the segment logs of the restarting `peers` (peer indices)
    /// for one stripe. Their in-memory (hot) copies are gone; a sealed
    /// copy survives iff the peer's log still holds the entry's current
    /// frame intact (checksum-verified; truncated/corrupt tails are cut
    /// off and discarded). Copies that cannot be recovered are dropped
    /// from the holder sets — [`crate::Dht::repair_sweep`] re-materializes
    /// them from surviving replicas. `volume` sizes recovered/lost content
    /// for the stats.
    ///
    /// Keys the logs carry but the in-memory tiers have never seen are
    /// rebuilt into the sealed tier from the latest intact frames — the
    /// *cold* restart: a fresh process opened over a previous process's
    /// directory starts empty and rehydrates everything the shutdown
    /// sealed.
    fn recover(
        &self,
        stripe: usize,
        peers: &[u32],
        volume: &mut dyn FnMut(V::Ref<'_>) -> (u64, u64),
        stats: &mut RecoveryStats,
    );

    /// Seals every hot entry to the segment logs (nothing for an
    /// unbounded store, which never seals). After `sync` on a budgeted
    /// store, a restart of any peer set recovers every copy.
    fn sync(&self);
}

// ---------------------------------------------------------------------------
// Packed stripe tables
// ---------------------------------------------------------------------------

/// Entries per chunk of a [`Packed`] table.
const CHUNK: usize = 32;

/// A stripe's key → position index: open addressing with linear probing,
/// at most 3/4 full. A bucket is empty ([`PosIndex::EMPTY`]) or holds
/// `hash << 32 | position`, where `hash` is 32 well-mixed bits of the key:
/// its top bits are the home bucket, the whole of it a fingerprint that
/// settles most probes without touching the entry, and a position names
/// one entry — so a bucket can be found, moved and re-pointed from its own
/// bits. Removal shifts the following run back instead of leaving a
/// tombstone. 8 bytes per bucket, where a `HashMap<u64, u32>` spends 17.
struct PosIndex {
    buckets: Vec<u64>,
    /// Stored positions.
    len: usize,
}

impl PosIndex {
    const EMPTY: u64 = u64::MAX;

    fn new() -> Self {
        Self {
            buckets: Vec::new(),
            len: 0,
        }
    }

    /// The key's 32 mixed bits: the high half of a multiplicative hash.
    /// `KeyHash` values are hashes already, but a stripe shares their low
    /// bits, and a product's high half depends on every bit.
    #[inline]
    fn hash(key: u64) -> u32 {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as u32
    }

    #[inline]
    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    /// Home bucket of a hash: its top `log2(buckets)` bits.
    #[inline]
    fn home(&self, hash: u32) -> usize {
        ((u64::from(hash) << 32) >> (64 - self.buckets.len().trailing_zeros())) as usize
    }

    /// Position of `key`; `key_at` reads the key stored at a position and
    /// is asked only when a bucket's fingerprint matches.
    #[inline]
    fn find(&self, key: u64, key_at: impl Fn(u32) -> u64) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let hash = Self::hash(key);
        let mut i = self.home(hash);
        loop {
            let bucket = self.buckets[i];
            if bucket == Self::EMPTY {
                return None;
            }
            if (bucket >> 32) as u32 == hash && key_at(bucket as u32) == key {
                return Some(bucket as u32);
            }
            i = (i + 1) & self.mask();
        }
    }

    /// The bucket of `key`'s entry at `pos`: in the run of full buckets
    /// from the key's home, where positions are unique.
    fn bucket_of(&self, key: u64, pos: u32) -> Option<usize> {
        let (home, mask) = (self.home(Self::hash(key)), self.mask());
        (0..self.buckets.len())
            .map(|step| (home + step) & mask)
            .take_while(|&i| self.buckets[i] != Self::EMPTY)
            .find(|&i| self.buckets[i] as u32 == pos)
    }

    /// Indexes `key` (not yet indexed) at `pos`.
    fn insert(&mut self, key: u64, pos: u32) {
        if 4 * (self.len + 1) > 3 * self.buckets.len() {
            self.grow();
        }
        self.place(u64::from(Self::hash(key)) << 32 | u64::from(pos));
        self.len += 1;
    }

    /// Writes a bucket value into the first empty bucket from its home.
    fn place(&mut self, bucket: u64) {
        let mut i = self.home((bucket >> 32) as u32);
        while self.buckets[i] != Self::EMPTY {
            i = (i + 1) & self.mask();
        }
        self.buckets[i] = bucket;
    }

    fn grow(&mut self) {
        let size = (2 * self.buckets.len()).max(16);
        let old = std::mem::replace(&mut self.buckets, vec![Self::EMPTY; size]);
        for bucket in old.into_iter().filter(|&b| b != Self::EMPTY) {
            self.place(bucket);
        }
    }

    /// Re-points `key`'s bucket from position `from` to `to`.
    fn repoint(&mut self, key: u64, from: u32, to: u32) {
        if let Some(i) = self.bucket_of(key, from) {
            self.buckets[i] = (self.buckets[i] & !u64::from(u32::MAX)) | u64::from(to);
        }
    }

    /// Drops `key`'s bucket (position `pos`), then shifts every bucket of
    /// the run behind it that may move closer to its home back into the
    /// hole, so no probe ever stops short of its key.
    fn remove(&mut self, key: u64, pos: u32) {
        let Some(mut hole) = self.bucket_of(key, pos) else {
            return;
        };
        let mask = self.mask();
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let bucket = self.buckets[i];
            if bucket == Self::EMPTY {
                break;
            }
            let home = self.home((bucket >> 32) as u32);
            // The bucket may fill the hole iff the hole lies on its probe
            // path: no further from its home than the bucket itself is.
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.buckets[hole] = bucket;
                hole = i;
            }
        }
        self.buckets[hole] = Self::EMPTY;
        self.len -= 1;
    }
}

/// A packed `(key, entry)` table — the rows of each tier of a
/// [`SegmentStore`] stripe: entry `p` is `chunks[p / CHUNK][p % CHUNK]`,
/// and `index` holds every stored key's `p`.
///
/// **Layout.** The `(key, entry)` pairs sit back to back in chunks of 32 —
/// only the last chunk is partly filled, so a table's slack is under one
/// chunk, and past the first chunk (which grows by doubling) growing never
/// copies an entry — and an index of 8-byte buckets maps each key to its
/// position. A hash table holding the slots in its buckets ran at about
/// half load, so every stored key paid for a second, empty slot-sized
/// bucket; here the empty buckets are the index's. Removing an entry moves
/// the last entry into its place and re-points that entry's index bucket.
struct Packed<T> {
    index: PosIndex,
    chunks: Vec<Vec<(u64, T)>>,
}

impl<T> Packed<T> {
    fn new() -> Self {
        Self {
            index: PosIndex::new(),
            chunks: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.index.len
    }

    #[inline]
    fn at(&self, pos: u32) -> &(u64, T) {
        let pos = pos as usize;
        &self.chunks[pos / CHUNK][pos % CHUNK]
    }

    #[inline]
    fn at_mut(&mut self, pos: u32) -> &mut (u64, T) {
        let pos = pos as usize;
        &mut self.chunks[pos / CHUNK][pos % CHUNK]
    }

    #[inline]
    fn find(&self, key: u64) -> Option<u32> {
        self.index.find(key, |pos| self.at(pos).0)
    }

    #[inline]
    fn get(&self, key: u64) -> Option<&T> {
        self.find(key).map(|pos| &self.at(pos).1)
    }

    #[inline]
    fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let pos = self.find(key)?;
        Some(&mut self.at_mut(pos).1)
    }

    #[inline]
    fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// The position of `key`, appending `default()` first when missing.
    fn position_or_insert(&mut self, key: u64, default: impl FnOnce() -> T) -> u32 {
        if let Some(pos) = self.find(key) {
            return pos;
        }
        // Positions stay far below `u32::MAX`, the empty bucket's: 2^32
        // entries in one stripe would be 600 GB of slots.
        let pos = self.len() as u32;
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push((key, default())),
            _ => {
                // The first chunk grows by doubling, so a table of a few
                // entries (a small hot tier) holds a few slots, not 32;
                // later chunks are allocated whole, so filling them leaves
                // no freed fragments behind.
                let capacity = if self.chunks.is_empty() { 1 } else { CHUNK };
                let mut chunk = Vec::with_capacity(capacity);
                chunk.push((key, default()));
                self.chunks.push(chunk);
            }
        }
        self.index.insert(key, pos);
        pos
    }

    /// Stores `value` under `key`, which must not be stored yet.
    fn insert(&mut self, key: u64, value: T) {
        let pos = self.position_or_insert(key, || value);
        debug_assert_eq!(pos as usize + 1, self.len(), "key was already stored");
    }

    /// Removes `key`'s entry, if any.
    fn remove(&mut self, key: u64) -> Option<T> {
        let pos = self.find(key)?;
        self.swap_remove(pos).map(|(_, value)| value)
    }

    /// Removes the entry at `pos`, moving the last entry into its place.
    fn swap_remove(&mut self, pos: u32) -> Option<(u64, T)> {
        let last = self.chunks.last_mut().and_then(Vec::pop)?;
        if self.chunks.last().is_some_and(Vec::is_empty) {
            self.chunks.pop();
        }
        let last_pos = (self.len() - 1) as u32;
        if pos == last_pos {
            self.index.remove(last.0, pos);
            Some(last)
        } else {
            let removed = std::mem::replace(self.at_mut(pos), last);
            self.index.remove(removed.0, pos);
            let moved = self.at(pos).0;
            self.index.repoint(moved, last_pos, pos);
            Some(removed)
        }
    }

    fn iter(&self) -> impl Iterator<Item = &(u64, T)> {
        self.chunks.iter().flatten()
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut (u64, T)> {
        self.chunks.iter_mut().flatten()
    }

    fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(key, _)| *key)
    }

    /// Bytes of the table itself: its entry storage, filled or not, and
    /// its index. What entries own on the heap is not counted.
    fn bytes(&self) -> u64 {
        let entries =
            self.chunks.iter().map(Vec::capacity).sum::<usize>() * std::mem::size_of::<(u64, T)>();
        (entries + self.index.buckets.capacity() * std::mem::size_of::<u64>()) as u64
    }
}

// ---------------------------------------------------------------------------
// The hot tier: one record per entry in a per-stripe byte arena
// ---------------------------------------------------------------------------

/// Where a hot entry's record sits in its stripe's arena. `u32` offsets
/// hold: an arena is compacted before it holds twice its live bytes, and
/// a stripe's live records stay far below 2 GiB.
#[derive(Debug, Clone, Copy)]
struct Place {
    off: u32,
    len: u32,
}

/// Bytes of one hot-tier row: the key hash and where its record sits —
/// every hot entry's fixed cost besides its record and its index bucket.
pub const HOT_ROW_BYTES: usize = std::mem::size_of::<(u64, Place)>();

/// Spare arena bytes a write makes sure of before it writes a record in
/// place at the arena's end — more than any index entry's record needs,
/// so the arena grows by its own rule, not by `Vec`'s doubling.
const RECORD_ROOM: usize = 256;

/// A varint of a record the store wrote itself: never malformed.
#[inline]
fn varint(bytes: &[u8], pos: &mut usize) -> u64 {
    read_known_varint(bytes, pos)
}

/// A record's parts, `[n][holders][value][slots]`: the count of the
/// value's shared slices, one byte; the holder count and the holders,
/// varints; the value's own [`Record`] bytes; the slab slots of the
/// shared slices, `u32` LE each. The holders and the value are the
/// record's *body*, what two records of one entry are compared by (with
/// their shared slices).
#[derive(Clone, Copy)]
struct Parts<'a> {
    /// The holder part and the value.
    body: &'a [u8],
    /// Where the value starts in `body`.
    value_at: usize,
    /// The slot numbers.
    slots: &'a [u8],
}

impl<'a> Parts<'a> {
    #[inline]
    fn of(record: &'a [u8]) -> Self {
        let end = record.len() - 4 * usize::from(record[0]);
        let body = &record[1..end];
        let mut pos = 0;
        for _ in 0..varint(body, &mut pos) {
            varint(body, &mut pos);
        }
        Self {
            body,
            value_at: pos,
            slots: &record[end..],
        }
    }

    #[inline]
    fn value(self) -> &'a [u8] {
        &self.body[self.value_at..]
    }

    /// The number of holders.
    #[inline]
    fn holder_count(self) -> usize {
        varint(self.body, &mut 0) as usize
    }

    /// Decodes the holder set into `out`.
    #[inline]
    fn holders_into(self, out: &mut Vec<u32>) {
        out.clear();
        let mut pos = 0;
        for _ in 0..varint(self.body, &mut pos) {
            out.push(varint(self.body, &mut pos) as u32);
        }
    }

    fn slots(self) -> impl Iterator<Item = usize> + 'a {
        self.slots
            .chunks_exact(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]) as usize)
    }
}

impl<'a> Shared<'a> {
    /// The `i`-th shared slice of the record; `None` only for an `i` its
    /// `put_record` never pushed.
    #[inline]
    pub fn get(self, i: usize) -> Option<&'a Arc<[u8]>> {
        let s = self.slots.get(4 * i..4 * i + 4)?;
        let slot = u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
        self.slab.get(slot as usize)?.as_ref()
    }
}

/// A stripe's shared slices, each in the slot its record names; freed
/// slots are reused before the slab grows.
#[derive(Default)]
struct Slab {
    slots: Vec<Option<Arc<[u8]>>>,
    free: Vec<u32>,
}

impl Slab {
    fn park(&mut self, bytes: Arc<[u8]>) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(bytes);
                slot
            }
            None => {
                self.slots.push(Some(bytes));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Frees the slots of a dead record.
    fn release(&mut self, parts: Parts<'_>) {
        for slot in parts.slots() {
            self.slots[slot] = None;
            self.free.push(slot as u32);
        }
    }

    #[inline]
    fn shared<'a>(&'a self, parts: Parts<'a>) -> Shared<'a> {
        Shared {
            slab: &self.slots,
            slots: parts.slots,
        }
    }

    fn bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<Option<Arc<[u8]>>>()
            + self.free.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

/// Appends the start of `slot`'s record to `out` — a placeholder for the
/// slice count, the holder part, the value's bytes — and leaves the
/// slices the value shares in `shared`.
fn put_body<V: Record>(out: &mut Vec<u8>, slot: &Slot<V>, shared: &mut Vec<Arc<[u8]>>) {
    out.push(0);
    put_holders(out, &slot.holders);
    slot.value.put_record(out, Some(shared));
}

/// Appends a record's holder part: the holder count and the holders.
fn put_holders(out: &mut Vec<u8>, holders: &[u32]) {
    write_varint(out, holders.len() as u64);
    for &h in holders {
        write_varint(out, u64::from(h));
    }
}

/// Ends the record that starts at `start` in `out`: parks the slices in
/// `shared` in `slab`, appends their slots and sets their count (at most
/// 255 a record).
fn put_slots(out: &mut Vec<u8>, start: usize, slab: &mut Slab, shared: &mut Vec<Arc<[u8]>>) {
    out[start] = shared.len() as u8;
    for bytes in shared.drain(..) {
        out.extend_from_slice(&slab.park(bytes).to_le_bytes());
    }
}

/// A stripe's hot tier: every entry one record in `arena`, found through
/// a packed table of [`Place`] rows (position order is the sweep order),
/// its shared slices in `slab`.
struct Hot<V> {
    rows: Packed<Place>,
    arena: Vec<u8>,
    /// Bytes of superseded records still in the arena.
    dead: usize,
    slab: Slab,
    values: PhantomData<fn() -> V>,
}

impl<V: Record> Hot<V> {
    fn new() -> Self {
        Self {
            rows: Packed::new(),
            arena: Vec::new(),
            dead: 0,
            slab: Slab::default(),
            values: PhantomData,
        }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn find(&self, key: u64) -> Option<u32> {
        self.rows.find(key)
    }

    /// The key at `pos` and its record's parts.
    #[inline]
    fn at(&self, pos: u32) -> (u64, Parts<'_>) {
        let (key, place) = *self.rows.at(pos);
        let record = &self.arena[place.off as usize..][..place.len as usize];
        (key, Parts::of(record))
    }

    /// The value's view of an entry.
    #[inline]
    fn view<'a>(&'a self, parts: Parts<'a>) -> V::Ref<'a> {
        V::view(parts.value(), self.slab.shared(parts))
    }

    /// The view of an entry, its holders decoded into `holders`.
    #[inline]
    fn found<'a>(&'a self, parts: Parts<'a>, holders: &'a mut Vec<u32>) -> Found<'a, V> {
        parts.holders_into(holders);
        Found {
            holders: holders.as_slice(),
            value: self.view(parts),
        }
    }

    /// The entry at `pos`, materialized into a slot whose holder set
    /// reuses `holders`' buffer.
    fn slot(&self, pos: u32, mut holders: Vec<u32>) -> Slot<V> {
        let (_, parts) = self.at(pos);
        parts.holders_into(&mut holders);
        Slot {
            value: V::from_record(parts.value(), self.slab.shared(parts)),
            holders,
        }
    }

    /// Makes room for a record at the arena's end, growing the arena by
    /// half its length (not by doubling it: the arena is most of a
    /// stripe's memory).
    fn reserve(&mut self) {
        if self.arena.capacity() - self.arena.len() < RECORD_ROOM {
            self.arena
                .reserve_exact(RECORD_ROOM.max(self.arena.len() / 2));
        }
    }

    /// Stores `slot` under `key`, which must not be stored yet, and
    /// returns its position.
    fn insert(&mut self, key: u64, slot: &Slot<V>) -> u32 {
        self.reserve();
        let off = self.arena.len();
        let mut shared = Vec::new();
        put_body(&mut self.arena, slot, &mut shared);
        put_slots(&mut self.arena, off, &mut self.slab, &mut shared);
        let len = self.arena.len() - off;
        self.rows.insert(
            key,
            Place {
                off: off as u32,
                len: len as u32,
            },
        );
        (self.rows.len() - 1) as u32
    }

    /// Replaces the record at `pos` by `slot`'s, unless it spells the
    /// same: the new record is written at the arena's end and its body
    /// compared with the old one's.
    fn write(&mut self, pos: u32, slot: &Slot<V>) {
        self.reserve();
        let old = self.rows.at(pos).1;
        let off = self.arena.len();
        let mut shared = Vec::new();
        put_body(&mut self.arena, slot, &mut shared);
        let (before, new) = self.arena.split_at(off);
        let was = Parts::of(&before[old.off as usize..][..old.len as usize]);
        let held = self.slab.shared(was);
        if was.body == &new[1..]
            && was.slots.len() == 4 * shared.len()
            && (shared.iter().enumerate())
                .all(|(i, new)| held.get(i).is_some_and(|held| Arc::ptr_eq(held, new)))
        {
            self.arena.truncate(off);
            return;
        }
        self.slab.release(was);
        put_slots(&mut self.arena, off, &mut self.slab, &mut shared);
        self.settle(pos, off);
    }

    /// Replaces the holder part of the record at `pos`: the new record is
    /// the old one's slice count, `holders` and the old value bytes and
    /// slab slots, which stay the value's.
    fn set_holders(&mut self, pos: u32, holders: &[u32]) {
        self.reserve();
        let old = self.rows.at(pos).1;
        let start = old.off as usize;
        let end = start + old.len as usize;
        let value_at = start + 1 + Parts::of(&self.arena[start..end]).value_at;
        let off = self.arena.len();
        self.arena.push(self.arena[start]);
        put_holders(&mut self.arena, holders);
        self.arena.extend_from_within(value_at..end);
        self.settle(pos, off);
    }

    /// Makes the record just written at `off`, the arena's end, the
    /// entry's at `pos`: it moves into the old place when the lengths
    /// match, which keeps `ingest`'s peak RSS ≈ 8 MiB lower (147 against
    /// 155 MiB); otherwise it stays, the old bytes counted dead.
    fn settle(&mut self, pos: u32, off: usize) {
        let old = self.rows.at(pos).1;
        let len = self.arena.len() - off;
        if len == old.len as usize {
            self.arena.copy_within(off.., old.off as usize);
            self.arena.truncate(off);
            return;
        }
        self.dead += old.len as usize;
        self.rows.at_mut(pos).1 = Place {
            off: off as u32,
            len: len as u32,
        };
        self.compact_if_due();
    }

    /// Removes the entry at `pos`, moving the last entry into its place.
    fn remove_at(&mut self, pos: u32) {
        if let Some((_, place)) = self.rows.swap_remove(pos) {
            let record = &self.arena[place.off as usize..][..place.len as usize];
            self.slab.release(Parts::of(record));
            self.dead += place.len as usize;
        }
        self.compact_if_due();
    }

    /// Once the dead bytes exceed the live ones, copies the live records
    /// in position order into a fresh arena with an eighth to spare.
    fn compact_if_due(&mut self) {
        let live = self.arena.len() - self.dead;
        if self.dead <= live {
            return;
        }
        let mut arena = Vec::with_capacity(live + live / 8);
        for (_, place) in self.rows.iter_mut() {
            let off = arena.len();
            arena.extend_from_slice(&self.arena[place.off as usize..][..place.len as usize]);
            place.off = off as u32;
        }
        self.arena = arena;
        self.dead = 0;
    }

    /// Visits every entry once in position order: `f` edits the value of
    /// each entry `pick` chooses by its view, materialized, and the entry
    /// is rewritten when its value changed. Returns what `weigh` makes of
    /// the chosen entries' positions before `f` ran and after.
    fn sweep(
        &mut self,
        pick: &mut dyn FnMut(V::Ref<'_>) -> bool,
        f: &mut dyn FnMut(u64, &mut V),
        weigh: &dyn Fn(&Self, u32) -> u64,
    ) -> (u64, u64) {
        let (mut before, mut after) = (0, 0);
        for pos in 0..self.len() as u32 {
            let (key, parts) = self.at(pos);
            if !pick(self.view(parts)) {
                continue;
            }
            let mut slot = self.slot(pos, Vec::new());
            before += weigh(self, pos);
            f(key, &mut slot.value);
            self.write(pos, &slot);
            after += weigh(self, pos);
        }
        (before, after)
    }

    /// Visits every entry once in position order: `f` edits its holder
    /// set beside its view, and the entry gets a new holder part when the
    /// set changed ([`Hot::set_holders`]), or is removed when it is empty.
    /// A removal moves the last — not yet visited — entry into the current
    /// position, which is therefore visited next. Returns what `weigh`
    /// makes of the changed entries' positions before `f` ran and of
    /// those kept after.
    fn retain(
        &mut self,
        f: &mut EditHolders<'_, V>,
        weigh: &dyn Fn(&Self, u32) -> u64,
    ) -> (u64, u64) {
        let (mut before, mut after) = (0, 0);
        let (mut held, mut holders) = (Vec::new(), Vec::new());
        let mut pos = 0u32;
        while (pos as usize) < self.len() {
            let (key, parts) = self.at(pos);
            parts.holders_into(&mut held);
            holders.clone_from(&held);
            f(key, &mut holders, self.view(parts));
            if holders == held {
                pos += 1;
                continue;
            }
            before += weigh(self, pos);
            if holders.is_empty() {
                self.remove_at(pos);
            } else {
                self.set_holders(pos, &holders);
                after += weigh(self, pos);
                pos += 1;
            }
        }
        (before, after)
    }

    /// Bytes of the tier's tables: rows, index, the arena's whole capacity
    /// (live, dead and spare bytes) and the slab's slots.
    fn bytes(&self) -> u64 {
        self.rows.bytes() + self.arena.capacity() as u64 + self.slab.bytes()
    }
}

thread_local! {
    /// This thread's holder buffer, reused by one lookup or upsert after
    /// another: a query's lookups allocate none (`alloc_budget`'s pin), and
    /// an upsert materializes its entry without allocating a holder set.
    static HOLDERS: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

// ---------------------------------------------------------------------------
// SegmentStore
// ---------------------------------------------------------------------------

/// Entry payload header inside a segment frame: the key hash and the
/// entry's seal version, both `u64` LE, preceding the value's flat record.
const ENTRY_HEADER_BYTES: usize = 16;

/// Bytes of [`LOG_HEADER`].
const LOG_HEADER_BYTES: usize = 8;

/// The first bytes of every non-empty segment log: the magic `HDKSEG` and
/// the log format's version, `u16` LE. Version 2 frames carry the
/// word-wide checksum; version 3 frames carry the value's flat record.
/// The logs of the earliest builds (FNV-1a frames) have no header. A log
/// of another format is refused, not read: read as this one, every frame
/// would be corrupt and the log truncated to nothing. The header belongs
/// to the file, not to an entry: no entry's sealed bytes count it.
const LOG_HEADER: [u8; LOG_HEADER_BYTES] = *b"HDKSEG\x03\x00";

/// The frame that seals an entry: the payload is `[key][version]` plus
/// the flat record `value` appends.
fn entry_frame(key: u64, version: u64, value: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut payload = Vec::with_capacity(ENTRY_HEADER_BYTES + 64);
    payload.extend_from_slice(&key.to_le_bytes());
    payload.extend_from_slice(&version.to_le_bytes());
    value(&mut payload);
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    write_frame(&mut frame, &payload).expect("a Vec<u8> takes every byte");
    frame
}

/// Where one holder's sealed frame of an entry lives.
#[derive(Debug, Clone, Copy, Default)]
struct FrameRef {
    /// Holding peer index (owns the file the frame sits in).
    peer: u32,
    /// Byte offset of the frame in that peer's stripe log.
    offset: u64,
}

/// A sealed entry's frame locations, one per holding replica: an
/// unreplicated entry's one inline, more in one boxed slice.
#[derive(Debug)]
enum Refs {
    One(FrameRef),
    Many(Box<[FrameRef]>),
}

impl Refs {
    fn as_slice(&self) -> &[FrameRef] {
        match self {
            Refs::One(r) => std::slice::from_ref(r),
            Refs::Many(refs) => refs,
        }
    }

    /// Heap bytes of a boxed slice.
    fn spilled_bytes(&self) -> usize {
        match self {
            Refs::One(_) => 0,
            Refs::Many(refs) => std::mem::size_of_val(&**refs),
        }
    }
}

impl From<Vec<FrameRef>> for Refs {
    fn from(refs: Vec<FrameRef>) -> Self {
        match *refs {
            [r] => Refs::One(r),
            _ => Refs::Many(refs.into_boxed_slice()),
        }
    }
}

/// A sealed entry: its current version, frame payload size, and one
/// [`FrameRef`] per holding replica (ascending peer index — this doubles
/// as the holder set).
#[derive(Debug)]
struct SealedEntry {
    /// The seal that wrote the current frame (see `SegStripe::seals`);
    /// recovery only trusts frames carrying exactly this version (older
    /// frames are stale).
    version: u64,
    /// Payload bytes of the current frame (identical for every replica).
    payload_len: u32,
    refs: Refs,
}

impl SealedEntry {
    fn frame_len(&self) -> u64 {
        FRAME_HEADER_BYTES as u64 + u64::from(self.payload_len)
    }

    /// Writes the holder set into `out`.
    fn holders_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.refs.as_slice().iter().map(|r| r.peer));
    }

    fn holders(&self) -> Vec<u32> {
        self.refs.as_slice().iter().map(|r| r.peer).collect()
    }
}

/// One `(peer, stripe)` segment log: its long-lived handle and its append
/// offset, in one value so they cannot disagree. Every [`FrameRef`] in a
/// stripe's `sealed` table points into a `Segment` of that stripe,
/// because only the paths that create refs — `append` and recovery's
/// replay — create segments.
struct Segment {
    /// `None` only after the store ran out of descriptors (see the module
    /// docs): each access then opens the log for itself.
    file: Option<File>,
    /// Where the next frame is written: the length of the intact log, 0
    /// while the log has no [`LOG_HEADER`] yet.
    tail: u64,
}

/// The latest intact frame of a key in one replayed log.
struct Replayed {
    version: u64,
    offset: u64,
    payload_len: u32,
}

/// `open` failed because the process (`EMFILE`) or the system (`ENFILE`)
/// is out of file descriptors.
fn out_of_descriptors(e: &io::Error) -> bool {
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    matches!(e.raw_os_error(), Some(ENFILE | EMFILE))
}

/// The error for a non-empty log that does not start with [`LOG_HEADER`]
/// but with `head`: another build's log, which this one neither reads nor
/// writes. It names the format it found.
fn foreign_log(dir: &Path, peer: u32, stripe: usize, head: &[u8]) -> io::Error {
    let found = match head.strip_prefix(&LOG_HEADER[..6]) {
        Some(&[lo, hi]) => format!("format version {}", u16::from_le_bytes([lo, hi])),
        _ => "no log header".to_string(),
    };
    let ours = u16::from_le_bytes([LOG_HEADER[6], LOG_HEADER[7]]);
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "{}/peer-{peer}/stripe-{stripe}.seg is a segment log of another \
             format ({found}; this build reads version {ours}); move it away \
             to rebuild here",
            dir.display()
        ),
    )
}

/// The in-memory tables of a stripe (see [`Store::table_bytes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableBytes {
    /// Tables of resident entries: a stripe's hot-tier rows and index,
    /// its arena's whole capacity — live, dead and spare bytes — and its
    /// slab of shared slices, plus its seal queue (empty in an unbounded
    /// store).
    pub hot: u64,
    /// Of `hot`, the live records in the arena.
    pub records: u64,
    /// Of `hot`, the superseded records in the arena, awaiting compaction.
    pub dead_records: u64,
    /// A stripe's sealed index — per sealed key its version, frame size
    /// and frame locations — with the locations of entries held by more
    /// than one replica (0 while nothing is sealed).
    pub sealed: u64,
}

/// One stripe's tiered state. A key is in exactly one of `hot` / `sealed`;
/// a sweep walks `hot` in position order and `sealed` in key order (see
/// the module docs).
struct SegStripe<V> {
    hot: Hot<V>,
    sealed: Packed<SealedEntry>,
    /// Seals of this stripe so far: each seal's frames carry the next
    /// count as their version, so a re-seal is newer than every frame of
    /// its key already on disk — whatever happened to the key in between.
    /// Recovery raises it past every version it replays.
    seals: u64,
    /// Seal order: every hot key exactly once, oldest first (FIFO) — none
    /// in an unbounded store. Keys removed while queued are skipped on pop.
    dirty: VecDeque<u64>,
    /// Σ `weight(value) × holders` over hot entries: kept in step by
    /// upserts, seals, un-seals and sweeps.
    hot_weight: u64,
    /// Each peer's log file for this stripe, once it exists.
    segments: HashMap<u32, Segment>,
}

impl<V: Record> SegStripe<V> {
    fn new() -> Self {
        Self {
            hot: Hot::new(),
            sealed: Packed::new(),
            seals: 0,
            dirty: VecDeque::new(),
            hot_weight: 0,
            segments: HashMap::new(),
        }
    }

    fn close_handles(&mut self) {
        for seg in self.segments.values_mut() {
            seg.file = None;
        }
    }
}

thread_local! {
    /// This thread's frame buffer for sealed reads, reused read to read. A
    /// read nested in another's callback finds it taken and starts an
    /// empty one.
    static FRAME_BUF: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// A thread's frame buffer grown past this is released after the read:
/// only small frames are worth keeping a buffer for.
const KEPT_FRAME_BUF_BYTES: usize = 64 << 10;

/// The entry store: a hot in-memory tier under a byte budget, overflowed
/// to checksummed frames in per-`(peer, stripe)` segment log files; with
/// an unbounded budget, the in-memory store. See the module docs for the
/// full contract.
pub struct SegmentStore<V, C> {
    codec: C,
    /// The caller's directory ([`SegmentStore::at_dir`]); `None` for an
    /// ephemeral store, whose logs go to `scratch`.
    dir: Option<PathBuf>,
    /// Hot-tier budget per stripe (total budget / stripe count), or
    /// `u64::MAX` for an unbounded store.
    stripe_budget: u64,
    /// Cleared for good the first time an open runs out of descriptors.
    /// Publishes nothing: the handles themselves sit behind the stripe
    /// locks, so `Relaxed` suffices.
    keep_handles: AtomicBool,
    stripes: Vec<RwLock<SegStripe<V>>>,
    values: PhantomData<fn() -> V>,
    /// An ephemeral store's scratch directory: made by its first seal,
    /// removed when the store drops. Declared after `stripes`: fields
    /// drop in declaration order, so every segment handle is closed
    /// before the directory is removed.
    scratch: OnceLock<tempfile::TempDir>,
}

impl<V: Record, C: StoreCodec<V>> SegmentStore<V, C> {
    /// A store whose segment logs live in a scratch directory, made by
    /// the first seal and removed when the store is dropped. `hot_bytes`
    /// is the total hot-tier budget across all stripes (enforced per
    /// stripe); `u64::MAX` is unbounded — the in-memory store, which never
    /// seals, so it makes no directory at all.
    pub fn ephemeral(codec: C, hot_bytes: u64) -> Self {
        Self::new(codec, None, hot_bytes)
    }

    /// A store whose segment logs live under `dir` (created on demand,
    /// never removed) — the durable mode: a store re-opened on the same
    /// directory can [`Store::recover`] what a previous process sealed.
    /// `hot_bytes` is as for [`SegmentStore::ephemeral`]: an unbounded
    /// store seals nothing, not even on [`Store::sync`].
    pub fn at_dir(codec: C, dir: PathBuf, hot_bytes: u64) -> Self {
        Self::new(codec, Some(dir), hot_bytes)
    }

    fn new(codec: C, dir: Option<PathBuf>, hot_bytes: u64) -> Self {
        Self {
            codec,
            dir,
            stripe_budget: match hot_bytes {
                u64::MAX => u64::MAX,
                budget => budget / crate::NUM_STRIPES as u64,
            },
            keep_handles: AtomicBool::new(true),
            stripes: (0..crate::NUM_STRIPES)
                .map(|_| RwLock::new(SegStripe::new()))
                .collect(),
            values: PhantomData,
            scratch: OnceLock::new(),
        }
    }

    /// The directory holding the segment logs
    /// (`<dir>/peer-<index>/stripe-<stripe>.seg`): `None` for an ephemeral
    /// store that has not sealed yet.
    pub fn dir(&self) -> Option<&Path> {
        self.dir
            .as_deref()
            .or_else(|| self.scratch.get().map(tempfile::TempDir::path))
    }

    /// Whether the hot tier is unbounded: nothing is ever queued for
    /// sealing.
    fn unbounded(&self) -> bool {
        self.stripe_budget == u64::MAX
    }

    /// The directory holding the logs; `create` makes an ephemeral store's
    /// scratch directory when it has none yet, and without it a missing
    /// one is `NotFound`, like a missing log.
    fn log_dir(&self, create: bool) -> io::Result<&Path> {
        if let Some(dir) = self.dir() {
            return Ok(dir);
        }
        if !create {
            return Err(io::ErrorKind::NotFound.into());
        }
        let made = tempfile::tempdir()?;
        Ok(self.scratch.get_or_init(|| made).path())
    }

    /// Opens `peer`'s log for `stripe` — the only place this module opens
    /// a file. `create` also creates the file, and the peer directory when
    /// the open reports it missing.
    fn open_log(&self, stripe: usize, peer: u32, create: bool) -> io::Result<File> {
        let peer_dir = self.log_dir(create)?.join(format!("peer-{peer}"));
        let path = peer_dir.join(format!("stripe-{stripe}.seg"));
        let mut options = std::fs::OpenOptions::new();
        options.read(true).write(true).create(create);
        match options.open(&path) {
            Err(e) if create && e.kind() == io::ErrorKind::NotFound => {
                std::fs::create_dir_all(peer_dir)?;
                options.open(&path)
            }
            opened => opened,
        }
    }

    /// The [`Segment`] of `peer`'s log for `stripe`, opened on first use
    /// with its tail after whatever the file already holds: 0 for an
    /// empty file (or a torn [`LOG_HEADER`], which holds no frame), its
    /// length for a log that starts with the header. A non-empty log
    /// without the header is refused ([`foreign_log`]). Running out of
    /// descriptors is handled here, once: the store stops keeping handles
    /// (this stripe's are closed directly — its lock is held — the
    /// others' as far as their locks are free) and the open is retried.
    fn ensure_segment<'s>(
        &self,
        st: &'s mut SegStripe<V>,
        stripe: usize,
        peer: u32,
        create: bool,
    ) -> io::Result<&'s mut Segment> {
        let seg = match st.segments.remove(&peer) {
            Some(seg) => seg,
            None => self.open_segment(st, stripe, peer, create)?,
        };
        Ok(st.segments.entry(peer).or_insert(seg))
    }

    fn open_segment(
        &self,
        st: &mut SegStripe<V>,
        stripe: usize,
        peer: u32,
        create: bool,
    ) -> io::Result<Segment> {
        if !self.keep_handles.load(Ordering::Relaxed) {
            // A stripe that was locked while the others were closed.
            st.close_handles();
        }
        let file = match self.open_log(stripe, peer, create) {
            Err(e) if out_of_descriptors(&e) => {
                st.close_handles();
                self.stop_keeping_handles();
                self.open_log(stripe, peer, create)
            }
            opened => opened,
        }?;
        let len = file.metadata()?.len();
        let mut head = [0u8; LOG_HEADER_BYTES];
        let head = &mut head[..len.min(LOG_HEADER_BYTES as u64) as usize];
        file.read_exact_at(head, 0)?;
        if *head != LOG_HEADER[..head.len()] {
            return Err(foreign_log(self.log_dir(false)?, peer, stripe, head));
        }
        let keep = self.keep_handles.load(Ordering::Relaxed);
        Ok(Segment {
            file: keep.then_some(file),
            tail: if head.len() == LOG_HEADER_BYTES {
                len
            } else {
                0
            },
        })
    }

    /// Enters the out-of-descriptors state: no handle is kept from now on,
    /// and every stripe whose lock is free closes its handles at once (a
    /// busy stripe closes its own the next time it opens a segment).
    pub(crate) fn stop_keeping_handles(&self) {
        self.keep_handles.store(false, Ordering::Relaxed);
        for stripe in &self.stripes {
            if let Some(mut st) = stripe.try_write() {
                st.close_handles();
            }
        }
    }

    /// Runs `f` on `peer`'s log: on the segment's handle, or — in the
    /// out-of-descriptors state — on one opened for this call.
    fn with_file<R>(
        &self,
        seg: &Segment,
        stripe: usize,
        peer: u32,
        f: impl FnOnce(&File) -> io::Result<R>,
    ) -> io::Result<R> {
        match &seg.file {
            Some(file) => f(file),
            None => f(&self.open_log(stripe, peer, false)?),
        }
    }

    /// Appends `frame` to `peer`'s log for `stripe` — after the
    /// [`LOG_HEADER`] when the log has none yet — returning the offset it
    /// was written at.
    fn append(&self, st: &mut SegStripe<V>, stripe: usize, peer: u32, frame: &[u8]) -> u64 {
        let seg = self
            .ensure_segment(st, stripe, peer, true)
            .expect("open segment log for append");
        let offset = seg.tail.max(LOG_HEADER_BYTES as u64);
        let headed = seg.tail > 0;
        self.with_file(seg, stripe, peer, |file| {
            if !headed {
                file.write_all_at(&LOG_HEADER, 0)?;
            }
            file.write_all_at(frame, offset)
        })
        .expect("append segment frame");
        seg.tail = offset + frame.len() as u64;
        offset
    }

    /// Reads a sealed entry's current frame into this thread's frame
    /// buffer — one positional read — verifies it in place and hands `f`
    /// its value's flat record. Falls back across replicas: a copy that
    /// cannot be read, fails its checksum, carries another key or version,
    /// or holds a record [`Record::check`] refuses is skipped and the next
    /// holder's copy is tried.
    fn read_sealed<R>(
        &self,
        segments: &HashMap<u32, Segment>,
        stripe: usize,
        key: u64,
        entry: &SealedEntry,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        let frame_len = entry.frame_len() as usize;
        let mut want = [0u8; ENTRY_HEADER_BYTES];
        want[..8].copy_from_slice(&key.to_le_bytes());
        want[8..].copy_from_slice(&entry.version.to_le_bytes());
        let mut buf = FRAME_BUF.take();
        for r in entry.refs.as_slice() {
            let Some(seg) = segments.get(&r.peer) else {
                continue;
            };
            buf.clear();
            buf.resize(frame_len, 0);
            let read = self.with_file(seg, stripe, r.peer, |file| {
                file.read_exact_at(&mut buf, r.offset)
            });
            if read.is_err() {
                continue;
            }
            let FrameRead::Frame { payload, end } = read_frame(&buf, 0) else {
                continue;
            };
            match payload.split_first_chunk::<ENTRY_HEADER_BYTES>() {
                Some((head, value)) if end == frame_len && *head == want && V::check(value) => {
                    let out = f(value);
                    if buf.capacity() <= KEPT_FRAME_BUF_BYTES {
                        FRAME_BUF.set(buf);
                    }
                    return out;
                }
                _ => {}
            }
        }
        panic!(
            "all {} sealed replica frames of key {key:#018x} are unreadable or corrupt; \
             restart recovery (Dht::restart_peers) is required before serving",
            entry.refs.as_slice().len()
        );
    }

    /// A sealed entry as a slot: its value, materialized from its flat
    /// record, and the holder set its refs spell.
    fn sealed_slot(
        &self,
        st: &SegStripe<V>,
        stripe: usize,
        key: u64,
        entry: &SealedEntry,
    ) -> Slot<V> {
        Slot {
            value: self.read_sealed(&st.segments, stripe, key, entry, |flat| {
                V::from_record(flat, Shared::default())
            }),
            holders: entry.holders(),
        }
    }

    /// Hands `f` a sealed entry's view: its flat record's, beside the
    /// holder set its refs spell, decoded into `holders`' buffer.
    fn sealed_found(
        &self,
        st: &SegStripe<V>,
        stripe: usize,
        key: u64,
        entry: &SealedEntry,
        holders: &mut Vec<u32>,
        f: impl FnOnce(Found<'_, V>),
    ) {
        entry.holders_into(holders);
        self.read_sealed(&st.segments, stripe, key, entry, |flat| {
            f(Found {
                holders,
                value: V::view(flat, Shared::default()),
            })
        });
    }

    /// Hands `f` a key that is not hot: its sealed slot (see
    /// [`Self::sealed_slot`]), or `None`. Out of line, so a hot read
    /// carries none of the sealed tier's code.
    #[inline(never)]
    fn read_cold(
        &self,
        st: &SegStripe<V>,
        stripe: usize,
        key: u64,
        f: &mut dyn FnMut(Option<&Slot<V>>),
    ) {
        match st.sealed.get(key) {
            Some(entry) => f(Some(&self.sealed_slot(st, stripe, key, entry))),
            None => f(None),
        }
    }

    /// [`Self::read_cold`] for a lookup, through the entry's view (see
    /// [`Self::sealed_found`]).
    #[inline(never)]
    fn read_cold_ref(
        &self,
        st: &SegStripe<V>,
        stripe: usize,
        key: u64,
        holders: &mut Vec<u32>,
        f: &mut dyn FnMut(Option<Found<'_, V>>),
    ) {
        match st.sealed.get(key) {
            Some(entry) => {
                self.sealed_found(st, stripe, key, entry, holders, |found| f(Some(found)))
            }
            None => f(None),
        }
    }

    /// Recovery's phase 1 for one log: reads it front to back through its
    /// segment, returns the latest intact frame per key, and cuts the file
    /// at the first truncated/corrupt frame (everything past an unreadable
    /// frame is unreachable: boundaries cannot be trusted), leaving the
    /// segment's `tail` at the end of the intact prefix. A log this store
    /// has not touched yet (the cold start over a previous process's
    /// directory) gets its segment here; a log that does not exist gets
    /// neither a file nor a segment, and one of an earlier format
    /// ([`foreign_log`]) is counted in `logs_refused` and left as it is.
    fn replay_log(
        &self,
        st: &mut SegStripe<V>,
        stripe: usize,
        peer: u32,
        stats: &mut RecoveryStats,
    ) -> io::Result<HashMap<u64, Replayed>> {
        let mut latest: HashMap<u64, Replayed> = HashMap::new();
        let seg = match self.ensure_segment(st, stripe, peer, false) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(latest),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                stats.logs_refused += 1;
                return Ok(latest);
            }
            ensured => ensured?,
        };
        let tail = self.with_file(seg, stripe, peer, |file| {
            let len = usize::try_from(file.metadata()?.len()).map_err(io::Error::other)?;
            let mut log = vec![0u8; len];
            file.read_exact_at(&mut log, 0)?;
            // A log without its full header holds no frame.
            let mut pos = if len < LOG_HEADER_BYTES {
                0
            } else {
                LOG_HEADER_BYTES
            };
            loop {
                match read_frame(&log, pos) {
                    FrameRead::Frame { payload, end } => {
                        let Some((key, rest)) = payload.split_first_chunk::<8>() else {
                            stats.frames_discarded += 1;
                            break;
                        };
                        let Some((version, _)) = rest.split_first_chunk::<8>() else {
                            stats.frames_discarded += 1;
                            break;
                        };
                        stats.frames_replayed += 1;
                        stats.bytes_replayed += (end - pos) as u64;
                        latest.insert(
                            u64::from_le_bytes(*key),
                            Replayed {
                                version: u64::from_le_bytes(*version),
                                offset: pos as u64,
                                payload_len: payload.len() as u32,
                            },
                        );
                        pos = end;
                    }
                    FrameRead::Eof => break,
                    FrameRead::Truncated | FrameRead::Corrupt => {
                        stats.frames_discarded += 1;
                        break;
                    }
                }
            }
            let tail = pos as u64;
            if pos < len {
                file.set_len(tail)?;
            }
            Ok(tail)
        })?;
        seg.tail = tail;
        Ok(latest)
    }

    /// Seals one hot entry: appends its frame — the flat record written
    /// from its arena record — to every holder's log and moves it to the
    /// sealed tier under the stripe's next version.
    fn seal(&self, st: &mut SegStripe<V>, stripe: usize, key: u64) {
        let Some(pos) = st.hot.find(key) else {
            return;
        };
        st.seals += 1;
        let version = st.seals;
        let (_, parts) = st.hot.at(pos);
        let mut holders = Vec::new();
        parts.holders_into(&mut holders);
        let frame = entry_frame(key, version, |out| {
            V::put_flat(parts.value(), st.hot.slab.shared(parts), out)
        });
        st.hot_weight -= self.weight(&st.hot, pos);
        st.hot.remove_at(pos);
        let refs: Vec<FrameRef> = holders
            .iter()
            .map(|&peer| FrameRef {
                peer,
                offset: self.append(st, stripe, peer, &frame),
            })
            .collect();
        st.sealed.insert(
            key,
            SealedEntry {
                version,
                payload_len: (frame.len() - FRAME_HEADER_BYTES) as u32,
                refs: Refs::from(refs),
            },
        );
    }

    /// Seals hot entries (oldest first) until the stripe is back under its
    /// budget or nothing hot remains.
    fn enforce_budget(&self, st: &mut SegStripe<V>, stripe: usize) {
        while st.hot_weight > self.stripe_budget {
            let Some(key) = st.dirty.pop_front() else {
                break;
            };
            // A queued key removed meanwhile is skipped.
            self.seal(st, stripe, key);
        }
    }

    /// Moves a materialized sealed entry into the hot tier (its frames go
    /// stale).
    fn unseal(&self, st: &mut SegStripe<V>, key: u64, mut slot: Slot<V>) {
        st.sealed.remove(key);
        slot.holders.sort_unstable();
        let pos = st.hot.insert(key, &slot);
        st.hot_weight += self.weight(&st.hot, pos);
        self.queue(st, key);
    }

    /// Queues a key that just became hot for sealing — unless nothing is
    /// ever sealed.
    fn queue(&self, st: &mut SegStripe<V>, key: u64) {
        if !self.unbounded() {
            st.dirty.push_back(key);
        }
    }

    /// Hot-tier bytes the hot entry at `pos` occupies: its value's weight
    /// per holder. An unbounded store measures nothing against its budget,
    /// so there every entry weighs 0.
    fn weight(&self, hot: &Hot<V>, pos: u32) -> u64 {
        if self.unbounded() {
            return 0;
        }
        let (_, parts) = hot.at(pos);
        self.codec.weight(hot.view(parts)) * parts.holder_count() as u64
    }

    /// Runs a value edit on a sealed entry, if `pick` chooses it by its
    /// view; a changed value un-seals the entry.
    fn edit_sealed(
        &self,
        st: &mut SegStripe<V>,
        stripe: usize,
        key: u64,
        pick: &mut dyn FnMut(V::Ref<'_>) -> bool,
        f: &mut dyn FnMut(u64, &mut V),
    ) {
        let Some(entry) = st.sealed.get(key) else {
            return;
        };
        let edited = self.read_sealed(&st.segments, stripe, key, entry, |flat| {
            if !pick(V::view(flat, Shared::default())) {
                return None;
            }
            let mut value = V::from_record(flat, Shared::default());
            f(key, &mut value);
            let mut reflat = Vec::with_capacity(flat.len());
            value.put_record(&mut reflat, None);
            (reflat != flat).then_some(value)
        });
        if let Some(value) = edited {
            let holders = entry.holders();
            self.unseal(st, key, Slot { value, holders });
        }
    }

    /// Runs a holder edit on a sealed entry and writes the change through
    /// to the logs: a dropped holder's ref is forgotten, an added holder is
    /// appended the current frame, and an entry left with no holder is
    /// removed. `holders` is the caller's buffer.
    fn retain_sealed(
        &self,
        st: &mut SegStripe<V>,
        stripe: usize,
        key: u64,
        holders: &mut Vec<u32>,
        f: &mut EditHolders<'_, V>,
    ) {
        let Some(entry) = st.sealed.get(key) else {
            return;
        };
        let (version, held) = (entry.version, entry.refs.as_slice());
        entry.holders_into(holders);
        let frame = self.read_sealed(&st.segments, stripe, key, entry, |flat| {
            f(key, holders, V::view(flat, Shared::default()));
            holders.sort_unstable();
            (holders.iter().any(|&p| held.iter().all(|r| r.peer != p)))
                .then(|| entry_frame(key, version, |out| out.extend_from_slice(flat)))
        });
        if held.iter().map(|r| r.peer).eq(holders.iter().copied()) {
            return;
        }
        if holders.is_empty() {
            st.sealed.remove(key);
            return;
        }
        let mut refs: Vec<FrameRef> = (held.iter().copied())
            .filter(|r| holders.binary_search(&r.peer).is_ok())
            .collect();
        let added: Vec<u32> = (holders.iter().copied())
            .filter(|&p| held.iter().all(|r| r.peer != p))
            .collect();
        if let Some(frame) = frame {
            for peer in added {
                let offset = self.append(st, stripe, peer, &frame);
                refs.push(FrameRef { peer, offset });
            }
        }
        refs.sort_unstable_by_key(|r| r.peer);
        if let Some(entry) = st.sealed.get_mut(key) {
            entry.refs = Refs::from(refs);
        }
    }

    /// Keys of the sealed tier, ascending — the canonical order of its
    /// sweeps (the table's position order must not leak into un-seal
    /// decisions or frame offsets).
    fn sealed_keys(st: &SegStripe<V>) -> Vec<u64> {
        let mut keys = Vec::with_capacity(st.sealed.len());
        keys.extend(st.sealed.keys());
        keys.sort_unstable();
        keys
    }

    /// Sweeps the hot tier's holder sets ([`Hot::retain`]), keeping the
    /// hot weight in step with what the sweep changed.
    fn retain_hot(&self, st: &mut SegStripe<V>, f: &mut EditHolders<'_, V>) {
        let (before, after) = st.hot.retain(f, &|hot, pos| self.weight(hot, pos));
        st.hot_weight = st.hot_weight + after - before;
    }
}

impl<V: Record, C: StoreCodec<V>> Store<V> for SegmentStore<V, C> {
    fn get(&self, stripe: usize, key: u64, f: &mut dyn FnMut(Option<&Slot<V>>)) {
        let st = self.stripes[stripe].read();
        match st.hot.find(key) {
            Some(pos) => {
                let slot = st.hot.slot(pos, HOLDERS.take());
                f(Some(&slot));
                HOLDERS.set(slot.holders);
            }
            None => self.read_cold(&st, stripe, key, f),
        }
    }

    fn get_many(
        &self,
        stripe: usize,
        keys: &[u64],
        f: &mut dyn FnMut(usize, Option<Found<'_, V>>),
    ) {
        let st = self.stripes[stripe].read();
        let mut holders = HOLDERS.take();
        for (i, &key) in keys.iter().enumerate() {
            match st.hot.find(key) {
                Some(pos) => f(i, Some(st.hot.found(st.hot.at(pos).1, &mut holders))),
                None => {
                    self.read_cold_ref(&st, stripe, key, &mut holders, &mut |found| f(i, found))
                }
            }
        }
        HOLDERS.set(holders);
    }

    fn upsert(
        &self,
        stripe: usize,
        key: u64,
        default: &mut dyn FnMut() -> Slot<V>,
        update: &mut dyn FnMut(&mut Slot<V>),
    ) {
        let mut guard = self.stripes[stripe].write();
        let st = &mut *guard;
        if let Some(entry) = st.sealed.get(key) {
            // An upsert always merges content: un-seal, then update hot.
            let mut slot = self.sealed_slot(st, stripe, key, entry);
            update(&mut slot);
            self.unseal(st, key, slot);
        } else if let Some(pos) = st.hot.find(key) {
            let mut slot = st.hot.slot(pos, HOLDERS.take());
            let before = self.weight(&st.hot, pos);
            update(&mut slot);
            st.hot.write(pos, &slot);
            st.hot_weight = st.hot_weight - before + self.weight(&st.hot, pos);
            HOLDERS.set(slot.holders);
        } else {
            let mut slot = default();
            if slot.holders.is_empty() {
                slot.holders = HOLDERS.take();
                slot.holders.clear();
            }
            update(&mut slot);
            let pos = st.hot.insert(key, &slot);
            st.hot_weight += self.weight(&st.hot, pos);
            self.queue(st, key);
            HOLDERS.set(slot.holders);
        }
        self.enforce_budget(st, stripe);
    }

    fn scan(&self, stripe: usize, f: &mut dyn FnMut(u64, &Slot<V>, Tier)) {
        let st = self.stripes[stripe].read();
        let mut holders = Vec::new();
        for pos in 0..st.hot.len() as u32 {
            let slot = st.hot.slot(pos, holders);
            f(st.hot.at(pos).0, &slot, Tier::Hot);
            holders = slot.holders;
        }
        for key in Self::sealed_keys(&st) {
            if let Some(entry) = st.sealed.get(key) {
                let slot = self.sealed_slot(&st, stripe, key, entry);
                let frame_bytes = entry.frame_len();
                f(key, &slot, Tier::Sealed { frame_bytes });
            }
        }
    }

    fn scan_ref(&self, stripe: usize, f: &mut dyn FnMut(u64, Found<'_, V>, Tier)) {
        let st = self.stripes[stripe].read();
        let mut holders = Vec::new();
        for pos in 0..st.hot.len() as u32 {
            let (key, parts) = st.hot.at(pos);
            f(key, st.hot.found(parts, &mut holders), Tier::Hot);
        }
        for key in Self::sealed_keys(&st) {
            if let Some(entry) = st.sealed.get(key) {
                let tier = Tier::Sealed {
                    frame_bytes: entry.frame_len(),
                };
                self.sealed_found(&st, stripe, key, entry, &mut holders, |found| {
                    f(key, found, tier)
                });
            }
        }
    }

    fn scan_mut(
        &self,
        stripe: usize,
        pick: &mut dyn FnMut(V::Ref<'_>) -> bool,
        f: &mut dyn FnMut(u64, &mut V),
    ) {
        let mut guard = self.stripes[stripe].write();
        let st = &mut *guard;
        let (before, after) = st.hot.sweep(pick, f, &|hot, pos| self.weight(hot, pos));
        st.hot_weight = st.hot_weight + after - before;
        for key in Self::sealed_keys(st) {
            self.edit_sealed(st, stripe, key, pick, f);
        }
        self.enforce_budget(st, stripe);
    }

    fn retain(&self, stripe: usize, f: &mut EditHolders<'_, V>) {
        let mut guard = self.stripes[stripe].write();
        let st = &mut *guard;
        self.retain_hot(st, f);
        let mut holders = Vec::new();
        for key in Self::sealed_keys(st) {
            self.retain_sealed(st, stripe, key, &mut holders, f);
        }
        self.enforce_budget(st, stripe);
    }

    fn len(&self, stripe: usize) -> usize {
        let st = self.stripes[stripe].read();
        st.hot.len() + st.sealed.len()
    }

    fn table_bytes(&self, stripe: usize) -> TableBytes {
        let st = self.stripes[stripe].read();
        let spilled_refs: usize = st.sealed.iter().map(|(_, e)| e.refs.spilled_bytes()).sum();
        TableBytes {
            hot: st.hot.bytes() + (st.dirty.capacity() * std::mem::size_of::<u64>()) as u64,
            records: (st.hot.arena.len() - st.hot.dead) as u64,
            dead_records: st.hot.dead as u64,
            sealed: st.sealed.bytes() + spilled_refs as u64,
        }
    }

    fn recover(
        &self,
        stripe: usize,
        peers: &[u32],
        volume: &mut dyn FnMut(V::Ref<'_>) -> (u64, u64),
        stats: &mut RecoveryStats,
    ) {
        let mut guard = self.stripes[stripe].write();
        let st = &mut *guard;
        // Phase 1: replay each restarting peer's log front to back,
        // keeping the latest intact frame per key — `version` plus where
        // the frame sits (`offset`, payload length), so the cold path
        // below can rebuild a [`SealedEntry`] from nothing.
        // A log is *cold* when this store has not opened it before: it
        // was written by an earlier process.
        let mut replay: HashMap<u32, (HashMap<u64, Replayed>, bool)> = HashMap::new();
        for &p in peers {
            let cold = !st.segments.contains_key(&p);
            let latest = self
                .replay_log(st, stripe, p, stats)
                .expect("replay segment log and truncate its corrupt tail");
            // A key's frames lie in a log in the order of their versions,
            // so its latest frame holds the log's newest version of it.
            let newest = latest.values().map(|f| f.version).max().unwrap_or(0);
            st.seals = st.seals.max(newest);
            replay.insert(p, (latest, cold));
        }
        // Phase 2: reconcile every entry's holder set with what survived.
        // Hot copies lived in the restarting peers' RAM: gone.
        self.retain_hot(st, &mut |_, holders, value| {
            let before = holders.len();
            holders.retain(|h| !peers.contains(h));
            let removed = (before - holders.len()) as u64;
            stats.copies_lost += removed;
            if removed > 0 && holders.is_empty() {
                let (postings, bytes) = volume(value);
                stats.keys_lost += 1;
                stats.postings_lost += postings;
                stats.bytes_lost += bytes;
            }
        });
        for key in Self::sealed_keys(st) {
            if let Some(entry) = st.sealed.get_mut(key) {
                if !entry
                    .refs
                    .as_slice()
                    .iter()
                    .any(|r| peers.contains(&r.peer))
                {
                    continue;
                }
                let frame_len = entry.frame_len();
                let mut recovered = 0u64;
                let mut lost = 0u64;
                let version = entry.version;
                let mut refs = entry.refs.as_slice().to_vec();
                refs.retain(|r| {
                    if !peers.contains(&r.peer) {
                        return true;
                    }
                    let intact = replay
                        .get(&r.peer)
                        .and_then(|(m, _)| m.get(&key))
                        .is_some_and(|f| f.version == version);
                    if intact {
                        recovered += 1;
                    } else {
                        lost += 1;
                    }
                    intact
                });
                entry.refs = Refs::from(refs);
                stats.copies_recovered += recovered;
                stats.copies_lost += lost;
                if entry.refs.as_slice().is_empty() {
                    // Every replica's frame is gone: the value is
                    // unrecoverable, so the damage is sized by its sealed
                    // payload (it cannot be read to count postings).
                    st.sealed.remove(key);
                    stats.keys_lost += 1;
                    stats.bytes_lost += frame_len - FRAME_HEADER_BYTES as u64;
                } else if recovered > 0 {
                    let (postings, _) =
                        self.read_sealed(&st.segments, stripe, key, entry, |flat| {
                            volume(V::view(flat, Shared::default()))
                        });
                    stats.postings_recovered += postings * recovered;
                }
            }
        }
        // Phase 3 — the cold path: keys the cold logs carry but this store
        // has never seen (a fresh process re-opened over a previous
        // process's directory, where *both* in-memory tiers start empty).
        // Rebuild each such key's sealed entry from the replicas' latest
        // intact frames: the highest version wins, holders whose latest
        // frame is older held a stale copy (dropped from the holder set
        // before the last re-seal) and contribute nothing. A log this
        // store has written is not cold: its keys missing from memory were
        // removed here and stay removed.
        // `(version, payload_len, refs)` of the latest frames per key.
        let mut fresh: HashMap<u64, (u64, u32, Vec<FrameRef>)> = HashMap::new();
        for (&p, (latest, _)) in replay.iter().filter(|(_, (_, cold))| *cold) {
            for (&key, frame) in latest {
                if st.hot.find(key).is_some() || st.sealed.contains(key) {
                    continue;
                }
                let r = FrameRef {
                    peer: p,
                    offset: frame.offset,
                };
                let (version, payload_len, refs) = fresh
                    .entry(key)
                    .or_insert_with(|| (frame.version, frame.payload_len, Vec::new()));
                match frame.version.cmp(version) {
                    std::cmp::Ordering::Greater => {
                        *version = frame.version;
                        *payload_len = frame.payload_len;
                        *refs = vec![r];
                    }
                    std::cmp::Ordering::Equal => refs.push(r),
                    std::cmp::Ordering::Less => {}
                }
            }
        }
        let mut fresh: Vec<_> = fresh.into_iter().collect();
        fresh.sort_unstable_by_key(|(key, _)| *key);
        for (key, (version, payload_len, mut refs)) in fresh {
            // Ascending peer order: `refs` doubles as the holder set.
            refs.sort_unstable_by_key(|r| r.peer);
            let entry = SealedEntry {
                version,
                payload_len,
                refs: Refs::from(refs),
            };
            let replicas = entry.refs.as_slice().len() as u64;
            let (postings, _) = self.read_sealed(&st.segments, stripe, key, &entry, |flat| {
                volume(V::view(flat, Shared::default()))
            });
            stats.copies_recovered += replicas;
            stats.postings_recovered += postings * replicas;
            st.sealed.insert(key, entry);
        }
    }

    fn sync(&self) {
        for stripe in 0..self.stripes.len() {
            let mut guard = self.stripes[stripe].write();
            let st = &mut *guard;
            while let Some(key) = st.dirty.pop_front() {
                self.seal(st, stripe, key);
            }
            debug_assert!(
                self.unbounded() || st.hot.len() == 0 && st.hot_weight == 0,
                "sync left hot entries"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test codec: a `Vec<u32>` weighs 4 bytes an element. Its record is
    /// its wire encoding, `[count: u32][elements: u32 each]`.
    struct VecCodec;

    impl StoreCodec<Vec<u32>> for VecCodec {
        fn weight(&self, value: Vec<u32>) -> u64 {
            4 * value.len() as u64
        }
    }

    /// Payload bytes of a sealed `Vec<u32>` of `n` elements: the entry
    /// header and the record.
    fn payload_bytes(n: usize) -> usize {
        ENTRY_HEADER_BYTES + 4 + 4 * n
    }

    fn seg(hot_bytes: u64) -> SegmentStore<Vec<u32>, VecCodec> {
        SegmentStore::ephemeral(VecCodec, hot_bytes)
    }

    /// A budget no test fills: everything stays hot until `sync` seals it.
    const ROOMY: u64 = 1 << 40;

    /// Where `peer`'s log for `stripe` lives in a store that has sealed.
    fn segment_path<C: StoreCodec<Vec<u32>>>(
        store: &SegmentStore<Vec<u32>, C>,
        peer: u32,
        stripe: usize,
    ) -> PathBuf {
        let dir = store.dir().expect("the store has sealed");
        dir.join(format!("peer-{peer}/stripe-{stripe}.seg"))
    }

    fn insert(store: &dyn Store<Vec<u32>>, stripe: usize, key: u64, vals: &[u32], holders: &[u32]) {
        store.upsert(
            stripe,
            key,
            &mut || Slot {
                value: Vec::new(),
                holders: holders.to_vec(),
            },
            &mut |slot| slot.value.extend_from_slice(vals),
        );
    }

    fn read_value(store: &dyn Store<Vec<u32>>, stripe: usize, key: u64) -> Option<Vec<u32>> {
        let mut out = None;
        store.get(stripe, key, &mut |slot| out = slot.map(|s| s.value.clone()));
        out
    }

    /// Live on-disk bytes of the stripe's sealed frames, one frame per
    /// holding replica.
    fn sealed_bytes(store: &dyn Store<Vec<u32>>, stripe: usize) -> u64 {
        let mut bytes = 0;
        store.scan_ref(stripe, &mut |_, found, tier| {
            if let Tier::Sealed { frame_bytes } = tier {
                bytes += frame_bytes * found.holders.len() as u64;
            }
        });
        bytes
    }

    fn tier_of(store: &dyn Store<Vec<u32>>, stripe: usize, key: u64) -> Option<Tier> {
        let mut out = None;
        store.scan(stripe, &mut |k, _, tier| {
            if k == key {
                out = Some(tier);
            }
        });
        out
    }

    #[test]
    fn mem_store_roundtrip_and_scan() {
        // The in-memory store is the unbounded one.
        let store = seg(u64::MAX);
        insert(&store, 3, 42, &[7, 9], &[0]);
        insert(&store, 3, 42, &[11], &[0]);
        assert_eq!(read_value(&store, 3, 42), Some(vec![7, 9, 11]));
        assert_eq!(read_value(&store, 3, 43), None);
        assert_eq!(store.len(3), 1);
        assert_eq!(sealed_bytes(&store, 3), 0);
        assert_eq!(tier_of(&store, 3, 42), Some(Tier::Hot));
    }

    #[test]
    fn mem_store_recover_drops_restarting_copies() {
        let store = seg(u64::MAX);
        insert(&store, 0, 1, &[5], &[0, 1]);
        insert(&store, 0, 2, &[6], &[1]);
        let mut stats = RecoveryStats::default();
        store.recover(
            0,
            &[1],
            &mut |v| (v.len() as u64, 4 * v.len() as u64),
            &mut stats,
        );
        assert_eq!(stats.copies_lost, 2);
        assert_eq!(stats.keys_lost, 1, "key 2's only holder restarted");
        assert_eq!(
            stats.copies_recovered, 0,
            "RAM-only storage recovers nothing"
        );
        assert_eq!(read_value(&store, 0, 1), Some(vec![5]));
        assert_eq!(read_value(&store, 0, 2), None);
    }

    #[test]
    fn an_unbounded_store_stays_in_memory_through_every_operation() {
        let store = seg(u64::MAX);
        for key in [9u64, 3, 7, 1] {
            insert(&store, 4, key, &[key as u32], &[0, 1]);
        }
        insert(&store, 4, 5, &[5], &[1]);
        insert(&store, 4, 3, &[30], &[0, 1]);
        store.scan_mut(4, &mut |_| true, &mut |_, value| value.push(100));
        store.retain(4, &mut |key, holders, _| {
            if key == 7 {
                holders.clear();
            }
        });
        store.sync();
        let mut order = Vec::new();
        store.scan(4, &mut |key, _, tier| {
            assert_eq!(tier, Tier::Hot, "key {key} left the hot tier");
            order.push(key);
        });
        // Position order: insertion order, key 7's removal filled by the
        // last entry (key 5).
        assert_eq!(order, vec![9, 3, 5, 1]);
        assert_eq!(read_value(&store, 4, 3), Some(vec![3, 30, 100]));
        assert_eq!(sealed_bytes(&store, 4), 0);
        assert_eq!(store.table_bytes(4).sealed, 0);
        let mut stats = RecoveryStats::default();
        store.recover(4, &[1], &mut |v| (v.len() as u64, 0), &mut stats);
        assert_eq!(
            stats,
            RecoveryStats {
                copies_lost: 4,
                keys_lost: 1,
                postings_lost: 2,
                ..RecoveryStats::default()
            },
            "peer 1's copies are gone, and key 5 had no other"
        );
        assert_eq!(read_value(&store, 4, 5), None);
        let mut holders = Vec::new();
        store.scan(4, &mut |_, slot, _| holders.push(slot.holders.to_vec()));
        assert_eq!(holders, vec![vec![0]; 3]);
        assert!(store.dir().is_none(), "an unbounded store made a directory");
    }

    #[test]
    fn segment_store_spills_over_budget_and_reads_back() {
        // Stripe budget 0: every upsert seals immediately.
        let store = seg(0);
        insert(&store, 1, 10, &[1, 2, 3], &[0, 2]);
        assert_eq!(read_value(&store, 1, 10), Some(vec![1, 2, 3]));
        assert!(matches!(tier_of(&store, 1, 10), Some(Tier::Sealed { .. })));
        // Two replicas, one frame each, on disk.
        let frame = (FRAME_HEADER_BYTES + payload_bytes(3)) as u64;
        assert_eq!(sealed_bytes(&store, 1), 2 * frame);
        // A further upsert un-seals, merges, and re-seals under a bumped
        // version; the value stays correct throughout.
        insert(&store, 1, 10, &[4], &[0, 2]);
        assert_eq!(read_value(&store, 1, 10), Some(vec![1, 2, 3, 4]));
        let frame2 = frame + 4;
        assert_eq!(
            sealed_bytes(&store, 1),
            2 * frame2,
            "stale frames are not live bytes"
        );
    }

    #[test]
    fn segment_store_generous_budget_stays_hot() {
        let store = seg(ROOMY);
        insert(&store, 5, 77, &[1], &[0]);
        assert_eq!(tier_of(&store, 5, 77), Some(Tier::Hot));
        assert_eq!(sealed_bytes(&store, 5), 0);
        store.sync();
        assert!(matches!(tier_of(&store, 5, 77), Some(Tier::Sealed { .. })));
        assert!(sealed_bytes(&store, 5) > 0);
        assert_eq!(read_value(&store, 5, 77), Some(vec![1]));
    }

    #[test]
    fn sealed_holder_changes_write_through_without_unsealing() {
        let store = seg(0);
        insert(&store, 2, 5, &[9], &[0, 1]);
        let before = sealed_bytes(&store, 2);
        // Repair-style sweep: add holder 3, drop holder 1, value untouched.
        store.retain(2, &mut |_, holders, _| {
            holders.retain(|&h| h != 1);
            holders.push(3);
            holders.sort_unstable();
        });
        assert!(matches!(tier_of(&store, 2, 5), Some(Tier::Sealed { .. })));
        assert_eq!(
            sealed_bytes(&store, 2),
            before,
            "one frame dropped, one appended"
        );
        let mut holders = Vec::new();
        store.scan(2, &mut |_, slot, _| holders = slot.holders.to_vec());
        assert_eq!(holders, vec![0, 3]);
        // A value-changing sweep un-seals.
        store.scan_mut(2, &mut |_| true, &mut |_, value| value.push(10));
        assert_eq!(read_value(&store, 2, 5), Some(vec![9, 10]));
    }

    #[test]
    fn cold_reopen_recovers_sealed_entries() {
        // A *fresh* store over a previous store's directory (the process
        // restarted): both in-memory tiers start empty, and recover must
        // rebuild the sealed tier from the logs alone.
        let dir = tempfile::tempdir().expect("store dir");
        let disk_before;
        {
            let store = SegmentStore::at_dir(VecCodec, dir.path().to_path_buf(), 0);
            insert(&store, 2, 10, &[1, 2, 3], &[0, 1]);
            insert(&store, 2, 11, &[9], &[1]);
            // Re-seal key 10 under a bumped version: the stale frames
            // must not resurface after the cold recovery.
            insert(&store, 2, 10, &[4], &[0, 1]);
            store.sync();
            disk_before = sealed_bytes(&store, 2);
        }
        let store = SegmentStore::at_dir(VecCodec, dir.path().to_path_buf(), 0);
        assert_eq!(store.len(2), 0, "a cold store starts empty");
        let mut stats = RecoveryStats::default();
        store.recover(
            2,
            &[0, 1],
            &mut |v| (v.len() as u64, 4 * v.len() as u64),
            &mut stats,
        );
        assert_eq!(stats.copies_recovered, 3, "2 of key 10 + 1 of key 11");
        assert_eq!(stats.postings_recovered, 2 * 4 + 1);
        assert_eq!(stats.keys_lost, 0);
        assert_eq!(stats.copies_lost, 0);
        assert_eq!(read_value(&store, 2, 10), Some(vec![1, 2, 3, 4]));
        assert_eq!(read_value(&store, 2, 11), Some(vec![9]));
        assert_eq!(
            sealed_bytes(&store, 2),
            disk_before,
            "live-byte accounting must match the store that wrote the logs"
        );
        // The rebuilt refs double as holder sets, ascending.
        let mut holders = Vec::new();
        store.get(2, 10, &mut |slot| {
            holders = slot.expect("recovered").holders.to_vec();
        });
        assert_eq!(holders, vec![0, 1]);
    }

    /// A byte string weighs its length. Used to pin that sealed payloads
    /// are opaque to the store.
    struct RawCodec;

    impl StoreCodec<Vec<u8>> for RawCodec {
        fn weight(&self, value: Vec<u8>) -> u64 {
            value.len() as u64
        }
    }

    #[test]
    fn sealed_payloads_round_trip_byte_identically() {
        // Posting blocks carry their codec in-band (the `0x00` extended
        // header marker followed by a codec tag — see `hdk_ir`). The store
        // must treat payloads as opaque bytes so that tag survives
        // seal -> sync -> restart-recovery unchanged.
        let tagged: Vec<u8> = vec![0x00, 0x01, 0x03, 0b0000_0000, 5, 2, 101];
        let legacy: Vec<u8> = vec![0x03, 0x05, 0x02, 0x65];
        let store: SegmentStore<Vec<u8>, RawCodec> = SegmentStore::ephemeral(RawCodec, ROOMY);
        for (key, payload) in [(1u64, &tagged), (2u64, &legacy)] {
            store.upsert(
                0,
                key,
                &mut || Slot {
                    value: Vec::new(),
                    holders: vec![0],
                },
                &mut |slot| slot.value = payload.clone(),
            );
        }
        store.sync();
        let mut stats = RecoveryStats::default();
        store.recover(0, &[0], &mut |v| (v.len() as u64, 0), &mut stats);
        assert_eq!(stats.copies_recovered, 2);
        let mut got = Vec::new();
        store.get(0, 1, &mut |slot| {
            got = slot.expect("recovered").value.clone();
        });
        assert_eq!(got, tagged, "codec-tagged payload survives bit-exact");
        store.get(0, 2, &mut |slot| {
            got = slot.expect("recovered").value.clone();
        });
        assert_eq!(got, legacy);
    }

    #[test]
    fn retain_removes_entries_in_both_tiers() {
        let store = seg(ROOMY);
        insert(&store, 4, 1, &[1], &[0]);
        insert(&store, 4, 2, &[2], &[0]);
        store.sync(); // both sealed
        insert(&store, 4, 3, &[3], &[0]); // hot
        store.retain(4, &mut |k, holders, _| {
            if k == 2 || k == 3 {
                holders.clear();
            }
        });
        assert_eq!(store.len(4), 1);
        assert_eq!(read_value(&store, 4, 1), Some(vec![1]));
        assert_eq!(read_value(&store, 4, 2), None);
        assert_eq!(read_value(&store, 4, 3), None);
    }

    #[test]
    fn synced_restart_recovers_every_copy() {
        let store = seg(ROOMY);
        insert(&store, 0, 1, &[1, 2], &[0, 1]);
        insert(&store, 0, 9, &[3], &[1, 2]);
        store.sync();
        let mut stats = RecoveryStats::default();
        for p in [0u32, 1, 2] {
            // Restart everyone, one peer at a time.
            store.recover(0, &[p], &mut |v| (v.len() as u64, 0), &mut stats);
        }
        assert_eq!(stats.copies_recovered, 4);
        assert_eq!(stats.copies_lost, 0);
        assert_eq!(stats.keys_lost, 0);
        assert_eq!(stats.frames_replayed, 4);
        assert_eq!(stats.frames_discarded, 0);
        assert!(stats.bytes_replayed > 0);
        assert_eq!(read_value(&store, 0, 1), Some(vec![1, 2]));
        assert_eq!(read_value(&store, 0, 9), Some(vec![3]));
    }

    #[test]
    fn unsynced_restart_loses_hot_copies_only() {
        let store = seg(ROOMY);
        insert(&store, 0, 1, &[1], &[0, 1]);
        insert(&store, 0, 2, &[2], &[1]);
        // No sync: everything is hot, nothing is on disk.
        let mut stats = RecoveryStats::default();
        store.recover(0, &[1], &mut |v| (v.len() as u64, 4), &mut stats);
        assert_eq!(stats.copies_recovered, 0);
        assert_eq!(stats.copies_lost, 2);
        assert_eq!(stats.keys_lost, 1);
        assert_eq!(
            read_value(&store, 0, 1),
            Some(vec![1]),
            "peer 0 still holds it"
        );
        assert_eq!(read_value(&store, 0, 2), None);
    }

    #[test]
    fn corrupt_tail_is_truncated_and_only_its_copies_lost() {
        let store = seg(ROOMY);
        insert(&store, 0, 1, &[1], &[0, 1]);
        insert(&store, 0, 2, &[2], &[1]);
        store.sync();
        // Chop 3 bytes off peer 1's log: the *last* frame (key 2, its sole
        // copy) is now truncated mid-frame.
        let path = segment_path(&store, 1, 0);
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let mut stats = RecoveryStats::default();
        store.recover(0, &[1], &mut |v| (v.len() as u64, 4), &mut stats);
        assert_eq!(stats.frames_discarded, 1);
        assert_eq!(stats.frames_replayed, 1, "the first frame is intact");
        assert_eq!(stats.copies_recovered, 1, "key 1's copy survives");
        assert_eq!(stats.copies_lost, 1);
        assert_eq!(stats.keys_lost, 1, "key 2 had no other replica");
        assert_eq!(read_value(&store, 0, 1), Some(vec![1]));
        assert_eq!(read_value(&store, 0, 2), None);
        // The file was cut back to its intact prefix: appends work again.
        insert(&store, 0, 3, &[3], &[1]);
        store.sync();
        let mut again = RecoveryStats::default();
        store.recover(0, &[1], &mut |v| (v.len() as u64, 4), &mut again);
        assert_eq!(again.frames_discarded, 0);
        assert_eq!(read_value(&store, 0, 3), Some(vec![3]));
        // A *bit-flipped* last frame (key 3's only copy): the file keeps
        // its length, so recovery has to cut the corrupt frame off itself
        // — otherwise the next append would sit behind garbage, away from
        // the offset the store records for it.
        let mut log = std::fs::read(&path).unwrap();
        let intact = log.len() as u64 - (FRAME_HEADER_BYTES + payload_bytes(1)) as u64;
        *log.last_mut().unwrap() ^= 0x10;
        std::fs::write(&path, &log).unwrap();
        let mut flipped = RecoveryStats::default();
        store.recover(0, &[1], &mut |v| (v.len() as u64, 4), &mut flipped);
        assert_eq!(flipped.frames_discarded, 1);
        assert_eq!(flipped.keys_lost, 1, "key 3 had no other replica");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);
        assert_eq!(read_value(&store, 0, 3), None);
        insert(&store, 0, 4, &[4, 5], &[1]);
        store.sync();
        assert_eq!(read_value(&store, 0, 4), Some(vec![4, 5]));
        assert_eq!(read_value(&store, 0, 1), Some(vec![1]));
        let mut clean = RecoveryStats::default();
        store.recover(0, &[1], &mut |v| (v.len() as u64, 4), &mut clean);
        assert_eq!(clean.frames_discarded, 0);
        assert_eq!(clean.frames_replayed, 2, "key 1's frame and key 4's");
        assert_eq!(clean.copies_recovered, 2);
    }

    /// Seal, sealed read, un-sealing upsert, sync, a clipped tail, recovery
    /// and read-back on stripe 0: everything a caller can observe of it.
    fn seal_clip_recover_script(
        store: &SegmentStore<Vec<u32>, VecCodec>,
    ) -> (Vec<Option<Vec<u32>>>, RecoveryStats) {
        for key in 0..12u64 {
            insert(store, 0, key, &[key as u32, 7], &[0, 1]);
        }
        let mut seen = vec![read_value(store, 0, 3)];
        assert!(matches!(tier_of(store, 0, 3), Some(Tier::Sealed { .. })));
        insert(store, 0, 3, &[99], &[0, 1]);
        seen.push(read_value(store, 0, 3));
        insert(store, 0, 12, &[12], &[1]);
        store.sync();
        // Peer 1's last frame is key 12's only copy.
        let path = segment_path(store, 1, 0);
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let mut stats = RecoveryStats::default();
        store.recover(0, &[1], &mut |v| (v.len() as u64, 4), &mut stats);
        seen.extend((0..14u64).map(|key| read_value(store, 0, key)));
        insert(store, 0, 13, &[13], &[1]);
        store.sync();
        seen.push(read_value(store, 0, 13));
        (seen, stats)
    }

    #[test]
    fn out_of_descriptors_state_serves_the_same_values() {
        let budget = crate::NUM_STRIPES as u64 * 16;
        let keeping = seg(budget);
        let expected = seal_clip_recover_script(&keeping);
        assert_eq!(expected.1.frames_discarded, 1);
        assert_eq!(expected.1.keys_lost, 1, "key 12 had no other replica");
        assert!(keeping.stripes[0]
            .read()
            .segments
            .values()
            .all(|seg| seg.file.is_some()));

        // The state an `EMFILE` puts a store into, with handles to drop...
        let dropped = seg(budget);
        insert(&dropped, 5, 100, &[1], &[0, 1]);
        dropped.sync();
        dropped.stop_keeping_handles();
        assert!(dropped.stripes[5]
            .read()
            .segments
            .values()
            .all(|seg| seg.file.is_none()));
        assert_eq!(read_value(&dropped, 5, 100), Some(vec![1]));
        // ...and entered before the first segment exists.
        let never_kept = seg(budget);
        never_kept.stop_keeping_handles();
        for store in [&dropped, &never_kept] {
            assert_eq!(seal_clip_recover_script(store), expected);
            let st = store.stripes[0].read();
            assert_eq!(st.segments.len(), 2);
            assert!(st.segments.values().all(|seg| seg.file.is_none()));
        }
    }

    #[test]
    fn positional_reads_share_no_cursor() {
        // One stripe, every upsert seals at once: readers decode sealed
        // frames from the very file the writer is un-sealing, re-sealing
        // and appending to — one holder, so no replica covers for a read
        // that went to the wrong offset. A value is `[key, round,
        // key ^ round]`: only what an upsert wrote passes for one.
        const KEYS: u64 = 200;
        const ROUNDS: u32 = 3_000;
        let store = seg(0);
        let value = |key: u64, round: u32| vec![key as u32, round, key as u32 ^ round];
        let write = |key: u64, round: u32| {
            store.upsert(
                9,
                key,
                &mut || Slot {
                    value: Vec::new(),
                    holders: vec![0],
                },
                &mut |slot| slot.value = value(key, round),
            );
        };
        for key in 0..KEYS {
            write(key, 0);
        }
        let keys: Vec<u64> = (0..KEYS).collect();
        let done = AtomicBool::new(false);
        let start = std::sync::Barrier::new(5);
        let mut model: HashMap<u64, Vec<u32>> = keys.iter().map(|&k| (k, value(k, 0))).collect();
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let mut passes = 0u64;
                        while !done.load(Ordering::Relaxed) || passes == 0 {
                            store.get_many(9, &keys, &mut |i, slot| {
                                let v = &slot.expect("every key is stored").value;
                                assert_eq!(v.len(), 3);
                                assert_eq!(u64::from(v[0]), keys[i]);
                                assert!(v[1] <= ROUNDS);
                                assert_eq!(v[2], v[0] ^ v[1], "not a value any upsert wrote");
                            });
                            passes += 1;
                        }
                        passes
                    })
                })
                .collect();
            start.wait();
            for round in 1..=ROUNDS {
                let key = u64::from(round) * 7 % KEYS;
                write(key, round);
                model.insert(key, value(key, round));
            }
            done.store(true, Ordering::Relaxed);
            for reader in readers {
                assert!(reader.join().expect("reader panicked") > 0);
            }
        });
        let mut scanned = HashMap::new();
        store.scan(9, &mut |key, slot, tier| {
            assert!(matches!(tier, Tier::Sealed { .. }));
            assert_eq!(slot.holders.to_vec(), vec![0]);
            scanned.insert(key, slot.value.clone());
        });
        assert_eq!(scanned, model);
    }

    #[test]
    fn stale_versions_are_not_recovered() {
        let store = seg(ROOMY);
        insert(&store, 0, 1, &[1], &[0, 1]);
        store.sync(); // seals v1 to peers 0 and 1
        insert(&store, 0, 1, &[2], &[0, 1]); // un-seals; v1 frames go stale
                                             // Restart peer 1 while the entry is hot: its v1 frame is on disk
                                             // but stale — the copy must be dropped, not resurrected.
        let mut stats = RecoveryStats::default();
        store.recover(0, &[1], &mut |v| (v.len() as u64, 4), &mut stats);
        assert_eq!(stats.copies_recovered, 0);
        assert_eq!(stats.copies_lost, 1);
        assert_eq!(stats.keys_lost, 0);
        assert_eq!(read_value(&store, 0, 1), Some(vec![1, 2]));
        let mut holders = Vec::new();
        store.scan(0, &mut |_, slot, _| holders = slot.holders.to_vec());
        assert_eq!(holders, vec![0]);
    }

    #[test]
    fn durable_dir_survives_a_new_store_instance() {
        let scratch = tempfile::tempdir().unwrap();
        let dir = scratch.path().join("segments");
        {
            let store = SegmentStore::at_dir(VecCodec, dir.clone(), ROOMY);
            insert(&store, 7, 99, &[1, 2, 3], &[0]);
            store.sync();
        }
        // A fresh process (fresh store) over the same directory: nothing
        // is indexed yet, but the log bytes are there for replay.
        let raw = std::fs::read(dir.join("peer-0").join("stripe-7.seg")).unwrap();
        assert_eq!(
            raw[..LOG_HEADER_BYTES],
            LOG_HEADER,
            "a log starts with its header"
        );
        match read_frame(&raw, LOG_HEADER_BYTES) {
            FrameRead::Frame { payload, end } => {
                assert_eq!(end, raw.len());
                assert_eq!(payload[0..8], 99u64.to_le_bytes());
                let record = &payload[ENTRY_HEADER_BYTES..];
                assert!(Vec::<u32>::check(record));
                assert_eq!(
                    Vec::<u32>::from_record(record, Shared::default()),
                    [1, 2, 3]
                );
            }
            other => panic!("expected one intact frame, got {other:?}"),
        }
    }

    /// An earlier build's frame: no log header, and an FNV-1a checksum.
    fn fnv_frame(payload: &[u8]) -> Vec<u8> {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in payload {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&h.to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn an_earlier_format_log_is_refused_and_left_untouched() {
        let scratch = tempfile::tempdir().unwrap();
        let dir = scratch.path().to_path_buf();
        let frame_payload = |key: u64| {
            let mut payload = key.to_le_bytes().to_vec();
            payload.extend_from_slice(&1u64.to_le_bytes());
            payload.extend_from_slice(&crate::wire::encode(&vec![key as u32]));
            payload
        };
        // Stripe 3: the earliest format, no log header and FNV-1a frames.
        // Stripe 4: format 2, the header and today's framer, an earlier
        // payload.
        let mut logs = Vec::new();
        for (stripe, header) in [(3, &b""[..]), (4, &b"HDKSEG\x02\x00"[..])] {
            let path = dir.join("peer-0").join(format!("stripe-{stripe}.seg"));
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            let mut old = header.to_vec();
            for key in [5u64, 6] {
                if header.is_empty() {
                    old.extend(fnv_frame(&frame_payload(key)));
                } else {
                    write_frame(&mut old, &frame_payload(key)).unwrap();
                }
            }
            std::fs::write(&path, &old).unwrap();
            logs.push((stripe, path, old));
        }
        let store = SegmentStore::at_dir(VecCodec, dir, 0);
        for (stripe, path, old) in &logs {
            let mut stats = RecoveryStats::default();
            store.recover(
                *stripe,
                &[0],
                &mut |v| (v.len() as u64, 4 * v.len() as u64),
                &mut stats,
            );
            assert_eq!(stats.logs_refused, 1);
            assert_eq!(
                (stats.frames_replayed, stats.frames_discarded),
                (0, 0),
                "no frame of the refused log was read as corrupt"
            );
            assert_eq!(stats.copies_recovered, 0);
            assert_eq!(store.len(*stripe), 0);
            assert_eq!(
                &std::fs::read(path).unwrap(),
                old,
                "the log is byte-for-byte intact"
            );
            // Nor is it written to: a seal into it fails loudly, naming
            // the format it found.
            let sealed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                insert(&store, *stripe, 7, &[7], &[0]);
            }));
            let message = sealed.expect_err("an append into the refused log went through");
            let message = message.downcast::<String>().expect("a formatted panic");
            let found = match stripe {
                3 => "(no log header; this build reads version 3)",
                _ => "(format version 2; this build reads version 3)",
            };
            assert!(message.contains(found), "{message}");
            assert_eq!(&std::fs::read(path).unwrap(), old);
        }
    }

    #[test]
    fn a_malformed_record_under_a_valid_checksum_falls_back_to_the_next_replica() {
        let store = seg(0);
        insert(&store, 0, 8, &[3, 4], &[0, 1]);
        // Peer 0's frame, the first tried: its record claims a third
        // element, under a checksum recomputed to match.
        let path = segment_path(&store, 0, 0);
        let log = std::fs::read(&path).unwrap();
        let FrameRead::Frame { payload, end } = read_frame(&log, LOG_HEADER_BYTES) else {
            panic!("one intact frame");
        };
        assert_eq!(end, log.len());
        let mut payload = payload.to_vec();
        payload[ENTRY_HEADER_BYTES] += 1;
        assert!(!Vec::<u32>::check(&payload[ENTRY_HEADER_BYTES..]));
        let mut forged = LOG_HEADER.to_vec();
        write_frame(&mut forged, &payload).unwrap();
        assert_eq!(forged.len(), log.len());
        std::fs::write(&path, &forged).unwrap();
        assert_eq!(read_value(&store, 0, 8), Some(vec![3, 4]));
        let mut looked_up = None;
        store.get_many(0, &[8], &mut |_, found| {
            looked_up = found.map(|f| (f.value, f.holders.to_vec()));
        });
        assert_eq!(looked_up, Some((vec![3, 4], vec![0, 1])));
        // With peer 1's frame forged too, no replica is readable: the read
        // fails loudly rather than serve a value no upsert wrote.
        std::fs::write(segment_path(&store, 1, 0), &forged).unwrap();
        let read =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| read_value(&store, 0, 8)));
        assert!(read.is_err(), "a malformed record was served");
    }

    #[test]
    fn empty_files_and_torn_headers_are_fresh_logs() {
        let scratch = tempfile::tempdir().unwrap();
        let dir = scratch.path().to_path_buf();
        std::fs::create_dir_all(dir.join("peer-0")).unwrap();
        std::fs::write(dir.join("peer-0").join("stripe-1.seg"), b"").unwrap();
        std::fs::write(dir.join("peer-0").join("stripe-2.seg"), &LOG_HEADER[..5]).unwrap();
        let store = SegmentStore::at_dir(VecCodec, dir.clone(), 0);
        let mut stats = RecoveryStats::default();
        for stripe in [1, 2] {
            store.recover(stripe, &[0], &mut |v| (v.len() as u64, 0), &mut stats);
        }
        assert_eq!(stats.logs_refused, 0);
        assert_eq!(stats.frames_discarded, 1, "the torn first append");
        for stripe in [1, 2] {
            insert(&store, stripe, 9, &[1, 2], &[0]);
            assert_eq!(read_value(&store, stripe, 9), Some(vec![1, 2]));
            let log = std::fs::read(dir.join("peer-0").join(format!("stripe-{stripe}.seg")));
            let log = log.unwrap();
            assert_eq!(log[..LOG_HEADER_BYTES], LOG_HEADER);
            let frame = FRAME_HEADER_BYTES + payload_bytes(2);
            assert_eq!(log.len(), LOG_HEADER_BYTES + frame);
            assert_eq!(
                sealed_bytes(&store, stripe),
                frame as u64,
                "the header is not live bytes"
            );
        }
    }

    #[test]
    fn a_single_replica_ref_sits_inline() {
        assert!(std::mem::size_of::<SealedEntry>() <= 40);
        let store = seg(0);
        insert(&store, 0, 1, &[1], &[0]);
        insert(&store, 0, 2, &[2], &[0, 1, 2]);
        let st = store.stripes[0].read();
        let spilled: Vec<usize> = [1, 2]
            .iter()
            .map(|&key| st.sealed.get(key).expect("sealed").refs.spilled_bytes())
            .collect();
        assert_eq!(spilled[0], 0);
        assert!(spilled[1] > 0);
    }

    #[test]
    fn budget_is_enforced_after_every_mutation() {
        // 128 stripes share the budget; give stripe granularity directly.
        let store = seg(crate::NUM_STRIPES as u64 * 8); // 8 bytes per stripe
        for key in 0..20u64 {
            insert(&store, 6, key, &[key as u32], &[0]);
        }
        // ≤ 8 hot bytes = at most two 4-byte values resident.
        let mut hot_bytes = 0u64;
        let mut sealed = 0usize;
        store.scan(6, &mut |_, slot, tier| match tier {
            Tier::Hot => hot_bytes += 4 * slot.value.len() as u64 * slot.holders.len() as u64,
            Tier::Sealed { .. } => sealed += 1,
        });
        assert!(hot_bytes <= 8, "hot tier over budget: {hot_bytes}");
        assert!(sealed >= 18);
        for key in 0..20u64 {
            assert_eq!(read_value(&store, 6, key), Some(vec![key as u32]));
        }
    }
}
