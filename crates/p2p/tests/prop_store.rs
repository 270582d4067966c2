//! The `SegmentStore` against a `BTreeMap` reference model: unbounded,
//! under a hot budget of 48 bytes per stripe, and under 64 KiB.
//!
//! A stripe packs its entries densely and indexes them by position, so a
//! removal moves the last entry into the hole and re-points its index
//! entry; a budgeted store keeps two such tables, and under a hot budget
//! of a few entries its keys seal, un-seal and re-seal every few
//! operations. Random `upsert` / `retain` / `scan_mut` / `sync` /
//! `recover` sequences — over few keys and few stripes, so updates,
//! removals and re-inserts of the same key interleave — must leave the
//! store with exactly the model's contents, lengths and holder sets after
//! every step: through `get`, `scan`, and the lookup path `get_many` —
//! which reads a sealed value from its frame's flat record.

use hdk_p2p::{
    Record, RecoveryStats, SegmentStore, Shared, Slot, Store, StoreCodec, TableBytes, Tier,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

const STRIPES: usize = 2;
/// Enough keys that an unbounded stripe outgrows its first chunk.
const MEM_KEYS: u64 = 600;
/// Few enough that every sweep of a budgeted stripe stays cheap.
const SEGMENT_KEYS: u64 = 40;
/// The budgeted store's total hot budget: 512 bytes per stripe, a few
/// entries' worth once values and holder sets grow.
const HOT_BYTES: u64 = 64 << 10;
/// Peer indices drawn for holder sets: more than the inline capacity, so
/// holder sets spill to the heap and shrink back.
const PEERS: u32 = 9;

/// One entry of the model: value and ascending holder set.
type Model = BTreeMap<(usize, u64), (Vec<u32>, Vec<u32>)>;

/// A `Vec<u32>` weighs 4 bytes an element; its record is its wire
/// encoding.
struct VecCodec;

impl StoreCodec<Vec<u32>> for VecCodec {
    fn weight(&self, value: Vec<u32>) -> u64 {
        4 * value.len() as u64
    }
}

/// The holder set a mask selects (never empty).
fn holders_of(mask: u32) -> Vec<u32> {
    let mask = (mask % (1 << PEERS)) | 1 << (mask % PEERS);
    (0..PEERS).filter(|p| mask & (1 << p) != 0).collect()
}

fn apply(store: &dyn Store<Vec<u32>>, keys: u64, model: &mut Model, op: (u8, u64, u32, u32)) {
    let (kind, key, v, mask) = op;
    let stripe = (key % STRIPES as u64) as usize;
    let key = key % keys;
    match kind % 8 {
        0..=4 => {
            let holders = holders_of(mask);
            store.upsert(
                stripe,
                key,
                &mut || Slot {
                    value: Vec::new(),
                    holders: holders.clone(),
                },
                &mut |slot| slot.value.push(v),
            );
            let entry = model
                .entry((stripe, key))
                .or_insert_with(|| (Vec::new(), holders.clone()));
            entry.0.push(v);
        }
        5 => {
            let drop = |key: u64| (key + u64::from(v)).is_multiple_of(5);
            store.scan_mut(stripe, &mut |_| true, &mut |_, value| value.push(v));
            store.retain(stripe, &mut |key, holders, _| {
                if drop(key) {
                    holders.clear();
                }
            });
            model.retain(|&(s, key), (value, _)| {
                if s != stripe {
                    return true;
                }
                value.push(v);
                !drop(key)
            });
        }
        6 => {
            // An even `v` also changes the values (a sealed entry un-seals);
            // an odd one changes holder sets only (written through).
            let extra = v % PEERS;
            let edit = |holders: &mut Vec<u32>| {
                if !holders.contains(&extra) {
                    holders.push(extra);
                    holders.sort_unstable();
                }
            };
            let grow = v.is_multiple_of(2);
            store.retain(stripe, &mut |_, holders, _| edit(holders));
            if grow {
                store.scan_mut(stripe, &mut |_| true, &mut |_, value| value.push(v));
            }
            for ((s, _), (value, holders)) in model.iter_mut() {
                if *s == stripe {
                    edit(holders);
                    if grow {
                        value.push(v);
                    }
                }
            }
        }
        _ => {
            // One or two peers restart, sometimes after a sync.
            if mask & 1 << 30 != 0 {
                store.sync();
            }
            let mut restarting = vec![mask % PEERS];
            if mask & 1 << 31 != 0 {
                restarting.push((mask >> 8) % PEERS);
            }
            let mut sealed: HashMap<u64, bool> = HashMap::new();
            store.scan(stripe, &mut |key, _, tier| {
                sealed.insert(key, matches!(tier, Tier::Sealed { .. }));
            });
            let mut stats = RecoveryStats::default();
            store.recover(
                stripe,
                &restarting,
                &mut |value| (value.len() as u64, 4 * value.len() as u64),
                &mut stats,
            );
            // A sealed copy survives in its holder's log; a hot one lived
            // in the restarting peer's memory.
            let mut expected = RecoveryStats::default();
            model.retain(|&(s, key), (value, holders)| {
                if s != stripe {
                    return true;
                }
                let restarted = holders.iter().filter(|h| restarting.contains(h)).count() as u64;
                if sealed[&key] {
                    expected.copies_recovered += restarted;
                    expected.postings_recovered += restarted * value.len() as u64;
                    return true;
                }
                holders.retain(|h| !restarting.contains(h));
                expected.copies_lost += restarted;
                if holders.is_empty() {
                    expected.keys_lost += 1;
                    expected.postings_lost += value.len() as u64;
                    expected.bytes_lost += 4 * value.len() as u64;
                }
                !holders.is_empty()
            });
            stats.frames_replayed = 0;
            stats.bytes_replayed = 0;
            assert_eq!(stats, expected, "recovery stats of stripe {stripe}");
        }
    }
}

/// Everything a caller can observe of the store, per stripe, in key order.
/// The lookup path must agree with it on holders and values.
fn observe(store: &dyn Store<Vec<u32>>, keys: u64) -> Model {
    let mut seen = Model::new();
    for stripe in 0..STRIPES {
        let mut scanned = 0;
        store.scan(stripe, &mut |key, slot, _| {
            scanned += 1;
            let previous = seen.insert((stripe, key), (slot.value.clone(), slot.holders.to_vec()));
            assert!(previous.is_none(), "key {key} scanned twice");
        });
        assert_eq!(store.len(stripe), scanned, "len of stripe {stripe}");
        let probes: Vec<u64> = (0..keys)
            .step_by(7)
            .chain(
                seen.range((stripe, 0)..(stripe + 1, 0))
                    .map(|(&(_, k), _)| k),
            )
            .collect();
        for &key in &probes {
            let mut got = None;
            store.get(stripe, key, &mut |slot| {
                got = slot.map(|s| (s.value.clone(), s.holders.to_vec()));
            });
            assert_eq!(got.as_ref(), seen.get(&(stripe, key)), "get {stripe}/{key}");
        }
        store.get_many(stripe, &probes, &mut |i, found| {
            let key = probes[i];
            let got = found.map(|f| (f.value, f.holders.to_vec()));
            assert_eq!(
                got.as_ref(),
                seen.get(&(stripe, key)),
                "get_many {stripe}/{key}"
            );
        });
    }
    seen
}

fn matches_the_model(store: &dyn Store<Vec<u32>>, keys: u64, ops: Vec<(u8, u64, u32, u32)>) {
    let mut model = Model::new();
    for op in ops {
        apply(store, keys, &mut model, op);
        assert_eq!(observe(store, keys), model);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mem_store_matches_a_btreemap(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u32>(), any::<u32>()), 1..400),
    ) {
        // The unbounded store: the in-memory store, which never seals.
        let store = SegmentStore::ephemeral(VecCodec, u64::MAX);
        matches_the_model(&store, MEM_KEYS, ops);
        assert!(store.dir().is_none(), "the unbounded store made a directory");
    }

    #[test]
    fn segment_store_matches_a_btreemap(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u32>(), any::<u32>()), 1..300),
    ) {
        // 48 hot bytes per stripe: a few short values, so every few
        // operations seal, un-seal or re-seal a key.
        let tight = SegmentStore::ephemeral(VecCodec, 48 * hdk_p2p::NUM_STRIPES as u64);
        matches_the_model(&tight, SEGMENT_KEYS, ops.clone());
        let budgeted = SegmentStore::ephemeral(VecCodec, HOT_BYTES);
        matches_the_model(&budgeted, SEGMENT_KEYS, ops);
    }
}

// ---------------------------------------------------------------------------
// The hot tier's record arena
// ---------------------------------------------------------------------------

/// An index-entry-like value: contributors that grow, a block that sits in
/// its record while short and is shared once long, and a doc-set — always
/// shared — that an NDK transition starts and later inserts append to.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    contributors: Vec<u32>,
    block: Arc<[u8]>,
    docs: Option<Arc<[u8]>>,
}

/// Bytes a block may have and still sit in its record.
const INLINE: usize = 22;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// `[flags][contributors][block]`: flag 1 a shared block, flag 2 a
/// doc-set (shared after the block, if that is shared too). The unbounded
/// store never seals, so no record of it is flat.
impl Record for Entry {
    type Ref<'a> = Entry;

    fn put_record(&self, out: &mut Vec<u8>, shared: Option<&mut Vec<Arc<[u8]>>>) {
        let shared = shared.expect("only the hot tier writes a record");
        let long = self.block.len() > INLINE;
        out.push(u8::from(long) | u8::from(self.docs.is_some()) << 1);
        put_varint(out, self.contributors.len() as u64);
        for &c in &self.contributors {
            put_varint(out, u64::from(c));
        }
        if long {
            shared.push(Arc::clone(&self.block));
        } else {
            out.push(self.block.len() as u8);
            out.extend_from_slice(&self.block);
        }
        if let Some(docs) = &self.docs {
            shared.push(Arc::clone(docs));
        }
    }

    fn from_record(record: &[u8], shared: Shared<'_>) -> Self {
        let mut pos = 1;
        let contributors = (0..get_varint(record, &mut pos))
            .map(|_| get_varint(record, &mut pos) as u32)
            .collect();
        let long = record[0] & 1 != 0;
        let block = if long {
            Arc::clone(shared.get(0).expect("a shared block"))
        } else {
            let len = usize::from(record[pos]);
            Arc::from(&record[pos + 1..pos + 1 + len])
        };
        let docs = (record[0] & 2 != 0)
            .then(|| Arc::clone(shared.get(usize::from(long)).expect("a shared doc-set")));
        Entry {
            contributors,
            block,
            docs,
        }
    }

    fn check(_: &[u8]) -> bool {
        false
    }

    fn view<'a>(record: &'a [u8], shared: Shared<'a>) -> Entry {
        Self::from_record(record, shared)
    }
}

/// The unbounded store weighs nothing, but a store needs a codec.
struct EntryCodec;

impl StoreCodec<Entry> for EntryCodec {
    fn weight(&self, value: Entry) -> u64 {
        value.block.len() as u64
    }
}

/// The arena model: each key's slot, and the stripe's position order —
/// insertion order, a removal moving the last entry into the hole.
#[derive(Default)]
struct ArenaModel {
    slots: BTreeMap<u64, (Entry, Vec<u32>)>,
    order: Vec<u64>,
}

impl ArenaModel {
    /// Runs `keep` over the entries in position order, as the store does.
    fn retain(&mut self, mut keep: impl FnMut(u64, &mut (Entry, Vec<u32>)) -> bool) {
        let mut pos = 0;
        while pos < self.order.len() {
            let key = self.order[pos];
            let slot = self.slots.get_mut(&key).expect("ordered keys are stored");
            if keep(key, slot) {
                pos += 1;
            } else {
                self.slots.remove(&key);
                self.order.swap_remove(pos);
            }
        }
    }
}

/// The block a key's `n`-th write leaves: long enough, after a few
/// writes, to be shared.
fn block_of(key: u64, n: usize) -> Arc<[u8]> {
    (0..n).map(|i| (key as usize * 7 + i) as u8).collect()
}

fn apply_arena(
    store: &SegmentStore<Entry, EntryCodec>,
    model: &mut ArenaModel,
    op: (u8, u64, u32),
) {
    let (kind, key, v) = op;
    let key = key % 24;
    match kind % 10 {
        // Upsert: a contributor joins, the block grows, a doc-set is
        // appended to.
        0..=4 => {
            let peer = v % 6;
            let grow = |entry: &mut Entry| {
                if !entry.contributors.contains(&peer) {
                    entry.contributors.push(peer);
                }
                entry.block = block_of(key, entry.block.len() + 1 + v as usize % 5);
                if let Some(docs) = &entry.docs {
                    let mut more = docs.to_vec();
                    more.push(v as u8);
                    entry.docs = Some(more.into());
                }
            };
            let fresh = Entry {
                contributors: Vec::new(),
                block: Arc::from(&[][..]),
                docs: None,
            };
            store.upsert(
                0,
                key,
                &mut || Slot {
                    value: fresh.clone(),
                    holders: vec![peer],
                },
                &mut |slot| grow(&mut slot.value),
            );
            if !model.slots.contains_key(&key) {
                model.order.push(key);
            }
            let (entry, _) = model
                .slots
                .entry(key)
                .or_insert_with(|| (fresh.clone(), vec![peer]));
            grow(entry);
        }
        // NDK transitions: the long blocks without a doc-set start one
        // and are truncated.
        5 => {
            let turns = |e: &Entry| e.docs.is_none() && e.block.len() > 12;
            let transit = |e: &mut Entry| {
                e.docs = Some(Arc::clone(&e.block));
                e.block = Arc::from(&e.block[..4]);
            };
            store.scan_mut(0, &mut |value| turns(&value), &mut |_, value| {
                transit(value)
            });
            for (entry, _) in model.slots.values_mut() {
                if turns(entry) {
                    transit(entry);
                }
            }
        }
        // A sweep that changes nothing writes no record (it may make room
        // for one).
        6 => {
            let records = |t: TableBytes| (t.records, t.dead_records);
            let before = records(store.table_bytes(0));
            store.scan_mut(0, &mut |_| true, &mut |_, _| {});
            assert_eq!(
                records(store.table_bytes(0)),
                before,
                "an unchanged sweep wrote"
            );
        }
        // Removals.
        7 => {
            let drop = |key: u64| (key + u64::from(v)).is_multiple_of(4);
            store.retain(0, &mut |key, holders, _| {
                if drop(key) {
                    holders.clear();
                }
            });
            model.retain(|key, _| !drop(key));
        }
        // Churn: a peer joins every holder set or leaves the sets it is
        // not alone in.
        _ => {
            let peer = v % 6;
            let churn = |holders: &mut Vec<u32>| {
                if v % 2 == 0 && !holders.contains(&peer) {
                    holders.push(peer);
                    holders.sort_unstable();
                } else if holders.len() > 1 {
                    holders.retain(|&h| h != peer);
                }
            };
            store.retain(0, &mut |_, holders, _| churn(holders));
            for (_, holders) in model.slots.values_mut() {
                churn(holders);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_arena_matches_a_btreemap_through_rewrites_and_compactions(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u32>()), 100..400),
    ) {
        let store = SegmentStore::ephemeral(EntryCodec, u64::MAX);
        let mut model = ArenaModel::default();
        let mut compactions = 0;
        let mut dead = 0;
        for op in ops {
            apply_arena(&store, &mut model, op);
            // Every entry equals the model, in position order.
            let mut scanned = Vec::new();
            store.scan(0, &mut |key, slot, _| {
                scanned.push(key);
                let (entry, holders) = &model.slots[&key];
                assert_eq!((&slot.value, &slot.holders), (entry, holders), "key {key}");
            });
            assert_eq!(scanned, model.order, "scan order");
            for &key in &model.order {
                let mut got = None;
                store.get(0, key, &mut |slot| got = slot.map(|s| s.value.clone()));
                assert_eq!(got.as_ref(), Some(&model.slots[&key].0), "get {key}");
            }
            // The arena holds at most twice its live bytes.
            let tables = store.table_bytes(0);
            assert!(
                tables.dead_records <= tables.records,
                "{} dead bytes beside {} live", tables.dead_records, tables.records
            );
            if tables.dead_records < dead {
                compactions += 1;
            }
            dead = tables.dead_records;
        }
        assert!(compactions > 0, "no sequence of rewrites compacted the arena");
    }
}
