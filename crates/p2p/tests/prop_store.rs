//! `MemStore` and `SegmentStore` against a `BTreeMap` reference model.
//!
//! A stripe packs its entries densely and indexes them by position, so a
//! removal moves the last entry into the hole and re-points its index
//! entry; the tiered store keeps two such tables, and under a hot budget
//! of a few entries its keys seal, un-seal and re-seal every few
//! operations. Random `upsert` / `retain` / `scan_mut` / `sync` /
//! `recover` sequences — over few keys and few stripes, so updates,
//! removals and re-inserts of the same key interleave — must leave the
//! store with exactly the model's contents, lengths and holder sets after
//! every step: through `get`, `scan`, and the lookup path `get_many`.

use hdk_p2p::{MemStore, RecoveryStats, SegmentStore, Slot, Store, StoreCodec, Tier};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

const STRIPES: usize = 2;
/// Enough keys that a `MemStore` stripe outgrows its first chunk.
const MEM_KEYS: u64 = 600;
/// Few enough that every sweep of a tiered stripe stays cheap.
const SEGMENT_KEYS: u64 = 40;
/// Peer indices drawn for holder sets: more than the inline capacity, so
/// holder sets spill to the heap and shrink back.
const PEERS: u32 = 9;

/// One entry of the model: value and ascending holder set.
type Model = BTreeMap<(usize, u64), (Vec<u32>, Vec<u32>)>;

/// A `Vec<u32>` as its LE bytes. A lookup reads only the first element:
/// `decode_lookup` leaves the rest out, as the engine's codec leaves out
/// what no lookup reads.
struct VecCodec;

impl StoreCodec<Vec<u32>> for VecCodec {
    fn encode(&self, value: &Vec<u32>, out: &mut Vec<u8>) {
        for x in value {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn decode(&self, bytes: &[u8]) -> Option<Vec<u32>> {
        if !bytes.len().is_multiple_of(4) {
            return None;
        }
        Some(
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect(),
        )
    }

    fn decode_lookup(&self, bytes: &[u8]) -> Option<Vec<u32>> {
        let mut value = self.decode(bytes)?;
        value.truncate(1);
        Some(value)
    }

    fn weight(&self, value: &Vec<u32>) -> u64 {
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
            store.retain(stripe, &mut |key, slot| {
                slot.value.push(v);
                !drop(key)
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
            store.scan_mut(stripe, &mut |_, slot| {
                let mut holders = slot.holders.to_vec();
                edit(&mut holders);
                slot.holders = holders.into();
                if grow {
                    slot.value.push(v);
                }
            });
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
/// The lookup path must agree with it on holders and on what a lookup
/// reads of each value.
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
        store.get_many(stripe, &probes, &mut |i, slot| {
            let key = probes[i];
            let got = slot.map(|s| (s.value.first().copied(), s.holders.to_vec()));
            let want = seen
                .get(&(stripe, key))
                .map(|(value, holders)| (value.first().copied(), holders.clone()));
            assert_eq!(got, want, "get_many {stripe}/{key}");
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
        let store: MemStore<Vec<u32>> = MemStore::new();
        matches_the_model(&store, MEM_KEYS, ops);
    }

    #[test]
    fn segment_store_matches_a_btreemap(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u32>(), any::<u32>()), 1..200),
    ) {
        // 48 hot bytes per stripe: a few short values, so every few
        // operations seal, un-seal or re-seal a key.
        let store = SegmentStore::ephemeral(VecCodec, 48 * hdk_p2p::NUM_STRIPES as u64);
        matches_the_model(&store, SEGMENT_KEYS, ops);
    }
}
