//! `MemStore` against a `BTreeMap` reference model.
//!
//! A stripe packs its entries densely and indexes them by position, so a
//! removal moves the last entry into the hole and re-points its index
//! entry. Random `upsert` / `retain` / `scan_mut` / `recover` sequences —
//! over few keys and few stripes, so updates, removals and re-inserts of
//! the same key interleave — must leave the store with exactly the model's
//! contents, lengths and holder sets after every step.

use hdk_p2p::{MemStore, RecoveryStats, Slot, Store};
use proptest::prelude::*;
use std::collections::BTreeMap;

const STRIPES: usize = 2;
/// Enough keys that a stripe outgrows its first chunk.
const KEYS: u64 = 600;
/// Peer indices drawn for holder sets: more than the inline capacity, so
/// holder sets spill to the heap and shrink back.
const PEERS: u32 = 9;

/// One entry of the model: value and ascending holder set.
type Model = BTreeMap<(usize, u64), (Vec<u32>, Vec<u32>)>;

/// The holder set a mask selects (never empty).
fn holders_of(mask: u32) -> Vec<u32> {
    let mask = (mask % (1 << PEERS)) | 1 << (mask % PEERS);
    (0..PEERS).filter(|p| mask & (1 << p) != 0).collect()
}

fn apply(store: &MemStore<Vec<u32>>, model: &mut Model, op: (u8, u64, u32, u32)) {
    let (kind, key, v, mask) = op;
    let stripe = (key % STRIPES as u64) as usize;
    let key = key % KEYS;
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
            let extra = v % PEERS;
            let edit = |holders: &mut Vec<u32>| {
                if !holders.contains(&extra) {
                    holders.push(extra);
                    holders.sort_unstable();
                }
            };
            store.scan_mut(stripe, &mut |_, slot| {
                let mut holders = slot.holders.to_vec();
                edit(&mut holders);
                slot.holders = holders.into();
                slot.value.push(v);
            });
            for ((s, _), (value, holders)) in model.iter_mut() {
                if *s == stripe {
                    edit(holders);
                    value.push(v);
                }
            }
        }
        _ => {
            // One or two peers restart.
            let mut restarting = vec![mask % PEERS];
            if mask & 1 << 31 != 0 {
                restarting.push((mask >> 8) % PEERS);
            }
            let mut stats = RecoveryStats::default();
            store.recover(
                stripe,
                &restarting,
                &mut |value| (value.len() as u64, 4 * value.len() as u64),
                &mut stats,
            );
            let mut expected = RecoveryStats::default();
            model.retain(|&(s, _), (value, holders)| {
                if s != stripe {
                    return true;
                }
                let before = holders.len();
                holders.retain(|h| !restarting.contains(h));
                expected.copies_lost += (before - holders.len()) as u64;
                if holders.is_empty() {
                    expected.keys_lost += 1;
                    expected.postings_lost += value.len() as u64;
                    expected.bytes_lost += 4 * value.len() as u64;
                }
                !holders.is_empty()
            });
            assert_eq!(stats, expected, "recovery stats of stripe {stripe}");
        }
    }
}

/// Everything a caller can observe of the store, per stripe, in key order.
fn observe(store: &MemStore<Vec<u32>>) -> Model {
    let mut seen = Model::new();
    for stripe in 0..STRIPES {
        let mut scanned = 0;
        store.scan(stripe, &mut |key, slot, _| {
            scanned += 1;
            let previous = seen.insert((stripe, key), (slot.value.clone(), slot.holders.to_vec()));
            assert!(previous.is_none(), "key {key} scanned twice");
        });
        assert_eq!(store.len(stripe), scanned, "len of stripe {stripe}");
        let scanned_keys: Vec<u64> = seen
            .range((stripe, 0)..(stripe + 1, 0))
            .map(|(&(_, k), _)| k)
            .collect();
        for key in (0..KEYS).step_by(7).chain(scanned_keys) {
            let mut got = None;
            store.get(stripe, key, &mut |slot| {
                got = slot.map(|s| (s.value.clone(), s.holders.to_vec()));
            });
            assert_eq!(got.as_ref(), seen.get(&(stripe, key)), "get {stripe}/{key}");
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mem_store_matches_a_btreemap(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u32>(), any::<u32>()), 1..400),
    ) {
        let store: MemStore<Vec<u32>> = MemStore::new();
        let mut model = Model::new();
        for op in ops {
            apply(&store, &mut model, op);
            prop_assert_eq!(observe(&store), model.clone());
        }
    }
}
