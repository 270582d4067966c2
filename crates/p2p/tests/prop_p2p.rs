//! Property tests for the P-Grid overlay and the DHT: the overlay's
//! contract on arbitrary peer populations and after arbitrary join waves,
//! and lookup-after-insert identity under arbitrary operation sequences.

use hdk_p2p::{hash_u64s, Dht, KeyHash, PGrid, PeerId};
use proptest::prelude::*;
use std::collections::HashMap;

fn peer_ids(n: usize) -> Vec<PeerId> {
    (0..n as u64).map(PeerId).collect()
}

/// The grid's contract: `peer_index` inverts `peers`, `route` agrees with
/// `responsible` from every origin, a self-route costs 0 hops, and the
/// successor walk replica placement follows is one cycle over all peers.
fn check_contract(grid: &PGrid) -> Result<(), TestCaseError> {
    let peers = grid.peers();
    for (i, &p) in peers.iter().enumerate() {
        prop_assert_eq!(grid.peer_index(p), i);
    }
    for k in 0..64u64 {
        let key = KeyHash(hash_u64s(&[k, 17]));
        let owner = grid.responsible(key);
        for &from in peers {
            let r = grid.route(from, key);
            prop_assert_eq!(r.responsible, owner);
            if from == owner {
                prop_assert_eq!(r.hops, 0);
            }
        }
    }
    let mut cur = 0usize;
    let mut seen = vec![false; peers.len()];
    for _ in 0..peers.len() {
        prop_assert!(!seen[cur], "successor walk revisited peer {}", cur);
        seen[cur] = true;
        cur = grid.successor_index(cur);
    }
    prop_assert_eq!(cur, 0, "successor walk must wrap to its start");
    prop_assert!(seen.iter().all(|&s| s), "successor walk skipped a peer");
    Ok(())
}

proptest! {
    #[test]
    fn pgrid_contract(n in 1usize..40, keys in prop::collection::vec(any::<u64>(), 1..60)) {
        let grid = PGrid::new(peer_ids(n));
        for &k in &keys {
            let key = KeyHash(hash_u64s(&[k]));
            let owner = grid.responsible(key);
            // Exactly one peer owns the key, and routing agrees from
            // several origins.
            for &from in grid.peers().iter().step_by((n / 5).max(1)) {
                let r = grid.route(from, key);
                prop_assert_eq!(r.responsible, owner);
                if from == owner {
                    prop_assert_eq!(r.hops, 0);
                }
                // Prefix routing corrects one bit per hop.
                prop_assert!(r.hops <= 64);
            }
        }
    }

    #[test]
    fn pgrid_contract_holds_after_join_waves(
        n in 1usize..40,
        waves in prop::collection::vec(1usize..6, 1..6),
    ) {
        let mut grid = PGrid::new(peer_ids(n));
        check_contract(&grid)?;
        let mut next = n as u64;
        for wave in waves {
            for _ in 0..wave {
                grid.join(PeerId(next));
                next += 1;
                check_contract(&grid)?;
            }
        }
        prop_assert_eq!(grid.len() as u64, next);
    }

    #[test]
    fn dht_matches_hashmap_model(
        n in 1usize..12,
        ops in prop::collection::vec((any::<u8>(), 0u64..30, 0u32..100), 1..120),
    ) {
        // The DHT with integer values must behave exactly like a local
        // HashMap under an arbitrary interleaving of upserts and lookups.
        let dht: Dht<u64> = Dht::new(Box::new(PGrid::new(peer_ids(n))));
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (op, key_seed, val) in ops {
            let key = KeyHash(hash_u64s(&[key_seed]));
            let from = PeerId(u64::from(val) % n as u64);
            if op % 3 != 0 {
                dht.upsert(from, key, 1, 8, || 0, |v| *v += u64::from(val));
                *model.entry(key.0).or_insert(0) += u64::from(val);
            } else {
                let got = dht.lookup(from, key, |v| (v.copied(), 0, 0));
                prop_assert_eq!(got, model.get(&key.0).copied());
            }
        }
        // Final state matches.
        for (k, v) in &model {
            let got = dht.peek(KeyHash(*k), |e| e.copied());
            prop_assert_eq!(got, Some(*v));
        }
        prop_assert_eq!(dht.num_keys(), model.len());
    }
}
