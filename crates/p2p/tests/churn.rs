//! Peer-join (churn) tests: P-Grid invariants survive joins and the DHT
//! migrates exactly the keys the new peer owns.

use hdk_p2p::{hash_u64s, Dht, KeyHash, MsgKind, PGrid, PeerId};

fn peers(n: u64) -> Vec<PeerId> {
    (0..n).map(PeerId).collect()
}

fn check_contract(grid: &PGrid) {
    for k in 0..300u64 {
        let key = KeyHash(hash_u64s(&[k, 5]));
        let owner = grid.responsible(key);
        assert!(grid.peers().contains(&owner));
        for &from in grid.peers().iter().take(6) {
            let r = grid.route(from, key);
            assert_eq!(r.responsible, owner);
        }
    }
}

#[test]
fn pgrid_join_preserves_contract_and_balance() {
    let mut grid = PGrid::new(peers(5));
    for new in 5..13u64 {
        grid.join(PeerId(new));
        check_contract(&grid);
    }
    assert_eq!(grid.len(), 13);
    // Splitting the shallowest leaf keeps paths within one bit of balance.
    let lens: Vec<u32> = (0..13).map(|i| grid.path(i).len()).collect();
    let (min, max) = (*lens.iter().min().unwrap(), *lens.iter().max().unwrap());
    assert!(max - min <= 1, "paths unbalanced after joins: {lens:?}");
}

#[test]
#[should_panic(expected = "already")]
fn duplicate_join_rejected() {
    let mut grid = PGrid::new(peers(3));
    grid.join(PeerId(1));
}

#[test]
fn dht_migration_moves_exactly_new_peers_keys() {
    let mut dht: Dht<Vec<u32>> = Dht::new(Box::new(PGrid::new(peers(4))));
    for k in 0..400u64 {
        let key = KeyHash(hash_u64s(&[k, 11]));
        dht.upsert(PeerId(k % 4), key, 2, 8, Vec::new, |v| v.push(k as u32));
    }
    let before_total = dht.num_keys();

    let stats = dht
        .add_peers(vec![PeerId(99)], |v| (v.len() as u64, v.len() as u64 * 4))
        .remove(0);
    assert_eq!(dht.num_keys(), before_total, "keys must not be lost");
    assert!(stats.keys_moved > 0, "the new peer must take over keys");
    assert_eq!(stats.postings_moved, stats.keys_moved); // one entry each here

    // The new peer's shard holds exactly the keys it is responsible for,
    // and every key is still reachable with its value intact.
    let per_peer = dht.keys_per_peer();
    assert_eq!(per_peer[4] as u64, stats.keys_moved);
    for k in 0..400u64 {
        let key = KeyHash(hash_u64s(&[k, 11]));
        let found = dht.lookup(PeerId(0), key, |v| (v.cloned(), 0, 0));
        assert_eq!(found.unwrap(), vec![k as u32], "key {k} lost after join");
    }
    // Migration metered as maintenance, not as indexing/retrieval cost.
    let snap = dht.snapshot();
    assert_eq!(
        snap.kind(MsgKind::Maintenance).postings,
        stats.postings_moved
    );
}

#[test]
fn repeated_joins_keep_dht_consistent() {
    let mut dht: Dht<u64> = Dht::new(Box::new(PGrid::new(peers(2))));
    for k in 0..200u64 {
        dht.upsert(
            PeerId(k % 2),
            KeyHash(hash_u64s(&[k])),
            1,
            8,
            || 0,
            |v| *v += k,
        );
    }
    for new in 2..8u64 {
        dht.add_peers(vec![PeerId(new)], |_| (1, 8));
        for k in 0..200u64 {
            let got = dht.peek(KeyHash(hash_u64s(&[k])), |v| v.copied());
            assert_eq!(got, Some(k), "key {k} lost after join of peer {new}");
        }
    }
    assert_eq!(dht.num_keys(), 200);
}
