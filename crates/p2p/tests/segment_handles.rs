//! Descriptor lifecycle of a `SegmentStore`: one kept handle per segment
//! file that exists, no more after reads or recovery, none after drop.
//!
//! A test binary of its own with a single `#[test]`, so nothing else in
//! the process opens or closes a file while `/proc/self/fd` is counted.

mod common;

use common::{open_fds, RawCodec};
use hdk_p2p::{RecoveryStats, SegmentStore, Slot, Store, NUM_STRIPES};
use std::path::Path;

fn seg_files(dir: &Path) -> usize {
    let mut n = 0;
    for peer_dir in std::fs::read_dir(dir).expect("store dir") {
        for file in std::fs::read_dir(peer_dir.expect("entry").path()).expect("peer dir") {
            let path = file.expect("entry").path();
            assert_eq!(path.extension().and_then(|e| e.to_str()), Some("seg"));
            n += 1;
        }
    }
    n
}

const PEERS: u32 = 5;
const KEYS: u64 = 40;

fn stripe_of(key: u64) -> usize {
    (key * 3) as usize % NUM_STRIPES
}

fn holders_of(key: u64) -> Vec<u32> {
    let (a, b) = (key as u32 % PEERS, (key as u32 + 2) % PEERS);
    vec![a.min(b), a.max(b)]
}

#[test]
fn handles_follow_segment_files_and_close_with_the_store() {
    let before = open_fds();
    // 8 hot bytes per stripe: the first rounds seal as they go, `sync`
    // seals the rest.
    let store = SegmentStore::ephemeral(RawCodec, NUM_STRIPES as u64 * 8);
    let dir = store.dir().to_path_buf();
    for round in 0..3u8 {
        for key in 0..KEYS {
            store.upsert(
                stripe_of(key),
                key,
                &mut || Slot {
                    value: Vec::new(),
                    holders: holders_of(key),
                },
                &mut |slot| slot.value.extend_from_slice(&[key as u8, round, 0xAB]),
            );
        }
    }
    store.sync();
    let files = seg_files(&dir);
    assert!(
        files > 2 * PEERS as usize,
        "several peers and stripes sealed"
    );
    assert_eq!(
        open_fds(),
        before + files,
        "one kept handle per segment file"
    );

    for i in 0..10_000u64 {
        let key = i % KEYS;
        store.get(stripe_of(key), key, &mut |slot| {
            let slot = slot.expect("stored");
            assert_eq!(slot.value.len(), 9);
            assert_eq!(slot.holders.to_vec(), holders_of(key));
        });
    }
    assert_eq!(open_fds(), before + files, "a sealed read opens nothing");

    let mut stats = RecoveryStats::default();
    for stripe in 0..NUM_STRIPES {
        for peer in 0..PEERS {
            store.recover(stripe, &[peer], &mut |v| (v.len() as u64, 0), &mut stats);
        }
    }
    assert_eq!(stats.copies_recovered, 2 * KEYS);
    assert_eq!(stats.copies_lost, 0);
    assert_eq!(
        seg_files(&dir),
        files,
        "recovery creates no file for a log that does not exist"
    );
    assert_eq!(open_fds(), before + files, "nor a handle");

    drop(store);
    assert_eq!(open_fds(), before, "every handle closed with the store");
    assert!(!dir.exists(), "the scratch directory is gone");
}
