//! A `SegmentStore` that really runs out of descriptors: the process's
//! `RLIMIT_NOFILE` is lowered under the number of segment files the
//! script creates, so an `open` fails with `EMFILE` mid-build and the
//! store has to fall back to an open per operation.
//!
//! A test binary of its own with a single `#[test]`: the limit is
//! process-wide.

mod common;

use common::{open_fds, RawCodec};
use hdk_p2p::{RecoveryStats, SegmentStore, Slot, Store, NUM_STRIPES};

/// glibc's `struct rlimit` on 64-bit Linux.
#[repr(C)]
struct RLimit {
    soft: u64,
    hard: u64,
}

const RLIMIT_NOFILE: i32 = 7;

extern "C" {
    fn getrlimit(resource: i32, limit: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, limit: *const RLimit) -> i32;
}

const KEYS: u64 = 96;

fn value_of(key: u64) -> Vec<u8> {
    vec![key as u8, 0x5A, (key >> 3) as u8]
}

#[test]
fn emfile_mid_build_falls_back_to_an_open_per_operation() {
    let before = open_fds();
    let mut limit = RLimit { soft: 0, hard: 0 };
    // SAFETY: `limit` is a valid `struct rlimit` for both calls.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) }, 0);
    // Room for 24 more descriptors; the script seals onto 96 files.
    limit.soft = before as u64 + 24;
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &limit) }, 0);

    // No hot budget: every upsert seals at once, each key onto a
    // `(peer, stripe)` file of its own.
    let store = SegmentStore::ephemeral(RawCodec, 0);
    for key in 0..KEYS {
        store.upsert(
            key as usize % NUM_STRIPES,
            key,
            &mut || Slot {
                value: Vec::new(),
                holders: vec![key as u32 % 3],
            },
            &mut |slot| slot.value = value_of(key),
        );
    }
    assert_eq!(
        open_fds(),
        before,
        "out of descriptors once, the store keeps none"
    );
    let read_all = || {
        for key in 0..KEYS {
            store.get(key as usize % NUM_STRIPES, key, &mut |slot| {
                assert_eq!(slot.expect("stored").value, value_of(key));
            });
        }
    };
    read_all();
    let mut stats = RecoveryStats::default();
    for key in 0..KEYS {
        let stripe = key as usize % NUM_STRIPES;
        store.recover(
            stripe,
            &[key as u32 % 3],
            &mut |v| (v.len() as u64, 0),
            &mut stats,
        );
    }
    assert_eq!(stats.copies_recovered, KEYS);
    assert_eq!(stats.frames_discarded, 0);
    read_all();
    assert_eq!(open_fds(), before);
}
