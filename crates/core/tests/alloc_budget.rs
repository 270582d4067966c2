//! Heap allocations on the sending peer's half of an indexing round.
//!
//! A round's cost per `(peer, key)` item used to be dominated by the
//! allocator: a `Vec` per probed subset, a map node and a `Vec` per key, three
//! buffers per encoded block. The sorted-run generator allocates per *call*
//! (its scratch and two columns) and the slice encoder once per block; this
//! file pins that with a counting allocator. Counts are per thread, so the
//! tests of this binary may run side by side.
//!
//! The same allocator, counting bytes, pins that a wire frame's buffer
//! grows with the bytes that arrive, not with the length a peer announces.
//!
//! The same per-thread count pins what one query costs the allocator, end
//! to end through `QueryService::query`, and that a repair sweep that
//! copies nothing allocates per stripe, not per stored key.
//!
//! It also keeps a process-wide count of live heap bytes, which pins what
//! a stored index key costs in memory, and its high-water mark, which pins
//! what a build holds beyond the index it leaves. Both see every thread, so
//! the tests of this binary take turns ([`serial`]).

use hdk_core::window_keys::RunBuilder;
use hdk_core::{GlobalIndex, HdkConfig, HdkNetwork, Key, LocalPeer, StoreConfig};
use hdk_corpus::{
    partition_documents, CollectionGenerator, DocId, GeneratorConfig, QueryLog, QueryLogConfig,
};
use hdk_ir::{CompressedPostings, Posting};
use hdk_p2p::{IdHashSet, PGrid, PeerId, NUM_STRIPES};
use hdk_text::TermId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Heap bytes allocated and not yet freed, by any thread.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// The most [`LIVE_BYTES`] has been since a test last reset it.
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Moves [`LIVE_BYTES`] by `delta`, raising [`PEAK_BYTES`] with it.
fn count_live(delta: i64) {
    let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// Runs the tests of this binary one at a time, so [`LIVE_BYTES`] moves
/// only with the test that reads it.
fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

thread_local! {
    /// Allocations (and reallocations) made by this thread. Const-initialized
    /// and without a destructor, so the allocator may touch it at any time.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread asked for (a reallocation counts its new size).
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = ALLOCATED_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the caller's; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        count_live(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_live(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        count_live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counting<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// One peer holding a 200-document collection.
fn fixture() -> Vec<(DocId, Vec<TermId>)> {
    CollectionGenerator::new(GeneratorConfig {
        num_docs: 200,
        ..GeneratorConfig::default()
    })
    .generate()
    .iter()
    .map(|(d, t)| (d, t.to_vec()))
    .collect()
}

/// What the sending side does with one round: generate the runs, encode a
/// block per key. Returns the keys emitted and the allocations spent.
fn compute_and_encode(peer: &LocalPeer, round: usize, config: &HdkConfig) -> (usize, u64) {
    let excluded: HashSet<TermId> = HashSet::new();
    let (batch, allocations) = counting(|| {
        peer.compute_runs(round, config, &excluded)
            .iter()
            .map(|(key, run)| (key, CompressedPostings::from_postings(run)))
            .collect::<Vec<_>>()
    });
    (batch.len(), allocations)
}

/// The keys of a round that stand in for "globally non-discriminative": the
/// ones in at least `min_df` of the peer's documents.
fn frequent_keys(peer: &LocalPeer, round: usize, config: &HdkConfig, min_df: usize) -> Vec<Key> {
    peer.compute_runs(round, config, &HashSet::<TermId>::new())
        .iter()
        .filter(|(_, run)| run.len() >= min_df)
        .map(|(key, _)| key)
        .collect()
}

#[test]
fn at_most_three_allocations_per_emitted_key() {
    let _turn = serial();
    let config = HdkConfig::default();
    let mut docs = fixture();
    let later = docs.split_off(150);
    let mut peer = LocalPeer::new(PeerId(0), docs);

    // A build session: rounds 1..=3 over 150 new documents.
    let mut spent = Vec::new();
    for round in 1..=3 {
        spent.push((round, compute_and_encode(&peer, round, &config)));
        let ndk = frequent_keys(&peer, round, &config, if round == 1 { 12 } else { 4 });
        peer.receive_notifications(round, &ndk);
    }
    peer.finish_session();

    // A growth session: 50 new documents, the 150 old ones re-examined for
    // what the (lower) thresholds make newly non-discriminative.
    peer.add_documents(later);
    for round in 1..=3 {
        spent.push((round, compute_and_encode(&peer, round, &config)));
        let mut ndk = frequent_keys(&peer, round, &config, if round == 1 { 3 } else { 2 });
        ndk.extend(peer.ndk_keys(round).iter().copied());
        ndk.sort_unstable();
        ndk.dedup();
        peer.receive_notifications(round, &ndk);
    }

    for (round, (keys, allocations)) in spent {
        assert!(keys > 500, "round {round} emitted only {keys} keys");
        assert!(
            allocations <= 3 * keys as u64,
            "round {round}: {allocations} allocations for {keys} keys"
        );
    }
}

#[test]
fn one_allocation_per_encoded_block() {
    let _turn = serial();
    let postings: Vec<Posting> = (0..300)
        .map(|i| Posting {
            doc: DocId(7 * i + 3),
            tf: 1 + i % 5,
            doc_len: 90 + i,
        })
        .collect();
    // The first block of a thread sizes the scratch frame. A block of one
    // or two postings (7 and 10 bytes) sits inline in its struct and costs
    // no allocation; 17 and 300 postings (62 and 1 008 bytes) cost one.
    let _ = CompressedPostings::from_postings(&postings);
    for (len, expected) in [(1, 0), (2, 0), (17, 1), (300, 1)] {
        let (block, allocations) = counting(|| CompressedPostings::from_postings(&postings[..len]));
        assert_eq!(block.len(), len);
        assert_eq!(block.heap_bytes() > 0, expected == 1, "{len} postings");
        assert_eq!(allocations, expected, "{len} postings");
    }
}

#[test]
fn probing_a_subset_allocates_nothing() {
    let _turn = serial();
    // The probe itself: a key built from terms, its neighbours, set lookups.
    let terms: Vec<TermId> = (0..40).map(TermId).collect();
    let fast: IdHashSet<Key> = terms
        .windows(2)
        .map(|w| Key::from_terms(w).expect("2 terms"))
        .collect();
    let std_set: HashSet<Key> = fast.iter().copied().collect();
    let (hits, allocations) = counting(|| {
        let mut hits = 0usize;
        for a in &terms {
            for b in &terms {
                for c in &terms[..8] {
                    let Some(sub_key) = Key::from_terms(&[*c, *a, *b, *a]) else {
                        continue;
                    };
                    hits += usize::from(fast.contains(&sub_key) && std_set.contains(&sub_key));
                    if let Some(candidate) = sub_key.extend(TermId(99)) {
                        hits += candidate
                            .immediate_sub_keys()
                            .filter(|sub| fast.contains(sub))
                            .count();
                    }
                }
            }
        }
        hits
    });
    assert!(hits > 0);
    assert_eq!(allocations, 0);

    // And in place: a round-3 pass whose every window is full of known
    // terms probes ~170 pair sub-keys per token, none of them a known pair.
    // It may allocate its scratch, not one byte per probe.
    let docs: Vec<(DocId, Vec<TermId>)> = (0..20)
        .map(|d| {
            (
                DocId(d),
                (0..400).map(|i| TermId((i * 7 + d) % 40)).collect(),
            )
        })
        .collect();
    let ndk1: HashSet<TermId> = terms.iter().copied().collect();
    let unrelated: HashSet<Key> = [Key::from_terms(&[TermId(77), TermId(78)]).expect("2 terms")]
        .into_iter()
        .collect();
    let (runs, allocations) = counting(|| {
        let mut runs = RunBuilder::default();
        runs.add_candidates(
            docs.iter().map(|(d, t)| (*d, t.as_slice())),
            20,
            3,
            &ndk1,
            &unrelated,
            false,
            None,
        );
        runs.finish()
    });
    assert!(runs.is_empty());
    assert!(allocations <= 8, "{allocations} allocations");
}

#[test]
fn a_hostile_length_prefix_buys_no_allocation() {
    let _turn = serial();
    use hdk_p2p::{read_wire_frame, write_wire_frame, WireError};
    // A peer announces a 200 MiB frame, delivers ten bytes and hangs up.
    let mut hostile = (200u32 << 20).to_le_bytes().to_vec();
    hostile.extend_from_slice(&[0u8; 8 + 10]);
    let before = ALLOCATED_BYTES.with(Cell::get);
    let outcome = read_wire_frame(&mut hostile.as_slice());
    let spent = ALLOCATED_BYTES.with(Cell::get) - before;
    assert!(
        matches!(outcome, Err(WireError::Truncated)),
        "got {outcome:?}"
    );
    assert!(spent < 1 << 20, "{spent} bytes allocated for 10 delivered");

    // An honest small frame (every lookup is one) still takes exactly one
    // allocation, of exactly its size.
    let mut framed = Vec::new();
    write_wire_frame(&mut framed, &[7u8; 300]).expect("in-memory write");
    let before = ALLOCATED_BYTES.with(Cell::get);
    let (payload, allocations) = counting(|| read_wire_frame(&mut framed.as_slice()));
    let spent = ALLOCATED_BYTES.with(Cell::get) - before;
    assert_eq!(payload.expect("valid frame").len(), 300);
    assert_eq!((allocations, spent), (1, 300));
}

#[test]
fn a_stored_key_costs_its_slot_and_little_more() {
    let _turn = serial();
    // The row every hot key pays for: its key hash and where its record
    // sits in the stripe's arena. The record holds the rest — key, df,
    // flags, contributors, holders and a block of at most 22 encoded
    // bytes. A decoded slot of entry and holder set took 120 B (136 B
    // while the block was a 48 B handle to a heap buffer).
    assert_eq!(hdk_p2p::HOT_ROW_BYTES, 16);

    // A one-session in-memory build over 4 peers × 150 documents, peers
    // set up before counting starts: what stays live is the index.
    let config = HdkConfig::default();
    let docs = CollectionGenerator::new(GeneratorConfig {
        num_docs: 600,
        ..GeneratorConfig::default()
    })
    .generate();
    let ids: Vec<PeerId> = (0..4).map(PeerId).collect();
    let mut peers: Vec<LocalPeer> = partition_documents(600, 4, 3)
        .iter()
        .zip(&ids)
        .map(|(part, &id)| {
            let owned = part.iter().map(|&d| (d, docs.doc(d).tokens.to_vec()));
            LocalPeer::new(id, owned.collect())
        })
        .collect();
    let excluded: HashSet<TermId> = HashSet::new();
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let index = GlobalIndex::new(Box::new(PGrid::new(ids)), config.dfmax);
    for round in 1..=config.smax {
        let batches = peers
            .iter()
            .map(|peer| {
                let runs = peer.compute_runs(round, &config, &excluded);
                let blocks = runs
                    .iter()
                    .map(|(key, run)| (key, CompressedPostings::from_postings(run)));
                (peer.id, blocks.collect())
            })
            .collect();
        let mut already_ndk = index.insert_round(batches);
        let mut notified = index.classify_round(round);
        for peer in &mut peers {
            let mut keys = notified.remove(&peer.id).unwrap_or_default();
            keys.extend(already_ndk.remove(&peer.id).unwrap_or_default());
            keys.sort_unstable();
            keys.dedup();
            peer.receive_notifications(round, &keys);
        }
    }
    let spent = LIVE_BYTES.load(Ordering::Relaxed) - before;
    let counts = index.index_counts();
    let keys: u64 = counts.hdk_keys.iter().chain(&counts.ndk_keys).sum();
    assert!(keys > 20_000, "only {keys} keys stored");
    let per_key = spent as f64 / keys as f64;
    // The row with its index buckets, the record with the arena's dead and
    // spare bytes, the blocks too long to sit in their record, the peers'
    // NDK sets: 110.7 B here, bounded at 116.3. A decoded 120-byte slot read
    // 198.1 B; a 136-byte slot with every block in its own allocation
    // 238 B; slots in hash-table buckets 365 B.
    assert!(
        per_key <= 116.3,
        "{per_key:.1} live heap bytes per stored key ({spent} B for {keys} keys)"
    );
}

#[test]
fn a_repair_that_copies_nothing_allocates_nothing_per_stored_key() {
    let _turn = serial();
    // An R = 2 index that lost no copy, at two sizes: the repair sweep
    // reads every entry's holder set in its record and plans no copy. It
    // allocates one walk per owner and, per stripe and tier, its key list
    // and two holder buffers — none for a tier that is empty, which is all
    // the two sizes may differ by. A sweep that materialized every entry
    // allocated 2.2 times a key (46 277 times over 20 946 keys, 121 409
    // over 54 486).
    let measured: Vec<(u64, u64)> = [150, 300]
        .into_iter()
        .map(|docs_per_peer| {
            let docs = CollectionGenerator::new(GeneratorConfig {
                num_docs: 4 * docs_per_peer,
                ..GeneratorConfig::default()
            })
            .generate();
            let config = HdkConfig {
                replication: 2,
                ..HdkConfig::default()
            };
            let network = HdkNetwork::build(&docs, &partition_documents(docs.len(), 4, 3), config)
                .query_service();
            let index = network.index();
            let counts = index.index_counts();
            let keys: u64 = counts.hdk_keys.iter().chain(&counts.ndk_keys).sum();
            let (repair, allocations) = counting(|| index.repair());
            assert_eq!(repair.copies, 0, "a fresh R = 2 index misses a copy");
            (keys, allocations)
        })
        .collect();
    let [(small_keys, small), (large_keys, large)] = measured[..] else {
        unreachable!("two sizes")
    };
    assert!(large_keys > 3 * small_keys / 2, "the indexes are too alike");
    assert!(
        large <= small + 2 * NUM_STRIPES as u64,
        "a repair allocated {large} times over {large_keys} keys, {small} over {small_keys}"
    );
}

#[test]
fn a_build_holds_one_peers_batch_beyond_its_index() {
    let _turn = serial();
    // A one-session in-memory build over 16 peers × 100 documents, one
    // thread: a round's waves are single peers, so the batches in flight
    // are one peer's at a time.
    let docs = CollectionGenerator::new(GeneratorConfig {
        num_docs: 1_600,
        ..GeneratorConfig::default()
    })
    .generate();
    let partitions = partition_documents(docs.len(), 16, 3);
    let config = HdkConfig {
        store: StoreConfig::Memory,
        ..HdkConfig::default()
    };
    let threads = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let network = HdkNetwork::build(&docs, &partitions, config);
    let peak = PEAK_BYTES.load(Ordering::Relaxed) - before;
    let kept = LIVE_BYTES.load(Ordering::Relaxed) - before;
    match threads {
        Some(threads) => std::env::set_var("RAYON_NUM_THREADS", threads),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    let counts = network.query_service().index().index_counts();
    let keys: u64 = counts.hdk_keys.iter().chain(&counts.ndk_keys).sum();
    assert!(keys > 50_000, "only {keys} keys stored");
    // 9.8 MB at the peak against 8.6 MB kept: 1.13 measured (19.4 MB
    // against 18.3 MB, 1.06, with decoded 120-byte slots), bounded at
    // 1.25. Shipping the whole round as one message peaked at 32.0 MB,
    // 1.75.
    let ratio = peak as f64 / kept as f64;
    assert!(
        ratio <= 1.25,
        "the build peaked at {peak} B above its baseline, {ratio:.2} × the {kept} B it keeps"
    );
}

#[test]
fn a_query_makes_a_pinned_number_of_allocations() {
    let _turn = serial();
    // 4 peers × 150 documents, 200 logged queries, one thread: the fan-out
    // of a level runs on the calling thread, where the count is kept.
    let docs = CollectionGenerator::new(GeneratorConfig {
        num_docs: 600,
        ..GeneratorConfig::default()
    })
    .generate();
    let log = QueryLog::generate(
        &docs,
        &QueryLogConfig {
            num_queries: 200,
            ..QueryLogConfig::default()
        },
    );
    let config = HdkConfig::default();
    // 23.38 measured per query on the unbounded store: the plan's levels,
    // the DHT's per-level grouping and fan-out, the score table and the
    // results. Under a hot budget a sealed hit also reads its entry's flat
    // record, checked and viewed in the frame; its block is copied inline
    // unless it is longer than `INLINE_BYTES`, which costs one allocation.
    // 24.39 measured under CI's 64 KiB budget
    // (`HDK_STORE=segment:65536`), as when the entry was decoded out of
    // its frame instead, where a copy of
    // every sealed block into its own allocation read 26.73 (bounded at
    // 26.9). One bound, 24.5, holds for both stores.
    let bound = 24.5;
    let threads = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let network =
        HdkNetwork::build(&docs, &partition_documents(docs.len(), 4, 3), config).query_service();
    let (results, allocations) = counting(|| {
        log.queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                network
                    .query(PeerId(i as u64 % 4), &q.terms, 20)
                    .results
                    .len()
            })
            .sum::<usize>()
    });
    match threads {
        Some(threads) => std::env::set_var("RAYON_NUM_THREADS", threads),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    assert!(results > 0, "no query found anything");
    let per_query = allocations as f64 / log.queries.len() as f64;
    assert!(
        per_query <= bound,
        "{per_query:.2} allocations per query ({allocations} over {} queries, bound {bound})",
        log.queries.len()
    );
}
