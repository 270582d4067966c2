//! Incremental indexing must be indistinguishable from a full rebuild.
//!
//! The paper's growth model adds peers/documents over time; our engine
//! supports that without rebuilding. These tests check the strong
//! equivalence: after `add_documents`, the global index (key population,
//! classifications, dfs, posting lists) and all query answers are
//! *identical* to building the enlarged collection from scratch —
//! including the cross-session subtleties (keys flipping to NDK late,
//! old documents contributing new combinations, no double-counted dfs).

use hdk_core::{HdkConfig, HdkNetwork, Key, KeyEntry, QueryService, StoreConfig};
use hdk_corpus::{
    partition_documents, Collection, CollectionGenerator, DocId, GeneratorConfig, QueryLog,
    QueryLogConfig,
};
use hdk_ir::segment::{read_frame, FrameRead};
use hdk_p2p::{PeerId, Record, Shared};
use hdk_text::{TermId, Vocabulary};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

fn config(dfmax: u32) -> HdkConfig {
    HdkConfig {
        dfmax,
        // No very-frequent exclusion: the incremental engine freezes the
        // exclusion set at build time, so equality with a rebuild is only
        // exact when the set cannot change.
        ff: u64::MAX,
        ..HdkConfig::default()
    }
}

/// Builds the full network in one shot and incrementally (prefix first,
/// remainder via `add_documents`), with identical peer assignments.
fn build_both(
    collection: &Collection,
    peers: usize,
    split_at: usize,
    dfmax: u32,
) -> (QueryService, QueryService) {
    let partitions = partition_documents(collection.len(), peers, 31);
    let full = HdkNetwork::build(collection, &partitions, config(dfmax)).query_service();

    let old_parts: Vec<Vec<DocId>> = partitions
        .iter()
        .map(|p| p.iter().copied().filter(|d| d.index() < split_at).collect())
        .collect();
    let prefix = collection.prefix(split_at);
    let mut incremental = HdkNetwork::build(&prefix, &old_parts, config(dfmax));
    let mut additions = Vec::new();
    for (peer_idx, part) in partitions.iter().enumerate() {
        for &d in part.iter().filter(|d| d.index() >= split_at) {
            additions.push((PeerId(peer_idx as u64), collection.doc(d).clone()));
        }
    }
    incremental.index_service().add_documents(additions);
    (full, incremental.query_service())
}

fn assert_networks_equal(full: &QueryService, incremental: &QueryService, collection: &Collection) {
    assert_eq!(full.num_docs(), incremental.num_docs());
    assert_eq!(full.sample_size(), incremental.sample_size());
    let (cf, ci) = (
        full.index().index_counts(),
        incremental.index().index_counts(),
    );
    assert_eq!(cf, ci, "index composition diverged");
    assert_eq!(
        full.index().stored_postings_per_peer(),
        incremental.index().stored_postings_per_peer()
    );

    // Spot-check entries across the vocabulary: df, class, postings.
    for t in (0..collection.vocab().len() as u32).step_by(7) {
        let key = Key::single(TermId(t));
        match (full.index().peek(key), incremental.index().peek(key)) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.df, b.df, "df diverged for {key:?}");
                assert_eq!(a.is_ndk, b.is_ndk, "class diverged for {key:?}");
                assert_eq!(a.postings, b.postings, "postings diverged for {key:?}");
            }
            (a, b) => panic!(
                "presence diverged for {key:?}: full={} incr={}",
                a.is_some(),
                b.is_some()
            ),
        }
    }

    // Queries agree bit-for-bit.
    let log = QueryLog::generate(
        collection,
        &QueryLogConfig {
            num_queries: 40,
            ..QueryLogConfig::default()
        },
    );
    for q in &log.queries {
        let a = full.query(PeerId(0), &q.terms, 20);
        let b = incremental.query(PeerId(0), &q.terms, 20);
        assert_eq!(a.results, b.results, "results diverged for {:?}", q.terms);
        assert_eq!(
            a.postings_fetched, b.postings_fetched,
            "retrieval traffic diverged for {:?}",
            q.terms
        );
    }
}

#[test]
fn incremental_equals_rebuild_on_generated_collection() {
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: 450,
        vocab_size: 3_000,
        avg_doc_len: 50,
        num_topics: 30,
        topic_vocab: 50,
        ..GeneratorConfig::default()
    })
    .generate();
    let (full, incremental) = build_both(&collection, 4, 300, 12);
    assert_networks_equal(&full, &incremental, &collection);
}

/// Builds documents `0..bounds[0]`, then grows by `bounds[i-1]..bounds[i]`
/// one `add_documents` session at a time, with the peer assignment of
/// `partitions`.
fn grow_in_waves(
    collection: &Collection,
    partitions: &[Vec<DocId>],
    bounds: &[usize],
    dfmax: u32,
) -> QueryService {
    let base: Vec<Vec<DocId>> = partitions
        .iter()
        .map(|p| {
            p.iter()
                .copied()
                .filter(|d| d.index() < bounds[0])
                .collect()
        })
        .collect();
    let mut net = HdkNetwork::build(&collection.prefix(bounds[0]), &base, config(dfmax));
    for wave in bounds.windows(2) {
        let mut additions = Vec::new();
        for (peer_idx, part) in partitions.iter().enumerate() {
            for &d in part
                .iter()
                .filter(|d| (wave[0]..wave[1]).contains(&d.index()))
            {
                additions.push((PeerId(peer_idx as u64), collection.doc(d).clone()));
            }
        }
        net.index_service().add_documents(additions);
    }
    net.query_service()
}

#[test]
fn incremental_in_multiple_waves() {
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: 360,
        vocab_size: 2_500,
        avg_doc_len: 45,
        num_topics: 25,
        topic_vocab: 50,
        ..GeneratorConfig::default()
    })
    .generate();
    let partitions = partition_documents(collection.len(), 3, 8);
    let full = HdkNetwork::build(&collection, &partitions, config(10)).query_service();
    // Three waves: 0..120, 120..240, 240..360.
    let net = grow_in_waves(&collection, &partitions, &[120, 240, 360], 10);
    assert_networks_equal(&full, &net, &collection);
}

/// The benchmark's growth shape in small: a base build and four equal
/// batches, every batch re-examining all older documents for what became
/// non-discriminative since. The grown index is the one-session rebuild,
/// down to the bits of every top-20 score.
#[test]
fn four_growth_batches_equal_one_session_rebuild() {
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: 400,
        vocab_size: 2_000,
        avg_doc_len: 60,
        num_topics: 20,
        topic_vocab: 60,
        ..GeneratorConfig::default()
    })
    .generate();
    let partitions = partition_documents(collection.len(), 4, 17);
    let full = HdkNetwork::build(&collection, &partitions, config(8)).query_service();
    let grown = grow_in_waves(&collection, &partitions, &[200, 250, 300, 350, 400], 8);
    assert_networks_equal(&full, &grown, &collection);
    let log = QueryLog::generate(
        &collection,
        &QueryLogConfig {
            num_queries: 60,
            ..QueryLogConfig::default()
        },
    );
    for q in &log.queries {
        let bits = |net: &QueryService| -> Vec<(DocId, u64)> {
            net.query(PeerId(1), &q.terms, 20)
                .results
                .iter()
                .map(|r| (r.doc, r.score.to_bits()))
                .collect()
        };
        assert_eq!(
            bits(&full),
            bits(&grown),
            "scores diverged for {:?}",
            q.terms
        );
    }
}

#[test]
fn adding_zero_documents_is_a_noop() {
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: 100,
        vocab_size: 1_000,
        avg_doc_len: 30,
        num_topics: 10,
        topic_vocab: 30,
        ..GeneratorConfig::default()
    })
    .generate();
    let partitions = partition_documents(collection.len(), 2, 4);
    let mut net = HdkNetwork::build(&collection, &partitions, config(10));
    let queries = net.query_service();
    let before = queries.index().index_counts();
    net.index_service().add_documents(Vec::new());
    assert_eq!(queries.index().index_counts(), before);
}

// Randomized equivalence over tiny collections — the same check as the
// deterministic tests above but across arbitrary document contents,
// split points and thresholds.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_equals_rebuild_prop(
        token_docs in prop::collection::vec(
            prop::collection::vec(0u32..12, 3..20),
            6..20,
        ),
        dfmax in 1u32..4,
        split_frac in 0.2f64..0.8,
    ) {
        let mut vocab = Vocabulary::new();
        for t in 0..12 {
            vocab.intern(&format!("w{t}"));
        }
        let docs: Vec<hdk_corpus::Document> = token_docs
            .iter()
            .enumerate()
            .map(|(i, toks)| hdk_corpus::Document {
                id: DocId(i as u32),
                tokens: toks.iter().map(|&t| TermId(t)).collect(),
            })
            .collect();
        let collection = Collection::new(docs, vocab);
        let split = ((collection.len() as f64 * split_frac) as usize).clamp(1, collection.len() - 1);
        let (full, incremental) = build_both(&collection, 2, split, dfmax);

        prop_assert_eq!(
            full.index().index_counts(),
            incremental.index().index_counts()
        );
        prop_assert_eq!(
            full.index().stored_postings_per_peer(),
            incremental.index().stored_postings_per_peer()
        );
        // Check every single-term entry plus every stored multi-term key.
        for t in 0..12u32 {
            let key = Key::single(TermId(t));
            let a = full.index().peek(key);
            let b = incremental.index().peek(key);
            match (a, b) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    prop_assert_eq!(x.df, y.df);
                    prop_assert_eq!(x.is_ndk, y.is_ndk);
                    prop_assert_eq!(x.postings, y.postings);
                }
                _ => prop_assert!(false, "presence diverged for term {}", t),
            }
        }
    }
}

/// Every stored key's flat record — the payload its sealed frames carry —
/// as the service reads the key back, whichever tier holds it: each one
/// accepted by the validating check, each doc-set's count the `df` it
/// counts.
fn records(service: &QueryService) -> BTreeMap<Key, Vec<u8>> {
    let mut records = BTreeMap::new();
    service.index().for_each_entry(|entry| {
        let mut flat = Vec::new();
        entry.put_record(&mut flat, None);
        let key = entry.key;
        assert!(KeyEntry::check(&flat), "{key:?}: a corrupt record");
        if let Some(seen) = &entry.seen_docs {
            assert_eq!(
                seen.iter().count() as u32,
                entry.df,
                "{key:?}: doc-set vs df"
            );
        }
        assert!(records.insert(key, flat).is_none(), "a key stored twice");
    });
    records
}

/// The records the segment logs under `dir` hold: per key the payload of
/// its newest frame (the highest seal version over every peer's logs), as
/// the seals wrote it from the arena — each accepted by the check.
fn logged_records(dir: &std::path::Path) -> BTreeMap<Key, Vec<u8>> {
    let mut newest: HashMap<u64, (u64, Vec<u8>)> = HashMap::new();
    for peer in std::fs::read_dir(dir).expect("the segment directory") {
        for log in std::fs::read_dir(peer.expect("a peer directory").path()).expect("its logs") {
            let log = std::fs::read(log.expect("a log").path()).expect("a readable log");
            let mut pos = 8;
            while let FrameRead::Frame { payload, end } = read_frame(&log, pos) {
                let (hash, rest) = payload.split_first_chunk::<8>().expect("a key hash");
                let (version, record) = rest.split_first_chunk::<8>().expect("a version");
                let (hash, version) = (u64::from_le_bytes(*hash), u64::from_le_bytes(*version));
                if newest.get(&hash).is_none_or(|(v, _)| *v < version) {
                    newest.insert(hash, (version, record.to_vec()));
                }
                pos = end;
            }
            assert_eq!(pos, log.len(), "a log with a torn tail");
        }
    }
    newest
        .into_values()
        .map(|(_, record)| {
            assert!(KeyEntry::check(&record), "a corrupt logged record");
            (KeyEntry::view(&record, Shared::default()).key(), record)
        })
        .collect()
}

/// Names the first key whose records differ, if any.
fn assert_same_records(got: &BTreeMap<Key, Vec<u8>>, want: &BTreeMap<Key, Vec<u8>>, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: stored keys");
    for ((key, a), (_, b)) in got.iter().zip(want) {
        assert_eq!(a, b, "{what}: the records of {key:?} differ");
    }
    assert!(got.keys().eq(want.keys()), "{what}: stored keys differ");
}

#[test]
fn the_arena_and_the_segment_logs_hold_byte_identical_entries_through_growth() {
    // The `ingest` shape: a base build, then several `add_documents`
    // batches. On the unbounded store every entry ends a record in its
    // stripe's arena; under a 64 KiB budget nearly all are sealed frames,
    // then — after a sync — every one is, each written from its arena
    // record, and after a restart of every peer replayed. The flat record
    // each key reads back as from the arena must be the bytes of its
    // newest frame on disk. A reordered contributor list or a lost
    // doc-set byte shows here, where counts and top-k bits would not.
    let docs = 1_000;
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: docs,
        seed: 23,
        ..GeneratorConfig::default()
    })
    .generate();
    let peers = 4;
    let partitions = partition_documents(docs, peers, 23);
    let base = docs / 2;
    let grow = |store: StoreConfig| -> HdkNetwork {
        let base_parts: Vec<Vec<DocId>> = partitions
            .iter()
            .map(|p| p.iter().copied().filter(|d| d.index() < base).collect())
            .collect();
        let config = HdkConfig {
            store,
            ..config(30)
        };
        let mut network = HdkNetwork::build(&collection.prefix(base), &base_parts, config);
        for batch in (base..docs).step_by(125) {
            let mut additions = Vec::new();
            for (peer, part) in partitions.iter().enumerate() {
                for &d in part
                    .iter()
                    .filter(|d| (batch..batch + 125).contains(&d.index()))
                {
                    additions.push((PeerId(peer as u64), collection.doc(d).clone()));
                }
            }
            network.index_service().add_documents(additions);
        }
        network
    };
    let in_arena = records(&grow(StoreConfig::Memory).query_service());
    assert!(in_arena.len() > 10_000, "only {} keys", in_arena.len());
    let with_docset = in_arena
        .values()
        .filter(|record| {
            KeyEntry::view(record, Shared::default())
                .seen_docs_block()
                .is_some()
        })
        .count();
    assert!(
        with_docset > 100,
        "only {with_docset} entries carry a doc-set"
    );

    let dir = tempfile::tempdir().expect("a segment directory");
    let mut tiered = grow(StoreConfig::Segment {
        dir: Some(dir.path().to_path_buf()),
        hot_bytes: 65_536,
    });
    assert_same_records(&records(&tiered.query_service()), &in_arena, "sealed");
    tiered.index_service().sync_storage();
    assert_same_records(&logged_records(dir.path()), &in_arena, "logged");
    let everyone: Vec<PeerId> = (0..peers as u64).map(PeerId).collect();
    let (recovered, _) = tiered.index_service().restart_peers(&everyone);
    assert_eq!(recovered.copies_lost, 0, "a synced restart loses nothing");
    assert_same_records(&records(&tiered.query_service()), &in_arena, "replayed");
}
