//! Property test: the plan/execute query pipeline is observationally
//! identical to the naive sequential lattice walk it replaced.
//!
//! `naive_query` below is the retired `query_with` protocol, reimplemented
//! over public APIs as the executable reference: probe the singles in
//! canonical order, expand only non-discriminative keys by
//! non-discriminative terms, probe each level's candidates in sorted key
//! order, rank the union of everything found. The pipeline
//! ([`HdkNetwork::query`]) must reproduce it bit for bit — top-k score
//! bits, lookup counts, postings fetched, and every traffic counter —
//! because planning is a pure re-statement of the same walk and the
//! executor applies all observable effects in plan order regardless of
//! how wide the parallel probe fan-out ran.

use hdk_core::ranking::rank_union;
use hdk_core::{HdkConfig, HdkNetwork, Key, KeyLookup, QueryOutcome};
use hdk_corpus::{Collection, DocId, Document};
use hdk_p2p::PeerId;
use hdk_text::{TermId, Vocabulary};
use proptest::prelude::*;
use std::collections::HashSet;

const VOCAB: u32 = 12;

fn make_collection(token_docs: &[Vec<u32>]) -> Collection {
    let mut vocab = Vocabulary::new();
    for t in 0..VOCAB {
        vocab.intern(&format!("term{t:02}"));
    }
    let docs = token_docs
        .iter()
        .enumerate()
        .map(|(i, toks)| Document {
            id: DocId(i as u32),
            tokens: toks.iter().map(|&t| TermId(t)).collect(),
        })
        .collect();
    Collection::new(docs, vocab)
}

/// The retired sequential walk, verbatim: one metered lookup at a time,
/// level by level, ranking the accumulated union at the end.
fn naive_query(network: &HdkNetwork, from: PeerId, query: &[TermId], k: usize) -> QueryOutcome {
    let mut terms: Vec<TermId> = query.to_vec();
    terms.sort_unstable();
    terms.dedup();

    let mut fetched: Vec<(Key, KeyLookup)> = Vec::new();
    let mut lookups = 0u32;
    let mut postings_fetched = 0u64;

    let mut ndk_singles: Vec<TermId> = Vec::new();
    for &t in &terms {
        let key = Key::single(t);
        lookups += 1;
        if let Some(l) = network.index().lookup(from, key) {
            postings_fetched += l.postings.len() as u64;
            if l.is_ndk {
                ndk_singles.push(t);
            }
            fetched.push((key, l));
        }
    }

    let mut frontier: Vec<Key> = ndk_singles.iter().map(|&t| Key::single(t)).collect();
    for _size in 2..=network.config().smax {
        if frontier.is_empty() {
            break;
        }
        let mut candidates: HashSet<Key> = HashSet::new();
        for key in &frontier {
            for &t in &ndk_singles {
                if let Some(c) = key.extend(t) {
                    candidates.insert(c);
                }
            }
        }
        let mut ordered: Vec<Key> = candidates.into_iter().collect();
        ordered.sort_unstable();
        let mut next_frontier: Vec<Key> = Vec::new();
        for key in ordered {
            lookups += 1;
            if let Some(l) = network.index().lookup(from, key) {
                postings_fetched += l.postings.len() as u64;
                if l.is_ndk {
                    next_frontier.push(key);
                }
                fetched.push((key, l));
            }
        }
        frontier = next_frontier;
    }

    let results = rank_union(&fetched, network.num_docs(), network.avg_doc_len(), k);
    QueryOutcome {
        results,
        lookups,
        postings_fetched,
    }
}

fn arb_docs() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0..VOCAB, 3..24), 4..16)
}

fn arb_queries() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0..VOCAB, 1..8), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pipeline_matches_naive_sequential_walk(
        token_docs in arb_docs(),
        queries in arb_queries(),
        dfmax in 1u32..5,
        smax in 1usize..5,
        peers in 1usize..4,
    ) {
        let collection = make_collection(&token_docs);
        let partitions = hdk_corpus::partition_documents(collection.len(), peers, 17);
        let config = HdkConfig {
            dfmax,
            smax,
            window: 5,
            ff: u64::MAX,
            exact_intrinsic: false,
            redundancy_filtering: true,
            replication: 1,
            hot_threshold: 0,
            hot_extra: 1,
            store: hdk_core::StoreConfig::from_env(),
            codec: hdk_core::Codec::Leb128,
            gossip: hdk_p2p::GossipConfig::default(),
        };
        // Two identical builds (builds are deterministic — pinned by
        // tests/determinism.rs) so each side meters its own traffic.
        let reference = HdkNetwork::build(&collection, &partitions, config.clone());
        let pipeline = HdkNetwork::build(&collection, &partitions, config);

        for (i, q) in queries.iter().enumerate() {
            let terms: Vec<TermId> = q.iter().map(|&t| TermId(t)).collect();
            let from = PeerId(i as u64 % peers as u64);
            let naive = naive_query(&reference, from, &terms, 10);
            let fast = pipeline.query(from, &terms, 10);
            prop_assert_eq!(naive.lookups, fast.lookups, "lookup counts diverged");
            prop_assert_eq!(
                naive.postings_fetched, fast.postings_fetched,
                "postings fetched diverged"
            );
            prop_assert_eq!(
                naive.results.len(), fast.results.len(),
                "result set sizes diverged"
            );
            for (a, b) in naive.results.iter().zip(&fast.results) {
                prop_assert_eq!(a.doc, b.doc);
                prop_assert_eq!(
                    a.score.to_bits(), b.score.to_bits(),
                    "score bits diverged for {}", a.doc
                );
            }
        }
        // Metering equivalence: the pipeline's batched stripe lookups must
        // account message-for-message like the one-at-a-time walk.
        prop_assert_eq!(reference.snapshot(), pipeline.snapshot(), "traffic diverged");
    }
}
