//! Property tests against a brute-force reference implementation.
//!
//! On tiny random collections we can compute the *exact* semantics of the
//! paper's definitions by exhaustive enumeration — every key's true window
//! document frequency, its DK/NDK class, and intrinsic discriminativeness
//! (Definition 5) — and then check the distributed engine against them:
//!
//! 1. every stored key's df never exceeds the true window df (the engine
//!    never invents co-occurrences);
//! 2. every *intrinsically discriminative* key is stored with exactly the
//!    true df, full posting list, and HDK status;
//! 3. retrieval exhaustiveness: for any discriminative query, every
//!    document where the whole query co-occurs within a window is
//!    retrieved (the redundancy-filtering soundness claim of Section 3.1).

use hdk_core::{HdkConfig, HdkNetwork, Key};
use hdk_corpus::{Collection, DocId, Document};
use hdk_p2p::PeerId;
use hdk_text::{TermId, Vocabulary};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const VOCAB: u32 = 10;
const SMAX: usize = 3;

/// Documents whose tokens contain all of `terms` within one window of `w`.
fn brute_window_docs(docs: &[Document], terms: &[TermId], w: usize) -> BTreeSet<u32> {
    let mut out = BTreeSet::new();
    'doc: for d in docs {
        let n = d.tokens.len();
        for start in 0..n {
            let end = (start + w).min(n);
            let window = &d.tokens[start..end];
            if terms.iter().all(|t| window.contains(t)) {
                out.insert(d.id.0);
                continue 'doc;
            }
        }
    }
    out
}

/// All keys (term subsets of size 1..=SMAX over the vocabulary) with their
/// true window df.
fn brute_all_keys(docs: &[Document], w: usize) -> BTreeMap<Key, BTreeSet<u32>> {
    let terms: Vec<TermId> = (0..VOCAB).map(TermId).collect();
    let mut out = BTreeMap::new();
    let n = terms.len();
    for mask in 1u32..(1 << n) {
        if !(1..=SMAX as u32).contains(&mask.count_ones()) {
            continue;
        }
        let subset: Vec<TermId> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| terms[i])
            .collect();
        let docs_with = brute_window_docs(docs, &subset, w);
        if !docs_with.is_empty() {
            out.insert(Key::from_terms(&subset).expect("<= SMAX terms"), docs_with);
        }
    }
    out
}

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

fn arb_docs() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0..VOCAB, 3..24), 4..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_agrees_with_brute_force(
        token_docs in arb_docs(),
        dfmax in 1u32..4,
        w in 3usize..6,
        peers in 1usize..4,
    ) {
        let collection = make_collection(&token_docs);
        let partitions = hdk_corpus::partition_documents(collection.len(), peers, 99);
        let network = HdkNetwork::build(
            &collection,
            &partitions,
            HdkConfig {
                dfmax,
                smax: SMAX,
                window: w,
                ff: u64::MAX, // no very-frequent exclusion in the reference
                exact_intrinsic: false,
                redundancy_filtering: true,
                replication: 1,
                hot_threshold: 0,
                hot_extra: 1,
                store: hdk_core::StoreConfig::from_env(),
            codec: hdk_core::Codec::Leb128,
            gossip: hdk_p2p::GossipConfig::default(),
            },
        );

        let truth = brute_all_keys(collection.docs(), w);

        for (key, true_docs) in &truth {
            let true_df = true_docs.len() as u32;
            let entry = network.index().peek(*key);

            // (1) Soundness: stored df never exceeds the truth; stored
            // postings only reference truly co-occurring documents.
            if let Some(e) = &entry {
                prop_assert!(
                    e.df <= true_df,
                    "{key:?}: engine df {} > true df {}", e.df, true_df
                );
                for p in e.postings.iter() {
                    prop_assert!(
                        true_docs.contains(&p.doc.0),
                        "{key:?} stores doc {} that has no window co-occurrence",
                        p.doc
                    );
                }
            }

            // (2) Exactness for intrinsic keys: discriminative with every
            // immediate sub-key non-discriminative.
            let discriminative = true_df <= dfmax;
            let all_subs_ndk = key.immediate_sub_keys().all(|sub| {
                truth
                    .get(&sub)
                    .map(|d| d.len() as u32 > dfmax)
                    .unwrap_or(false)
            });
            let intrinsic = discriminative && (key.size() == 1 || all_subs_ndk);
            if intrinsic {
                let e = entry.as_ref();
                prop_assert!(e.is_some(), "intrinsic {key:?} (df {true_df}) missing");
                let e = e.unwrap();
                prop_assert!(!e.is_ndk, "intrinsic {key:?} marked NDK");
                prop_assert_eq!(
                    e.df, true_df,
                    "intrinsic {:?}: df {} != true {}", key, e.df, true_df
                );
                let stored: BTreeSet<u32> = e.postings.docs().map(|d| d.0).collect();
                prop_assert_eq!(&stored, true_docs, "intrinsic {:?} posting set", key);
            }

            // (2b) Singles are always indexed; their class matches truth.
            if key.size() == 1 {
                let e = entry.as_ref().expect("all singles are indexed");
                prop_assert_eq!(e.df, true_df);
                prop_assert_eq!(e.is_ndk, true_df > dfmax);
            }
        }

        // (3) Retrieval exhaustiveness for discriminative queries.
        for (key, true_docs) in &truth {
            if true_docs.len() as u32 > dfmax {
                continue;
            }
            let terms: Vec<TermId> = key.terms().collect();
            let outcome = network.query(PeerId(0), &terms, collection.len());
            let retrieved: BTreeSet<u32> = outcome.results.iter().map(|r| r.doc.0).collect();
            for doc in true_docs {
                prop_assert!(
                    retrieved.contains(doc),
                    "query {key:?} (df {}) missed doc {doc}; got {retrieved:?}",
                    true_docs.len()
                );
            }
        }
    }

    /// The exact-intrinsic mode must be a subset of the practical variant:
    /// every key it stores is stored by the default mode too, and every
    /// stored multi-term key truly satisfies Definition 5.
    #[test]
    fn exact_mode_stores_only_definition5_keys(
        token_docs in arb_docs(),
        dfmax in 1u32..4,
        w in 3usize..6,
    ) {
        let collection = make_collection(&token_docs);
        let partitions = hdk_corpus::partition_documents(collection.len(), 2, 7);
        let exact = HdkNetwork::build(
            &collection,
            &partitions,
            HdkConfig {
                dfmax,
                smax: SMAX,
                window: w,
                ff: u64::MAX,
                exact_intrinsic: true,
                redundancy_filtering: true,
                replication: 1,
                hot_threshold: 0,
                hot_extra: 1,
                store: hdk_core::StoreConfig::from_env(),
            codec: hdk_core::Codec::Leb128,
            gossip: hdk_p2p::GossipConfig::default(),
            },
        );
        let truth = brute_all_keys(collection.docs(), w);
        for (key, true_docs) in &truth {
            if key.size() < 2 {
                continue;
            }
            if let Some(e) = exact.index().peek(*key) {
                if !e.is_ndk {
                    // Stored as discriminative in exact mode: Definition 5
                    // must hold globally.
                    prop_assert!(true_docs.len() as u32 <= dfmax);
                    for sub in key.immediate_sub_keys() {
                        let sub_df = truth.get(&sub).map(|d| d.len() as u32).unwrap_or(0);
                        prop_assert!(
                            sub_df > dfmax,
                            "exact mode stored {key:?} but sub-key {sub:?} is a DK (df {sub_df})"
                        );
                    }
                }
            }
        }
    }
}
