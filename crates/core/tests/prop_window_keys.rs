//! The sorted-run key generator against the naive generator it replaced.
//!
//! `oracle` below is the previous `window_keys` implementation, kept here —
//! in test code only — as the reference: a hash map per document, a hash
//! map per call, one membership probe and one `Key` per probed subset. On
//! small random documents, windows, key sizes, NDK knowledge and novelty
//! sets, [`RunBuilder`] must emit exactly its keys and postings, already in
//! the order an indexing round ships them, and the slice encoder must turn
//! every run into the bytes the list encoder and the streaming merge give.

use hdk_core::window_keys::{single_term_postings, KeyRuns, RunBuilder};
use hdk_core::{Key, MAX_KEY_SIZE};
use hdk_corpus::DocId;
use hdk_ir::{CompressedPostings, Posting, PostingList};
use hdk_text::TermId;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

const VOCAB: u32 = 12;

mod oracle {
    use super::*;
    use hdk_text::window::for_each_context;

    pub fn single_term_postings(
        docs: &[(DocId, Vec<TermId>)],
        excluded: &HashSet<TermId>,
    ) -> HashMap<Key, PostingList> {
        let mut acc: HashMap<Key, Vec<Posting>> = HashMap::new();
        for (doc, tokens) in docs {
            let doc_len = tokens.len() as u32;
            let mut tf: HashMap<TermId, u32> = HashMap::new();
            for t in tokens {
                if !excluded.contains(t) {
                    *tf.entry(*t).or_insert(0) += 1;
                }
            }
            for (t, f) in tf {
                acc.entry(Key::single(t)).or_default().push(Posting {
                    doc: *doc,
                    tf: f,
                    doc_len,
                });
            }
        }
        acc.into_iter()
            .map(|(k, v)| (k, PostingList::from_unsorted(v)))
            .collect()
    }

    pub fn candidate_postings(
        docs: &[(DocId, Vec<TermId>)],
        window: usize,
        s: usize,
        ndk1: &HashSet<TermId>,
        ndk_prev: &HashSet<Key>,
        exact_intrinsic: bool,
        novelty: Option<(&HashSet<TermId>, &HashSet<Key>)>,
    ) -> HashMap<Key, PostingList> {
        let mut acc: HashMap<Key, Vec<Posting>> = HashMap::new();
        for (doc, tokens) in docs {
            let doc_len = tokens.len() as u32;
            let mut per_doc: HashMap<Key, u32> = HashMap::new();
            for_each_context(tokens, window, |prefix, t| {
                if !ndk1.contains(&t) {
                    return;
                }
                let t_is_new = novelty.map(|(new1, _)| new1.contains(&t));
                // Distinct non-discriminative terms in the prefix, excluding t.
                let mut prefix_ndk: Vec<TermId> = Vec::new();
                for &p in prefix {
                    if p != t && ndk1.contains(&p) && !prefix_ndk.contains(&p) {
                        prefix_ndk.push(p);
                    }
                }
                for subset in subsets(&prefix_ndk, s - 1) {
                    let sub_key = Key::from_terms(&subset).expect("small and non-empty");
                    if !ndk_prev.contains(&sub_key) {
                        continue;
                    }
                    if let (Some((_, new_prev)), Some(false)) = (novelty, t_is_new) {
                        // Old document, old term: the sub-key must be novel,
                        // otherwise this combination was generated before.
                        if !new_prev.contains(&sub_key) {
                            continue;
                        }
                    }
                    let Some(candidate) = sub_key.extend(t) else {
                        continue;
                    };
                    if exact_intrinsic
                        && !candidate
                            .immediate_sub_keys()
                            .all(|sub| ndk_prev.contains(&sub))
                    {
                        continue;
                    }
                    *per_doc.entry(candidate).or_insert(0) += 1;
                }
            });
            for (k, tf) in per_doc {
                acc.entry(k).or_default().push(Posting {
                    doc: *doc,
                    tf,
                    doc_len,
                });
            }
        }
        acc.into_iter()
            .map(|(k, v)| (k, PostingList::from_unsorted(v)))
            .collect()
    }

    /// Every `k`-subset of `items`, by bit mask.
    fn subsets(items: &[TermId], k: usize) -> Vec<Vec<TermId>> {
        (0u32..1 << items.len())
            .filter(|mask| mask.count_ones() as usize == k)
            .map(|mask| {
                (0..items.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| items[i])
                    .collect()
            })
            .collect()
    }
}

fn docs_of(token_docs: &[Vec<u32>]) -> Vec<(DocId, Vec<TermId>)> {
    token_docs
        .iter()
        .enumerate()
        // Ids ascending with gaps, as a peer's fraction of a collection.
        .map(|(i, toks)| {
            (
                DocId(3 * i as u32 + 1),
                toks.iter().map(|&t| TermId(t)).collect(),
            )
        })
        .collect()
}

fn borrowed(docs: &[(DocId, Vec<TermId>)]) -> impl Iterator<Item = (DocId, &[TermId])> {
    docs.iter().map(|(d, t)| (*d, t.as_slice()))
}

fn terms_of(mask: u16) -> HashSet<TermId> {
    (0..VOCAB)
        .filter(|t| mask & (1 << t) != 0)
        .map(TermId)
        .collect()
}

/// Keys of `size` terms from term triples (fewer where terms repeat — a set
/// may hold keys of the wrong size; they match no sub-key).
fn keys_of(triples: &[(u32, u32, u32)], size: usize) -> HashSet<Key> {
    triples
        .iter()
        .map(|&(a, b, c)| Key::from_terms(&[a, b, c].map(TermId)[..size]).expect("1..=3 terms"))
        .collect()
}

/// The runs hold exactly `expected`, strictly key-ascending, every run
/// strictly doc-ascending.
fn assert_runs_equal(
    runs: &KeyRuns,
    expected: &HashMap<Key, PostingList>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(runs.len(), expected.len(), "number of keys");
    let keys: Vec<Key> = runs.iter().map(|(key, _)| key).collect();
    prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys not ascending");
    for (key, run) in runs.iter() {
        prop_assert!(!run.is_empty(), "empty run for {:?}", key);
        prop_assert!(
            run.windows(2).all(|w| w[0].doc < w[1].doc),
            "run of {:?} not doc-ascending",
            key
        );
        let list = expected.get(&key);
        prop_assert_eq!(Some(run), list.map(PostingList::postings), "{:?}", key);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn run_generator_equals_the_naive_oracle(
        token_docs in prop::collection::vec(prop::collection::vec(0..VOCAB, 0..60), 1..8),
        window in 2usize..=8,
        s in 2usize..=4,
        ndk1_mask in any::<u16>(),
        prev in prop::collection::vec((0..VOCAB, 0..VOCAB, 0..VOCAB), 0..60),
        new1_mask in any::<u16>(),
        new_prev in prop::collection::vec((0..VOCAB, 0..VOCAB, 0..VOCAB), 0..12),
        novel_share in 0usize..4,
        old_docs in 0usize..8,
        exact in any::<bool>(),
    ) {
        let docs = docs_of(&token_docs);
        let ndk1 = terms_of(ndk1_mask);
        let ndk_prev = keys_of(&prev, s - 1);
        // Novelty: a few of the known keys (what a session produces) plus
        // keys the peer does not know as NDK (which must emit nothing).
        let new1 = terms_of(new1_mask & ndk1_mask);
        let mut newly: HashSet<Key> = keys_of(&new_prev, s - 1);
        newly.extend(ndk_prev.iter().copied().filter(|k| k.terms().map(|t| t.0 as usize).sum::<usize>() % 4 < novel_share));
        let novelty = Some((&new1, &newly));

        // Everything as new documents.
        let mut all_new = RunBuilder::default();
        all_new.add_candidates(borrowed(&docs), window, s, &ndk1, &ndk_prev, exact, None);
        let expected = oracle::candidate_postings(&docs, window, s, &ndk1, &ndk_prev, exact, None);
        assert_runs_equal(&all_new.finish(), &expected)?;

        // Everything as old documents under the novelty sets.
        let mut all_old = RunBuilder::default();
        all_old.add_candidates(borrowed(&docs), window, s, &ndk1, &ndk_prev, exact, novelty);
        let expected = oracle::candidate_postings(&docs, window, s, &ndk1, &ndk_prev, exact, novelty);
        assert_runs_equal(&all_old.finish(), &expected)?;

        // A session: some old documents, the rest pending, one builder —
        // its single sort is the union of the two passes.
        let (old, pending) = docs.split_at(old_docs.min(docs.len()));
        let mut session = RunBuilder::default();
        session.add_candidates(borrowed(pending), window, s, &ndk1, &ndk_prev, exact, None);
        session.add_candidates(borrowed(old), window, s, &ndk1, &ndk_prev, exact, novelty);
        let mut expected = oracle::candidate_postings(pending, window, s, &ndk1, &ndk_prev, exact, None);
        for (key, list) in oracle::candidate_postings(old, window, s, &ndk1, &ndk_prev, exact, novelty) {
            let merged = expected.remove(&key).unwrap_or_default().union(&list);
            expected.insert(key, merged);
        }
        assert_runs_equal(&session.finish(), &expected)?;
    }

    #[test]
    fn single_term_runs_equal_the_naive_oracle(
        token_docs in prop::collection::vec(prop::collection::vec(0..VOCAB, 0..60), 1..8),
        excluded_mask in any::<u16>(),
        twice in any::<bool>(),
    ) {
        let docs = docs_of(&token_docs);
        let excluded = terms_of(excluded_mask);
        let mut runs = RunBuilder::default();
        runs.add_singles(borrowed(&docs), &excluded);
        let mut expected = oracle::single_term_postings(&docs, &excluded);
        if twice {
            // A document fed twice adds its frequencies up, as
            // `PostingList::from_unsorted` does.
            runs.add_singles(borrowed(&docs[..1]), &excluded);
            for (key, list) in oracle::single_term_postings(&docs[..1], &excluded) {
                let merged = expected[&key].union(&list);
                expected.insert(key, merged);
            }
        }
        let runs = runs.finish();
        assert_runs_equal(&runs, &expected)?;
        if !twice {
            // The decoded view is the same thing, one list per key.
            let lists = single_term_postings(borrowed(&docs), &excluded);
            prop_assert_eq!(lists.len(), expected.len());
            for (key, list) in lists {
                prop_assert_eq!(Some(&list), expected.get(&key));
            }
        }
    }

    #[test]
    fn slice_encoder_gives_the_list_and_merge_bytes(
        gaps in prop::collection::vec((1u32..5_000, 1u32..300, 1u32..100_000), 0..40),
        first in 0u32..1_000_000,
    ) {
        let mut doc = first;
        let postings: Vec<Posting> = gaps
            .iter()
            .map(|&(gap, tf, doc_len)| {
                doc += gap;
                Posting { doc: DocId(doc), tf, doc_len }
            })
            .collect();
        let block = CompressedPostings::from_postings(&postings);
        prop_assert_eq!(block.len(), postings.len());
        let list = PostingList::from_sorted(postings.clone());
        prop_assert_eq!(block.decode(), list.clone());
        let from_list = CompressedPostings::from_list(&list);
        prop_assert_eq!(block.as_bytes(), from_list.as_bytes());
        // The streaming encoder, one posting at a time through the merge
        // (interleaved, so it re-encodes rather than appends).
        let (even, odd): (Vec<_>, Vec<_>) =
            postings.iter().enumerate().partition(|(i, _)| i % 2 == 0);
        let half = |part: Vec<(usize, &Posting)>| {
            let part: Vec<Posting> = part.into_iter().map(|(_, p)| *p).collect();
            CompressedPostings::from_postings(&part)
        };
        let (merged, _) = half(even).merge_counting(&half(odd));
        prop_assert_eq!(block.as_bytes(), merged.as_bytes());
        prop_assert_eq!(block.min_doc(), merged.min_doc());
        prop_assert_eq!(block.max_doc(), merged.max_doc());
    }

    #[test]
    fn key_from_terms_sorts_dedups_and_bounds(
        terms in prop::collection::vec(0u32..8, 0..7),
    ) {
        // The semantics `from_terms` had when it collected into a `Vec`.
        let mut expected = terms.clone();
        expected.sort_unstable();
        expected.dedup();
        let ids: Vec<TermId> = terms.iter().map(|&t| TermId(t)).collect();
        match Key::from_terms(&ids) {
            None => prop_assert!(expected.is_empty() || expected.len() > MAX_KEY_SIZE),
            Some(key) => {
                prop_assert_eq!(key.size(), expected.len());
                prop_assert_eq!(key.terms().map(|t| t.0).collect::<Vec<_>>(), expected);
            }
        }
    }
}

#[test]
fn key_from_terms_at_the_size_bounds() {
    let t = |i: u32| TermId(i);
    assert!(Key::from_terms(&[]).is_none());
    for n in 1..=4u32 {
        let terms: Vec<TermId> = (0..n).rev().map(t).collect();
        let key = Key::from_terms(&terms).expect("1..=4 distinct terms");
        assert_eq!(
            key.terms().collect::<Vec<_>>(),
            (0..n).map(t).collect::<Vec<_>>()
        );
    }
    assert!(Key::from_terms(&[t(4), t(3), t(2), t(1), t(0)]).is_none());
    // Six terms, four distinct: duplicates collapse before the bound applies,
    // wherever they sit.
    let dup = Key::from_terms(&[t(9), t(2), t(9), t(7), t(2), t(5)]).expect("4 distinct");
    assert_eq!(dup.terms().collect::<Vec<_>>(), [t(2), t(5), t(7), t(9)]);
    // A fifth distinct term is refused even after duplicates.
    assert!(Key::from_terms(&[t(1), t(1), t(2), t(3), t(4), t(5)]).is_none());
    // The padding value is an ordinary term id.
    let max = Key::from_terms(&[t(u32::MAX), t(0)]).expect("2 terms");
    assert_eq!(max.terms().collect::<Vec<_>>(), [t(0), t(u32::MAX)]);
    assert_ne!(max, Key::single(t(0)));
}
