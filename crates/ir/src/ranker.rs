//! Score accumulation and deterministic top-k selection.
//!
//! The paper evaluates "high-end ranking as typical users are often
//! interested only in the top 20 results" (Figure 7). Overlap comparison
//! between two engines is only meaningful when each engine's own ranking is
//! deterministic, so ties break by ascending document id everywhere.
//!
//! A query's union is ranked in one pass over its postings: each is scored
//! as it decodes and summed into its document's slot of a flat table
//! ([`ScoreAccumulator`]); only the distinct documents then reach the
//! selection.

use crate::bm25::Bm25;
use crate::compressed::CompressedPostings;
use crate::posting::Posting;
use hdk_corpus::DocId;
use std::cmp::Ordering;

/// One ranked search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    /// The document.
    pub doc: DocId,
    /// Relevance score (BM25 in both engines).
    pub score: f64,
}

/// Rank order: descending score, ties broken by ascending doc id.
fn rank_order(a: &SearchResult, b: &SearchResult) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .expect("scores are finite")
        .then_with(|| a.doc.cmp(&b.doc))
}

/// Selects the `k` highest-scoring results from `scores`, descending score,
/// ties broken by ascending doc id. Expected `O(n + k log k)`: a selection
/// splits off the best `k`, and only those are sorted.
pub fn top_k<I: IntoIterator<Item = SearchResult>>(scores: I, k: usize) -> Vec<SearchResult> {
    select_top_k(scores.into_iter().collect(), k)
}

fn select_top_k(mut results: Vec<SearchResult>, k: usize) -> Vec<SearchResult> {
    debug_assert!(results.iter().all(|r| r.score.is_finite()));
    if results.len() > k {
        results.select_nth_unstable_by(k, rank_order);
        results.truncate(k);
    }
    results.sort_unstable_by(rank_order);
    results
}

/// Streaming BM25 score accumulator: posting blocks are fed in one at a
/// time (each with its key's global `df`) and scores accumulate per
/// document; [`ScoreAccumulator::into_top_k`] finishes the ranking.
///
/// This is the ranker-side half of a plan/execute query pipeline: an
/// executor resolves posting blocks level by level and streams each block
/// through `accumulate` without ever materializing the union. Because f64
/// addition is not associative, callers that need bit-reproducible scores
/// must feed blocks in a canonical order (the query executor uses
/// `(level, key)` order); the final [`top_k`] selection itself is
/// insensitive to accumulation order once per-document sums are fixed.
///
/// Each posting is scored as it decodes and added into its document's
/// running sum, found through a flat open-addressing table: linear
/// probing from a multiplicative hash of the doc id, no per-entry node.
/// A sum starts from `0.0` and takes its document's contributions in feed
/// order, so its bits are those of any per-document table. The sums sit
/// densely in first-seen order, and the table holds only their positions,
/// so an empty slot needs no reserved doc id and the ranking selects
/// straight from the sums. The hash is not keyed: doc ids are assigned by
/// the collection, not chosen by whoever sends a query.
#[derive(Debug, Clone)]
pub struct ScoreAccumulator {
    bm25: Bm25,
    num_docs: usize,
    avg_doc_len: f64,
    /// One running sum per distinct document, in first-seen order.
    sums: Vec<SearchResult>,
    /// `1 + i` for the document at `sums[i]`, `0` for an empty slot. A
    /// power-of-two length, at most half full once anything is fed.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a hash's top bits pick the home slot.
    shift: u32,
}

/// The smallest table allocated, in slots: a query's union is typically
/// a few dozen documents.
const MIN_SLOTS: usize = 128;

impl ScoreAccumulator {
    /// Accumulator over a collection of `num_docs` documents with average
    /// document length `avg_doc_len`, using default BM25 parameters.
    pub fn new(num_docs: usize, avg_doc_len: f64) -> Self {
        Self::with_bm25(Bm25::default(), num_docs, avg_doc_len)
    }

    /// Accumulator with explicit BM25 parameters.
    pub fn with_bm25(bm25: Bm25, num_docs: usize, avg_doc_len: f64) -> Self {
        Self {
            bm25,
            num_docs,
            avg_doc_len,
            sums: Vec::new(),
            slots: Vec::new(),
            shift: 64,
        }
    }

    /// Streams one posting block through the scorer: every posting
    /// contributes `idf(df) · tf_sat(tf, dl)` to its document's score. The
    /// block's `idf` is computed once.
    pub fn accumulate<I: IntoIterator<Item = Posting>>(&mut self, df: u32, postings: I) {
        let idf = self.bm25.idf(df as usize, self.num_docs);
        let postings = postings.into_iter();
        if self.slots.is_empty() {
            // The first block sizes the table for `MIN_SLOTS / 2` documents
            // or all of its postings, whichever is more: a typical query's
            // union then never rehashes.
            let postings = postings.size_hint().0.max(MIN_SLOTS / 2);
            self.sums.reserve(postings);
            self.grow(postings);
        }
        // `for_each` (not a `for` loop) so block iterators run their
        // internal-iteration `fold` specialization, which keeps the
        // decoder state in locals for the whole block.
        let (bm25, avg_doc_len) = (self.bm25, self.avg_doc_len);
        postings.for_each(|p| {
            let score = bm25.score_with_idf(idf, p.tf, p.doc_len, avg_doc_len);
            self.add(p.doc, score);
        });
    }

    /// Streams a compressed block straight through the scorer — the
    /// zero-copy rank path: postings decode straight from the block into
    /// the sums, no intermediate list. Accumulation order and f64 results
    /// are exactly those of `accumulate(df, block.iter())`.
    pub fn accumulate_block(&mut self, df: u32, block: &CompressedPostings) {
        self.accumulate(df, block);
    }

    /// True when no posting has been accumulated yet.
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }

    /// Finishes the ranking: the `k` highest-scoring documents, descending
    /// score, ties broken by ascending doc id.
    pub fn into_top_k(self, k: usize) -> Vec<SearchResult> {
        select_top_k(self.sums, k)
    }

    /// Adds `score` into `doc`'s running sum, opening the sum at `0.0`.
    #[inline]
    fn add(&mut self, doc: DocId, score: f64) {
        let mut at = self.home(doc);
        let mask = self.slots.len() - 1;
        loop {
            match self.slots[at] {
                0 => break,
                s => {
                    let sum = &mut self.sums[s as usize - 1];
                    if sum.doc == doc {
                        sum.score += score;
                        return;
                    }
                }
            }
            at = (at + 1) & mask;
        }
        if 2 * (self.sums.len() + 1) > self.slots.len() {
            self.grow(self.sums.len() + 1);
            at = self.vacant(doc);
        }
        self.sums.push(SearchResult {
            doc,
            score: 0.0 + score,
        });
        self.slots[at] = u32::try_from(self.sums.len()).expect("fewer than 2^32 documents");
    }

    /// Rebuilds the table at the smallest power of two at least twice
    /// `docs`: room for that many documents at most half full.
    fn grow(&mut self, docs: usize) {
        let len = docs.saturating_mul(2).next_power_of_two();
        self.slots = vec![0; len];
        self.shift = 64 - len.trailing_zeros();
        for i in 0..self.sums.len() {
            let at = self.vacant(self.sums[i].doc);
            self.slots[at] = (i + 1) as u32;
        }
    }

    /// The first empty slot on `doc`'s probe sequence.
    fn vacant(&self, doc: DocId) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = self.home(doc);
        while self.slots[at] != 0 {
            at = (at + 1) & mask;
        }
        at
    }

    /// `doc`'s home slot: the top bits of a Fibonacci hash.
    #[inline]
    fn home(&self, doc: DocId) -> usize {
        (u64::from(doc.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(doc: u32, score: f64) -> SearchResult {
        SearchResult {
            doc: DocId(doc),
            score,
        }
    }

    #[test]
    fn selects_highest() {
        let out = top_k(vec![r(1, 0.5), r(2, 2.0), r(3, 1.0), r(4, 3.0)], 2);
        assert_eq!(out.iter().map(|x| x.doc.0).collect::<Vec<_>>(), [4, 2]);
    }

    #[test]
    fn fewer_results_than_k() {
        let out = top_k(vec![r(9, 1.0)], 5);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn ties_break_by_doc_id() {
        let out = top_k(vec![r(7, 1.0), r(3, 1.0), r(5, 1.0)], 2);
        assert_eq!(out.iter().map(|x| x.doc.0).collect::<Vec<_>>(), [3, 5]);
    }

    #[test]
    fn k_zero_empty() {
        assert!(top_k(vec![r(1, 1.0)], 0).is_empty());
    }

    #[test]
    fn order_of_input_is_irrelevant() {
        let mut a = vec![r(1, 0.1), r(2, 5.0), r(3, 5.0), r(4, 2.0), r(5, 0.7)];
        let fwd = top_k(a.clone(), 3);
        a.reverse();
        let rev = top_k(a, 3);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn large_input_matches_full_sort() {
        let results: Vec<SearchResult> = (0..500u32)
            .map(|i| r(i, f64::from((i * 7919) % 101)))
            .collect();
        let fast = top_k(results.clone(), 20);
        let mut slow = results;
        slow.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap()
                .then_with(|| a.doc.cmp(&b.doc))
        });
        slow.truncate(20);
        assert_eq!(fast, slow);
    }

    fn p(doc: u32, tf: u32) -> Posting {
        Posting {
            doc: DocId(doc),
            tf,
            doc_len: 100,
        }
    }

    #[test]
    fn accumulator_matches_direct_scoring() {
        let bm25 = Bm25::default();
        let mut acc = ScoreAccumulator::new(5_000, 120.0);
        acc.accumulate(30, vec![p(3, 4)]);
        let out = acc.into_top_k(1);
        let expected = bm25.score(4, 100, 120.0, 30, 5_000);
        assert!((out[0].score - expected).abs() < 1e-15);
    }

    #[test]
    fn accumulator_sums_across_blocks() {
        let mut acc = ScoreAccumulator::new(1_000, 80.0);
        acc.accumulate(50, vec![p(1, 2), p(2, 2)]);
        acc.accumulate(50, vec![p(2, 2)]);
        let out = acc.into_top_k(10);
        assert_eq!(out.len(), 2, "one result per distinct document");
        assert_eq!(out[0].doc, DocId(2));
        assert!(out[0].score > out[1].score);
    }

    #[test]
    fn empty_accumulator_yields_nothing() {
        let acc = ScoreAccumulator::new(100, 10.0);
        assert!(acc.is_empty());
        assert!(acc.into_top_k(5).is_empty());
    }
}
