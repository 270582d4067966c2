//! Deterministic top-k selection.
//!
//! The paper evaluates "high-end ranking as typical users are often
//! interested only in the top 20 results" (Figure 7). Overlap comparison
//! between two engines is only meaningful when each engine's own ranking is
//! deterministic, so ties break by ascending document id everywhere.

use crate::bm25::Bm25;
use crate::compressed::CompressedPostings;
use crate::posting::Posting;
use hdk_corpus::DocId;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// One ranked search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    /// The document.
    pub doc: DocId,
    /// Relevance score (BM25 in both engines).
    pub score: f64,
}

/// Wrapper ordering results as a min-heap root (worst of the current top-k):
/// smaller score first; equal scores put the *larger* doc id first so it is
/// evicted first, giving deterministic tie-breaks toward smaller ids.
#[derive(Debug, PartialEq)]
struct HeapEntry(SearchResult);

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the root is the weakest entry.
        other
            .0
            .score
            .partial_cmp(&self.0.score)
            .expect("scores are finite")
            .then_with(|| self.0.doc.cmp(&other.0.doc))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Selects the `k` highest-scoring results from `scores`, descending score,
/// ties broken by ascending doc id. Runs in `O(n log k)`.
pub fn top_k<I: IntoIterator<Item = SearchResult>>(scores: I, k: usize) -> Vec<SearchResult> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
    for r in scores {
        debug_assert!(r.score.is_finite(), "non-finite score for {}", r.doc);
        if heap.len() < k {
            heap.push(HeapEntry(r));
        } else if let Some(root) = heap.peek() {
            let beats = r.score > root.0.score || (r.score == root.0.score && r.doc < root.0.doc);
            if beats {
                heap.pop();
                heap.push(HeapEntry(r));
            }
        }
    }
    let mut out: Vec<SearchResult> = heap.into_iter().map(|e| e.0).collect();
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("scores are finite")
            .then_with(|| a.doc.cmp(&b.doc))
    });
    out
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
#[derive(Debug, Clone)]
pub struct ScoreAccumulator {
    bm25: Bm25,
    num_docs: usize,
    avg_doc_len: f64,
    scores: HashMap<DocId, f64>,
}

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
            scores: HashMap::new(),
        }
    }

    /// Streams one posting block through the scorer: every posting
    /// contributes `idf(df) · tf_sat(tf, dl)` to its document's score.
    pub fn accumulate<I: IntoIterator<Item = Posting>>(&mut self, df: u32, postings: I) {
        let df = df as usize;
        // `for_each` (not a `for` loop) so block iterators run their
        // internal-iteration `fold` specialization, which keeps the
        // decoder state in locals for the whole block.
        let scores = &mut self.scores;
        let bm25 = &self.bm25;
        let (avg_doc_len, num_docs) = (self.avg_doc_len, self.num_docs);
        postings.into_iter().for_each(|p| {
            *scores.entry(p.doc).or_insert(0.0) +=
                bm25.score(p.tf, p.doc_len, avg_doc_len, df, num_docs);
        });
    }

    /// Streams a compressed block straight through the scorer — the
    /// zero-copy rank path: postings decode straight from the block into
    /// the score table, no intermediate list. Accumulation order and f64
    /// results are exactly those of `accumulate(df, block.iter())`.
    pub fn accumulate_block(&mut self, df: u32, block: &CompressedPostings) {
        self.accumulate(df, block);
    }

    /// Number of distinct documents scored so far.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when no posting has been accumulated yet.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Finishes the ranking: the `k` highest-scoring documents, descending
    /// score, ties broken by ascending doc id.
    pub fn into_top_k(self, k: usize) -> Vec<SearchResult> {
        top_k(
            self.scores
                .into_iter()
                .map(|(doc, score)| SearchResult { doc, score }),
            k,
        )
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
        assert_eq!(acc.len(), 2);
        let out = acc.into_top_k(10);
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
