//! The centralized single-term search engine — the Figure 7 baseline.
//!
//! Disjunctive (OR) retrieval with BM25 ranking over a single-term inverted
//! index, standing in for the Terrier reference engine the paper compares
//! against. Also provides the hit counting used to filter the query log
//! ("queries that have produced more than 20 hits").

use crate::bm25::Bm25;
use crate::index::InvertedIndex;
use crate::ranker::{ScoreAccumulator, SearchResult};
use hdk_corpus::{Collection, DocId};
use hdk_text::TermId;

/// A centralized engine owning its index.
#[derive(Debug)]
pub struct CentralizedEngine {
    index: InvertedIndex,
    bm25: Bm25,
}

impl CentralizedEngine {
    /// Builds the engine over a collection with default BM25 parameters.
    pub fn build(collection: &Collection) -> Self {
        Self::with_bm25(collection, Bm25::default())
    }

    /// Builds with explicit BM25 parameters.
    pub fn with_bm25(collection: &Collection, bm25: Bm25) -> Self {
        Self {
            index: InvertedIndex::build(collection),
            bm25,
        }
    }

    /// Wraps an existing index.
    pub fn from_index(index: InvertedIndex, bm25: Bm25) -> Self {
        Self { index, bm25 }
    }

    /// The underlying index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Disjunctive BM25 search: every document containing at least one
    /// query term is scored by the sum of its per-term BM25 contributions;
    /// the top `k` are returned (descending score, ties by doc id).
    pub fn search(&self, query: &[TermId], k: usize) -> Vec<SearchResult> {
        let mut acc =
            ScoreAccumulator::with_bm25(self.bm25, self.index.num_docs(), self.index.avg_doc_len());
        for &t in query {
            if let Some(list) = self.index.postings(t) {
                let df = u32::try_from(list.len()).expect("document ids are u32");
                acc.accumulate(df, list.postings().iter().copied());
            }
        }
        acc.into_top_k(k)
    }

    /// Number of documents containing at least one query term — the paper's
    /// "hits" notion used to filter the query log.
    pub fn count_hits(&self, query: &[TermId]) -> usize {
        let mut docs: Vec<DocId> = Vec::new();
        for &t in query {
            if let Some(list) = self.index.postings(t) {
                docs.extend(list.docs());
            }
        }
        docs.sort_unstable();
        docs.dedup();
        docs.len()
    }

    /// Total postings that a *distributed* single-term engine would ship
    /// for this query: the sum of full posting-list lengths of all query
    /// terms (the quantity plotted as "ST" in Figure 6).
    pub fn query_posting_volume(&self, query: &[TermId]) -> usize {
        query.iter().map(|&t| self.index.df(t)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdk_corpus::{CollectionGenerator, Document, GeneratorConfig};
    use hdk_text::Vocabulary;

    fn tiny() -> CentralizedEngine {
        let mut v = Vocabulary::new();
        let cat = v.intern("cat");
        let dog = v.intern("dog");
        let fish = v.intern("fish");
        let docs = vec![
            Document {
                id: DocId(0),
                tokens: vec![cat, cat, dog],
            },
            Document {
                id: DocId(1),
                tokens: vec![dog],
            },
            Document {
                id: DocId(2),
                tokens: vec![fish, cat],
            },
            Document {
                id: DocId(3),
                tokens: vec![fish, fish, fish],
            },
        ];
        let c = Collection::new(docs, v);
        CentralizedEngine::build(&c)
    }

    #[test]
    fn single_term_query_ranks_by_tf_and_length() {
        let e = tiny();
        // "cat" occurs 2x in doc0 (len 3) and 1x in doc2 (len 2).
        let res = e.search(&[TermId(0)], 10);
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].doc, DocId(0));
    }

    #[test]
    fn multi_term_is_disjunctive() {
        let e = tiny();
        let res = e.search(&[TermId(0), TermId(2)], 10);
        // cat or fish: docs 0, 2, 3.
        let docs: Vec<u32> = res.iter().map(|r| r.doc.0).collect();
        assert_eq!(docs.len(), 3);
        assert!(docs.contains(&0) && docs.contains(&2) && docs.contains(&3));
        // Doc 2 matches both terms, so it outranks single-match docs.
        assert_eq!(res[0].doc, DocId(2));
    }

    #[test]
    fn unknown_terms_are_ignored() {
        let e = tiny();
        assert!(e.search(&[TermId(999)], 5).is_empty());
        let res = e.search(&[TermId(0), TermId(999)], 5);
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn hits_count_union() {
        let e = tiny();
        assert_eq!(e.count_hits(&[TermId(0)]), 2);
        assert_eq!(e.count_hits(&[TermId(0), TermId(2)]), 3);
        assert_eq!(e.count_hits(&[]), 0);
    }

    #[test]
    fn query_posting_volume_sums_dfs() {
        let e = tiny();
        assert_eq!(e.query_posting_volume(&[TermId(0), TermId(1)]), 4);
    }

    #[test]
    fn search_is_deterministic_on_generated_collection() {
        let c = CollectionGenerator::new(GeneratorConfig {
            num_docs: 200,
            vocab_size: 2_000,
            avg_doc_len: 50,
            num_topics: 20,
            topic_vocab: 50,
            ..GeneratorConfig::default()
        })
        .generate();
        let e = CentralizedEngine::build(&c);
        let q = [TermId(40), TermId(120), TermId(301)];
        assert_eq!(e.search(&q, 20), e.search(&q, 20));
    }
}
