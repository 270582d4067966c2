//! The document collection `D` and its statistics (paper, Table 1).

use crate::document::{DocId, Document};
use hdk_text::{TermId, Vocabulary};

/// A document collection together with its term dictionary.
#[derive(Debug, Clone)]
pub struct Collection {
    docs: Vec<Document>,
    vocab: Vocabulary,
}

/// The statistics the paper reports in Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectionStats {
    /// `M` — total number of documents.
    pub num_documents: usize,
    /// `D` — sample size: total number of term occurrences.
    pub sample_size: usize,
    /// `|T|` — size of the single-term vocabulary.
    pub vocab_size: usize,
    /// Average document size in words.
    pub avg_doc_len: f64,
}

impl Collection {
    /// Builds a collection. Document ids must be dense `0..docs.len()` in
    /// order — the constructor re-checks this invariant because downstream
    /// structures index by `DocId`.
    ///
    /// # Panics
    /// Panics if ids are not dense and ordered.
    pub fn new(docs: Vec<Document>, vocab: Vocabulary) -> Self {
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(d.id, DocId(i as u32), "document ids must be dense");
        }
        Self { docs, vocab }
    }

    /// All documents, id order.
    pub fn docs(&self) -> &[Document] {
        &self.docs
    }

    /// Look up a document by id.
    pub fn doc(&self, id: DocId) -> &Document {
        &self.docs[id.index()]
    }

    /// `M` — number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the collection has no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The shared term dictionary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Computes the Table-1 statistics.
    pub fn stats(&self) -> CollectionStats {
        let sample_size: usize = self.docs.iter().map(Document::len).sum();
        CollectionStats {
            num_documents: self.docs.len(),
            sample_size,
            vocab_size: self.vocab.len(),
            avg_doc_len: if self.docs.is_empty() {
                0.0
            } else {
                sample_size as f64 / self.docs.len() as f64
            },
        }
    }

    /// A sub-collection containing the first `n` documents (used by the
    /// network-growth experiments: every run re-uses the prefix of the same
    /// generated collection, so results are comparable across runs).
    pub fn prefix(&self, n: usize) -> Collection {
        assert!(n <= self.docs.len(), "prefix {n} exceeds collection size");
        Collection {
            docs: self.docs[..n].to_vec(),
            vocab: self.vocab.clone(),
        }
    }

    /// Iterates `(DocId, &[TermId])` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &[TermId])> {
        self.docs.iter().map(|d| (d.id, d.tokens.as_slice()))
    }

    /// Samples a long query from document `doc_index` (modulo the
    /// collection size): the first `want` *distinct* terms in token order.
    /// Because the terms are a document prefix they genuinely co-occur, so
    /// querying them walks deep, wide key lattices — the shape the
    /// intra-query parallelism tests need. Returns fewer terms when the
    /// document has fewer distinct ones.
    pub fn long_query(&self, doc_index: usize, want: usize) -> Vec<TermId> {
        let doc = &self.docs[doc_index % self.docs.len()];
        let mut terms: Vec<TermId> = Vec::with_capacity(want);
        for &t in &doc.tokens {
            if !terms.contains(&t) {
                terms.push(t);
            }
            if terms.len() == want {
                break;
            }
        }
        terms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Collection {
        let mut vocab = Vocabulary::new();
        let a = vocab.intern("alpha");
        let b = vocab.intern("beta");
        let docs = vec![
            Document {
                id: DocId(0),
                tokens: vec![a, b, a],
            },
            Document {
                id: DocId(1),
                tokens: vec![b],
            },
        ];
        Collection::new(docs, vocab)
    }

    #[test]
    fn stats_table1_quantities() {
        let c = tiny();
        let s = c.stats();
        assert_eq!(s.num_documents, 2);
        assert_eq!(s.sample_size, 4);
        assert_eq!(s.vocab_size, 2);
        assert!((s.avg_doc_len - 2.0).abs() < 1e-12);
    }

    #[test]
    fn prefix_shares_vocab() {
        let c = tiny();
        let p = c.prefix(1);
        assert_eq!(p.len(), 1);
        assert_eq!(p.vocab().len(), 2);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_ids_rejected() {
        let mut vocab = Vocabulary::new();
        let a = vocab.intern("x");
        let docs = vec![Document {
            id: DocId(5),
            tokens: vec![a],
        }];
        let _ = Collection::new(docs, vocab);
    }

    #[test]
    fn empty_collection_stats() {
        let c = Collection::new(vec![], Vocabulary::new());
        let s = c.stats();
        assert_eq!(s.num_documents, 0);
        assert_eq!(s.avg_doc_len, 0.0);
    }
}
