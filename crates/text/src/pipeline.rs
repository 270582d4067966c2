//! The document-analysis pipeline: tokenize, stop, stem, intern.
//!
//! [`Analyzer`] reproduces the pre-processing of the paper's prototype:
//! tokenization, removal of the 250 common English stop words, Porter
//! stemming, then interning into [`TermId`]s. Removal of *very frequent
//! terms* (the `Ff` threshold of Section 4) is collection-dependent and is
//! performed later, by the indexers in `hdk-core`, since it needs global
//! collection frequencies.

use crate::porter::stem;
use crate::stopwords::is_stopword;
use crate::tokenizer::tokenize;
use crate::vocab::{TermId, Vocabulary};

/// Configuration for [`Analyzer`].
#[derive(Debug, Clone)]
pub struct AnalyzerConfig {
    /// Remove the 250 common English stop words (paper default: yes).
    pub remove_stopwords: bool,
    /// Apply the Porter stemmer (paper default: yes).
    pub stem: bool,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        Self {
            remove_stopwords: true,
            stem: true,
        }
    }
}

/// A document after analysis: the token sequence in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzedDocument {
    /// Interned tokens in their original order (needed for windowing).
    pub tokens: Vec<TermId>,
}

impl AnalyzedDocument {
    /// Document length in (post-filter) term occurrences.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True if analysis removed every token.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// Stateful analyzer owning the shared [`Vocabulary`].
#[derive(Debug, Default)]
pub struct Analyzer {
    config: AnalyzerConfig,
    vocab: Vocabulary,
}

impl Analyzer {
    /// Analyzer with the paper's defaults (stopping + stemming).
    pub fn new() -> Self {
        Self::with_config(AnalyzerConfig::default())
    }

    /// Analyzer with explicit configuration.
    pub fn with_config(config: AnalyzerConfig) -> Self {
        Self {
            config,
            vocab: Vocabulary::new(),
        }
    }

    /// Analyzes raw text into an interned token sequence.
    pub fn analyze(&mut self, text: &str) -> AnalyzedDocument {
        let mut tokens = Vec::new();
        for tok in tokenize(text) {
            if self.config.remove_stopwords && is_stopword(&tok) {
                continue;
            }
            let term = if self.config.stem { stem(&tok) } else { tok };
            tokens.push(self.vocab.intern(&term));
        }
        AnalyzedDocument { tokens }
    }

    /// Interns a sequence of pre-tokenized terms (used by the synthetic
    /// corpus generator, which emits terms directly).
    pub fn intern_terms<'a, I: IntoIterator<Item = &'a str>>(
        &mut self,
        terms: I,
    ) -> AnalyzedDocument {
        let tokens = terms.into_iter().map(|t| self.vocab.intern(t)).collect();
        AnalyzedDocument { tokens }
    }

    /// Analyzes a free-text query with the same pipeline, returning the
    /// *distinct* query terms that exist in the collection vocabulary.
    /// Unknown terms are dropped (they cannot match any document).
    pub fn analyze_query(&self, text: &str) -> Vec<TermId> {
        let mut out = Vec::new();
        for tok in tokenize(text) {
            if self.config.remove_stopwords && is_stopword(&tok) {
                continue;
            }
            let term = if self.config.stem { stem(&tok) } else { tok };
            if let Some(id) = self.vocab.get(&term) {
                if !out.contains(&id) {
                    out.push(id);
                }
            }
        }
        out
    }

    /// Shared vocabulary (read access).
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline() {
        let mut a = Analyzer::new();
        let doc = a.analyze("The networks are networking!");
        // "the", "are" are stopwords; networks/networking stem to network.
        assert_eq!(doc.tokens.len(), 2);
        assert_eq!(doc.tokens[0], doc.tokens[1]);
        assert_eq!(a.vocab().term(doc.tokens[0]), "network");
    }

    #[test]
    fn no_stemming_mode() {
        let mut a = Analyzer::with_config(AnalyzerConfig {
            remove_stopwords: true,
            stem: false,
        });
        let doc = a.analyze("running runs");
        assert_eq!(doc.tokens.len(), 2);
        assert_ne!(doc.tokens[0], doc.tokens[1]);
    }

    #[test]
    fn no_stopping_mode() {
        let mut a = Analyzer::with_config(AnalyzerConfig {
            remove_stopwords: false,
            stem: false,
        });
        let doc = a.analyze("the cat");
        assert_eq!(doc.tokens.len(), 2);
    }

    #[test]
    fn query_analysis_drops_unknown_and_dedups() {
        let mut a = Analyzer::new();
        a.analyze("peer network retrieval");
        let q = a.analyze_query("peer peer unknownzzz network");
        assert_eq!(q.len(), 2);
        assert_eq!(a.vocab().term(q[0]), "peer");
        assert_eq!(a.vocab().term(q[1]), "network");
    }

    #[test]
    fn intern_terms_bypasses_text_stages() {
        let mut a = Analyzer::new();
        let doc = a.intern_terms(["the", "running"]);
        // No stopping/stemming on pre-tokenized input.
        assert_eq!(doc.tokens.len(), 2);
        assert_eq!(a.vocab().term(doc.tokens[0]), "the");
        assert_eq!(a.vocab().term(doc.tokens[1]), "running");
    }

    #[test]
    fn empty_text_empty_doc() {
        let mut a = Analyzer::new();
        assert!(a.analyze("").is_empty());
        assert!(a.analyze("the and of").is_empty());
    }
}
