//! Okapi BM25 term weighting.
//!
//! Figure 7's baseline is "the best state-of-the-art BM25 relevance
//! computation scheme". We implement the standard Okapi formulation with
//! the `+1` idf smoothing (Lucene-style) so weights stay positive even for
//! terms appearing in more than half the documents:
//!
//! ```text
//! idf(t)    = ln(1 + (N - df + 0.5) / (df + 0.5))
//! score(t,d) = idf(t) · tf · (k1 + 1) / (tf + k1 · (1 - b + b · dl / avgdl))
//! ```

/// BM25 parameters. The classic defaults `k1 = 1.2`, `b = 0.75` match what
/// Terrier used at the time of the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25 {
    /// Term-frequency saturation.
    pub k1: f64,
    /// Length-normalization strength.
    pub b: f64,
}

impl Default for Bm25 {
    fn default() -> Self {
        Self { k1: 1.2, b: 0.75 }
    }
}

impl Bm25 {
    /// Inverse document frequency of a term with document frequency `df` in
    /// a collection of `n` documents.
    pub fn idf(&self, df: usize, n: usize) -> f64 {
        let df = df as f64;
        let n = n as f64;
        (1.0 + (n - df + 0.5) / (df + 0.5)).ln()
    }

    /// Contribution of one term occurrence pattern to a document score.
    pub fn score(&self, tf: u32, doc_len: u32, avg_doc_len: f64, df: usize, n: usize) -> f64 {
        if tf == 0 {
            return 0.0;
        }
        self.score_with_idf(self.idf(df, n), tf, doc_len, avg_doc_len)
    }

    /// [`Bm25::score`] with the term's `idf` computed once by the caller —
    /// every posting of a block shares its key's `df`. The same operations
    /// in the same order, so the same bits.
    #[inline]
    pub fn score_with_idf(&self, idf: f64, tf: u32, doc_len: u32, avg_doc_len: f64) -> f64 {
        if tf == 0 {
            return 0.0;
        }
        let tf = f64::from(tf);
        let norm = if avg_doc_len > 0.0 {
            1.0 - self.b + self.b * f64::from(doc_len) / avg_doc_len
        } else {
            1.0
        };
        idf * tf * (self.k1 + 1.0) / (tf + self.k1 * norm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idf_decreases_with_df() {
        let bm = Bm25::default();
        let n = 1000;
        assert!(bm.idf(1, n) > bm.idf(10, n));
        assert!(bm.idf(10, n) > bm.idf(500, n));
    }

    #[test]
    fn idf_positive_even_for_ubiquitous_terms() {
        let bm = Bm25::default();
        assert!(bm.idf(999, 1000) > 0.0);
        assert!(bm.idf(1000, 1000) > 0.0);
    }

    #[test]
    fn score_saturates_in_tf() {
        let bm = Bm25::default();
        let s1 = bm.score(1, 100, 100.0, 10, 1000);
        let s2 = bm.score(2, 100, 100.0, 10, 1000);
        let s20 = bm.score(20, 100, 100.0, 10, 1000);
        let s40 = bm.score(40, 100, 100.0, 10, 1000);
        assert!(s2 > s1);
        // Marginal gain shrinks (saturation).
        assert!(s40 - s20 < s2 - s1);
    }

    #[test]
    fn longer_docs_penalized() {
        let bm = Bm25::default();
        let short = bm.score(3, 50, 100.0, 10, 1000);
        let long = bm.score(3, 400, 100.0, 10, 1000);
        assert!(short > long);
    }

    #[test]
    fn reference_value() {
        // Hand-computed: N=100, df=10, tf=2, dl=avgdl=100, k1=1.2, b=0.75.
        // idf = ln(1 + 90.5/10.5) = ln(9.6190476) = 2.2637...
        // tf-part = 2*2.2/(2+1.2) = 1.375
        let bm = Bm25::default();
        let s = bm.score(2, 100, 100.0, 10, 100);
        let expected = (1.0f64 + 90.5 / 10.5).ln() * 1.375;
        assert!((s - expected).abs() < 1e-9, "{s} vs {expected}");
    }

    #[test]
    fn zero_tf_scores_zero() {
        assert_eq!(Bm25::default().score(0, 100, 100.0, 5, 10), 0.0);
    }

    #[test]
    fn b_zero_disables_length_normalization() {
        let bm = Bm25 { k1: 1.2, b: 0.0 };
        let a = bm.score(3, 10, 100.0, 10, 1000);
        let b = bm.score(3, 1000, 100.0, 10, 1000);
        assert!((a - b).abs() < 1e-12);
    }
}
