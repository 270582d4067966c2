//! Term frequency statistics of a collection.
//!
//! Provides the quantities the paper's Section 4 analysis is built on:
//! collection frequencies `f_D(t)`, document frequencies `df_D(t)`, the
//! rank-frequency sequence (for Zipf fitting in `hdk-model`), the
//! very-frequent-term set (`f_D(t) > Ff`, removed from the key vocabulary),
//! and the hapax-legomena boundary `T'` used in the proofs of Theorems 1–2.

use crate::collection::Collection;
use hdk_text::TermId;

/// Frequency statistics computed in one pass over a collection.
#[derive(Debug, Clone)]
pub struct FrequencyStats {
    cf: Vec<u64>,
    df: Vec<u32>,
    sample_size: u64,
    num_docs: u32,
}

impl FrequencyStats {
    /// Computes statistics for `collection`.
    pub fn compute(collection: &Collection) -> Self {
        let n_terms = collection.vocab().len();
        let mut cf = vec![0u64; n_terms];
        let mut df = vec![0u32; n_terms];
        let mut last_doc = vec![u32::MAX; n_terms];
        let mut sample_size = 0u64;
        for (doc, tokens) in collection.iter() {
            for &t in tokens {
                cf[t.index()] += 1;
                sample_size += 1;
                if last_doc[t.index()] != doc.0 {
                    last_doc[t.index()] = doc.0;
                    df[t.index()] += 1;
                }
            }
        }
        Self {
            cf,
            df,
            sample_size,
            num_docs: collection.len() as u32,
        }
    }

    /// Collection frequency `f_D(t)` — number of occurrences of `t` in `D`.
    pub fn cf(&self, t: TermId) -> u64 {
        self.cf[t.index()]
    }

    /// Document frequency `df_D(t)` — number of documents containing `t`.
    pub fn df(&self, t: TermId) -> u32 {
        self.df[t.index()]
    }

    /// `D` — the sample size (total term occurrences).
    pub fn sample_size(&self) -> u64 {
        self.sample_size
    }

    /// `M` — number of documents.
    pub fn num_docs(&self) -> u32 {
        self.num_docs
    }

    /// Rank-frequency pairs `(rank, frequency)` with rank 1 = most frequent,
    /// only terms with `cf > 0`, frequency descending. Input to the Zipf fit.
    pub fn rank_frequency(&self) -> Vec<(usize, u64)> {
        let mut freqs: Vec<u64> = self.cf.iter().copied().filter(|&f| f > 0).collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        freqs
            .into_iter()
            .enumerate()
            .map(|(i, f)| (i + 1, f))
            .collect()
    }

    /// Terms with `cf > ff` — the *very frequent* terms of Definition 9,
    /// removed from the key vocabulary like stop words (Section 4.1).
    pub fn very_frequent_terms(&self, ff: u64) -> Vec<TermId> {
        self.cf
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f > ff)
            .map(|(i, _)| TermId(i as u32))
            .collect()
    }

    /// The rank `T'` of the first hapax legomenon (frequency 1), i.e. the
    /// number of terms with frequency >= 2 plus one. The proofs of
    /// Theorems 1–2 integrate the Zipf curve only up to `T'`.
    pub fn hapax_rank(&self) -> usize {
        let above: usize = self.cf.iter().filter(|&&f| f >= 2).count();
        above + 1
    }

    /// Iterates `(TermId, cf, df)` for all observed terms.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, u64, u32)> + '_ {
        self.cf
            .iter()
            .zip(self.df.iter())
            .enumerate()
            .filter(|(_, (&c, _))| c > 0)
            .map(|(i, (&c, &d))| (TermId(i as u32), c, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{DocId, Document};
    use hdk_text::Vocabulary;

    fn coll() -> Collection {
        let mut v = Vocabulary::new();
        let a = v.intern("aa");
        let b = v.intern("bb");
        let c = v.intern("cc");
        let docs = vec![
            Document {
                id: DocId(0),
                tokens: vec![a, a, b],
            },
            Document {
                id: DocId(1),
                tokens: vec![a, c],
            },
            Document {
                id: DocId(2),
                tokens: vec![b, b, b],
            },
        ];
        Collection::new(docs, v)
    }

    #[test]
    fn cf_and_df() {
        let s = FrequencyStats::compute(&coll());
        assert_eq!(s.cf(TermId(0)), 3); // a
        assert_eq!(s.df(TermId(0)), 2);
        assert_eq!(s.cf(TermId(1)), 4); // b
        assert_eq!(s.df(TermId(1)), 2);
        assert_eq!(s.cf(TermId(2)), 1); // c
        assert_eq!(s.df(TermId(2)), 1);
        assert_eq!(s.sample_size(), 8);
        assert_eq!(s.num_docs(), 3);
    }

    #[test]
    fn df_never_exceeds_cf_or_m() {
        let s = FrequencyStats::compute(&coll());
        for (t, cf, df) in s.iter() {
            assert!(u64::from(df) <= cf, "{t}");
            assert!(df <= s.num_docs());
        }
    }

    #[test]
    fn rank_frequency_descending_from_one() {
        let s = FrequencyStats::compute(&coll());
        let rf = s.rank_frequency();
        assert_eq!(rf, vec![(1, 4), (2, 3), (3, 1)]);
    }

    #[test]
    fn very_frequent_threshold() {
        let s = FrequencyStats::compute(&coll());
        assert_eq!(s.very_frequent_terms(3), vec![TermId(1)]);
        assert!(s.very_frequent_terms(10).is_empty());
    }

    #[test]
    fn hapax_rank_counts_non_hapax_plus_one() {
        let s = FrequencyStats::compute(&coll());
        // a (3) and b (4) are non-hapax, c is hapax -> T' = 3.
        assert_eq!(s.hapax_rank(), 3);
    }
}
