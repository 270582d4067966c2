//! Deterministic synthetic Wikipedia-like collection generator.
//!
//! Substitutes the paper's Wikipedia subset (`PAPER.md`; README, Layout).
//! Two ingredients make the output behave like encyclopedia text for the
//! quantities the paper measures:
//!
//! 1. **Global Zipf unigram model** — the background term distribution
//!    follows `z(r) = C·r^{-a}`, so the rank-frequency fit, the `P_f`/`P_vf`
//!    probabilities of Theorems 1–2, and posting-list length distributions
//!    match the analysis in the paper's Section 4.
//! 2. **Per-document topic vocabularies** — every document mixes a handful
//!    of *topics* (random mid-tail term subsets). Topical terms are bursty
//!    inside their documents, which is what produces meaningful co-occurrence
//!    of rarer terms inside text windows — the raw material of multi-term
//!    HDKs. A pure unigram model would almost never repeat a mid-tail pair
//!    inside a window and HDK generation would degenerate.
//!
//! Generation is fully deterministic given [`GeneratorConfig::seed`].

use crate::collection::Collection;
use crate::document::{DocId, Document};
use crate::zipf::Zipf;
use hdk_text::{TermId, Vocabulary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the synthetic collection.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// `M` — number of documents to generate.
    pub num_docs: usize,
    /// `|T|` — size of the global term vocabulary.
    pub vocab_size: usize,
    /// Zipf skew `a` of the background unigram distribution. The paper fits
    /// `a1 = 1.5` on its collection.
    pub skew: f64,
    /// Mean document length in words (paper, Table 1: 225).
    pub avg_doc_len: usize,
    /// Log-normal spread of document lengths (sigma of `ln` length).
    pub doc_len_sigma: f64,
    /// Number of topics in the collection.
    pub num_topics: usize,
    /// Terms per topic vocabulary.
    pub topic_vocab: usize,
    /// Number of topics mixed into each document.
    pub topics_per_doc: usize,
    /// Probability that a token is drawn from one of the document's topics
    /// rather than the background distribution.
    pub topic_mix: f64,
    /// Master seed; everything derives from it.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    /// A laptop-scale default: ~2k documents of ~90 words. The experiment
    /// harness scales `num_docs` up and the other parameters with it.
    fn default() -> Self {
        Self {
            num_docs: 2_000,
            vocab_size: 20_000,
            skew: 1.1,
            avg_doc_len: 90,
            doc_len_sigma: 0.35,
            num_topics: 150,
            topic_vocab: 120,
            topics_per_doc: 3,
            topic_mix: 0.45,
            seed: 0xA1B2C3D4,
        }
    }
}

/// The generator. Construct once, call [`CollectionGenerator::generate`].
#[derive(Debug)]
pub struct CollectionGenerator {
    config: GeneratorConfig,
}

impl CollectionGenerator {
    /// Creates a generator for `config`.
    ///
    /// # Panics
    /// Panics on degenerate configurations (empty vocabulary, zero-length
    /// documents, topic vocabulary larger than the global vocabulary).
    pub fn new(config: GeneratorConfig) -> Self {
        assert!(config.vocab_size >= 100, "vocabulary too small");
        assert!(config.avg_doc_len >= 4, "documents too short");
        assert!(
            config.topic_vocab < config.vocab_size,
            "topic vocabulary must be smaller than the global vocabulary"
        );
        assert!(
            (0.0..=1.0).contains(&config.topic_mix),
            "topic_mix must be a probability"
        );
        Self { config }
    }

    /// Generates the collection.
    pub fn generate(&self) -> Collection {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Vocabulary: rank r (0-based) gets a deterministic pseudo-word.
        let mut vocab = Vocabulary::with_capacity(cfg.vocab_size);
        for r in 0..cfg.vocab_size {
            vocab.intern(&rank_to_word(r));
        }

        let global = Zipf::new(cfg.vocab_size, cfg.skew);

        // Topics: each topic draws its vocabulary from the mid-tail of the
        // global ranking (head terms are function-word-like; the tail is
        // too rare to recur), and samples within the topic by a local Zipf
        // so every topic has its own burst structure.
        let mid_start = cfg.vocab_size / 50; // skip the global head
        let topics: Vec<Vec<u32>> = (0..cfg.num_topics)
            .map(|_| {
                let mut terms = Vec::with_capacity(cfg.topic_vocab);
                for _ in 0..cfg.topic_vocab {
                    let r = rng.gen_range(mid_start..cfg.vocab_size);
                    terms.push(r as u32);
                }
                terms
            })
            .collect();
        let topic_zipf = Zipf::new(cfg.topic_vocab, 1.0);

        let mut docs = Vec::with_capacity(cfg.num_docs);
        for i in 0..cfg.num_docs {
            let len = self.sample_doc_len(&mut rng);
            let doc_topics: Vec<&Vec<u32>> = (0..cfg.topics_per_doc)
                .map(|_| &topics[rng.gen_range(0..topics.len())])
                .collect();
            let mut tokens = Vec::with_capacity(len);
            for _ in 0..len {
                let rank = if rng.gen::<f64>() < cfg.topic_mix {
                    let topic = doc_topics[rng.gen_range(0..doc_topics.len())];
                    topic[topic_zipf.sample(&mut rng)] as usize
                } else {
                    global.sample(&mut rng)
                };
                tokens.push(TermId(rank as u32));
            }
            docs.push(Document {
                id: DocId(i as u32),
                tokens,
            });
        }
        Collection::new(docs, vocab)
    }

    /// Log-normal document length with mean `avg_doc_len`, clamped to
    /// `[4, 20 * avg]`.
    fn sample_doc_len(&self, rng: &mut StdRng) -> usize {
        let cfg = &self.config;
        let sigma = cfg.doc_len_sigma;
        let mu = (cfg.avg_doc_len as f64).ln() - sigma * sigma / 2.0;
        let n = standard_normal(rng);
        let len = (mu + sigma * n).exp().round() as usize;
        len.clamp(4, cfg.avg_doc_len * 20)
    }
}

/// Standard normal via Box–Muller (keeps `rand` the only randomness
/// dependency; `rand_distr` is not in the allowed crate set).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 > f64::EPSILON {
            let u2: f64 = rng.gen();
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// Syllable alphabet for pseudo-words: 20 onsets x 5 vowels = 100 syllables.
const ONSETS: [char; 20] = [
    'b', 'c', 'd', 'f', 'g', 'h', 'j', 'k', 'l', 'm', 'n', 'p', 'q', 'r', 's', 't', 'v', 'w', 'x',
    'z',
];
const VOWELS: [char; 5] = ['a', 'e', 'i', 'o', 'u'];

/// Deterministic, injective mapping from a vocabulary rank to a
/// pronounceable pseudo-word (base-100 syllable encoding, at least two
/// syllables so every word passes the tokenizer's length filter).
pub fn rank_to_word(rank: usize) -> String {
    let mut digits = Vec::new();
    let mut r = rank;
    loop {
        digits.push(r % 100);
        r /= 100;
        if r == 0 {
            break;
        }
    }
    while digits.len() < 2 {
        digits.push(0);
    }
    let mut word = String::with_capacity(digits.len() * 2);
    for &d in digits.iter().rev() {
        word.push(ONSETS[d / 5]);
        word.push(VOWELS[d % 5]);
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small_config() -> GeneratorConfig {
        GeneratorConfig {
            num_docs: 200,
            vocab_size: 2_000,
            avg_doc_len: 60,
            num_topics: 20,
            topic_vocab: 50,
            ..GeneratorConfig::default()
        }
    }

    #[test]
    fn rank_to_word_is_injective_and_valid() {
        let mut seen = HashSet::new();
        for r in 0..30_000 {
            let w = rank_to_word(r);
            assert!(w.len() >= 4, "word {w} too short");
            assert!(seen.insert(w), "collision at rank {r}");
        }
    }

    #[test]
    fn generates_requested_shape() {
        let c = CollectionGenerator::new(small_config()).generate();
        let s = c.stats();
        assert_eq!(s.num_documents, 200);
        assert_eq!(s.vocab_size, 2_000);
        assert!(
            (s.avg_doc_len - 60.0).abs() < 12.0,
            "avg len {} too far from 60",
            s.avg_doc_len
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = CollectionGenerator::new(small_config()).generate();
        let b = CollectionGenerator::new(small_config()).generate();
        assert_eq!(a.docs(), b.docs());
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = small_config();
        cfg.seed = 1;
        let a = CollectionGenerator::new(cfg.clone()).generate();
        cfg.seed = 2;
        let b = CollectionGenerator::new(cfg).generate();
        assert_ne!(a.docs(), b.docs());
    }

    #[test]
    fn head_rank_dominates_frequencies() {
        let c = CollectionGenerator::new(small_config()).generate();
        let mut counts = vec![0u64; c.vocab().len()];
        for (_, toks) in c.iter() {
            for t in toks {
                counts[t.index()] += 1;
            }
        }
        // Rank 0 is the global head; it must be (near) the most frequent.
        let max = *counts.iter().max().unwrap();
        assert!(counts[0] as f64 >= 0.5 * max as f64);
        // And the tail must contain plenty of rare terms.
        let rare = counts.iter().filter(|&&c| c <= 2).count();
        assert!(rare > c.vocab().len() / 4, "only {rare} rare terms");
    }

    #[test]
    fn topics_create_cooccurrence_bursts() {
        // A topical mid-tail term should co-occur with some other mid-tail
        // term in multiple documents — the signal HDK generation relies on.
        let c = CollectionGenerator::new(small_config()).generate();
        let mut per_doc: Vec<HashSet<u32>> = Vec::new();
        for (_, toks) in c.iter() {
            per_doc.push(toks.iter().map(|t| t.0).collect());
        }
        let mid = (c.vocab().len() / 50) as u32;
        let mut pair_docs = std::collections::HashMap::new();
        for set in &per_doc {
            let mids: Vec<u32> = set.iter().copied().filter(|&t| t >= mid).collect();
            for (i, &a) in mids.iter().enumerate() {
                for &b in &mids[i + 1..] {
                    let k = if a < b { (a, b) } else { (b, a) };
                    *pair_docs.entry(k).or_insert(0u32) += 1;
                }
            }
        }
        let recurring = pair_docs.values().filter(|&&n| n >= 3).count();
        assert!(recurring > 50, "only {recurring} recurring mid-tail pairs");
    }

    #[test]
    #[should_panic(expected = "vocabulary too small")]
    fn rejects_tiny_vocab() {
        let mut cfg = small_config();
        cfg.vocab_size = 10;
        let _ = CollectionGenerator::new(cfg);
    }
}
