//! Experiment configuration: the paper's Table 2 scaled to laptop size,
//! with CLI overrides.
//!
//! The paper's setup (Table 2): N = 4..28 peers joining 4 at a time, 5,000
//! documents per peer (~225 words each), `DFmax ∈ {400, 500}`,
//! `Ff = 100,000`, `w = 20`, `smax = 3`. The default profile shrinks the
//! per-peer load while keeping every *ratio* the paper relies on (DFmax
//! relative to collection size, Ff relative to sample size) — see
//! `HdkConfig::scaled_for` — so the measured curves keep their shape.
//! `--scale` (or explicit flags) restores any size up to the paper's.

use hdk_core::HdkConfig;
use hdk_corpus::{GeneratorConfig, QueryLogConfig};

/// Full description of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentProfile {
    /// Network sizes for the growth sweep (paper: 4, 8, ..., 28).
    pub peers_sweep: Vec<usize>,
    /// Documents contributed by each peer (paper: 5,000).
    pub docs_per_peer: usize,
    /// Mean document length in words (paper: ~225).
    pub avg_doc_len: usize,
    /// Global vocabulary size of the synthetic collection.
    pub vocab_size: usize,
    /// `DFmax` values to compare (paper: 400 and 500).
    pub dfmax_values: Vec<u32>,
    /// Very-frequent-term threshold `Ff` (paper: 100,000).
    pub ff: u64,
    /// Proximity window `w` (paper: 20).
    pub window: usize,
    /// Maximal key size `smax` (paper: 3).
    pub smax: usize,
    /// Queries evaluated per sweep point (paper: 3,000 for its final
    /// collection; scaled here).
    pub num_queries: usize,
    /// Minimum (disjunctive) hits for a query to enter the log
    /// (paper: >20 on 140k documents; scaled).
    pub min_hits: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExperimentProfile {
    fn default() -> Self {
        Self {
            peers_sweep: vec![4, 8, 12, 16, 20, 24, 28],
            docs_per_peer: 400,
            avg_doc_len: 80,
            vocab_size: 20_000,
            dfmax_values: vec![30, 40],
            ff: 3_000,
            window: 20,
            smax: 3,
            num_queries: 200,
            min_hits: 10,
            seed: 0xD15C0,
        }
    }
}

impl ExperimentProfile {
    /// Parses command-line overrides. Unknown flags abort with usage.
    ///
    /// Supported: `--scale F` (multiplies docs-per-peer), `--peers a,b,c`,
    /// `--docs-per-peer N`, `--dfmax a,b`, `--queries N`, `--seed N`,
    /// `--window N`, `--smax N`, `--ff N`, `--doc-len N`, `--vocab N`,
    /// `--min-hits N`.
    pub fn from_args() -> Self {
        let mut profile = Self::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            if flag == "--help" || flag == "-h" {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            let Some(value) = args.get(i + 1) else {
                eprintln!("missing value for {flag}\n{USAGE}");
                std::process::exit(2);
            };
            match flag {
                "--scale" => {
                    let f: f64 = value.parse().expect("--scale takes a number");
                    profile.docs_per_peer =
                        ((profile.docs_per_peer as f64 * f).round() as usize).max(10);
                }
                "--peers" => profile.peers_sweep = parse_list(value),
                "--docs-per-peer" => profile.docs_per_peer = value.parse().expect("number"),
                "--dfmax" => {
                    profile.dfmax_values = parse_list(value).into_iter().map(|v| v as u32).collect()
                }
                "--queries" => profile.num_queries = value.parse().expect("number"),
                "--seed" => profile.seed = value.parse().expect("number"),
                "--window" => profile.window = value.parse().expect("number"),
                "--smax" => profile.smax = value.parse().expect("number"),
                "--ff" => profile.ff = value.parse().expect("number"),
                "--doc-len" => profile.avg_doc_len = value.parse().expect("number"),
                "--vocab" => profile.vocab_size = value.parse().expect("number"),
                "--min-hits" => profile.min_hits = value.parse().expect("number"),
                other => {
                    eprintln!("unknown flag {other:?}\n{USAGE}");
                    std::process::exit(2);
                }
            }
            i += 2;
        }
        profile
    }

    /// Largest collection size in the sweep.
    pub fn max_docs(&self) -> usize {
        self.peers_sweep.iter().max().copied().unwrap_or(0) * self.docs_per_peer
    }

    /// Generator configuration for a collection of `num_docs` documents.
    /// Topic structure scales with the collection so co-occurrence density
    /// stays comparable across scales.
    pub fn generator_config(&self, num_docs: usize) -> GeneratorConfig {
        GeneratorConfig {
            num_docs,
            vocab_size: self.vocab_size,
            skew: 1.1,
            avg_doc_len: self.avg_doc_len,
            doc_len_sigma: 0.35,
            num_topics: (num_docs / 40).clamp(20, 2_000),
            topic_vocab: 120,
            topics_per_doc: 3,
            topic_mix: 0.45,
            seed: self.seed,
        }
    }

    /// HDK model configuration for one `DFmax` value.
    pub fn hdk_config(&self, dfmax: u32) -> HdkConfig {
        HdkConfig {
            dfmax,
            smax: self.smax,
            window: self.window,
            ff: self.ff,
            exact_intrinsic: false,
            redundancy_filtering: true,
            replication: 1,
            hot_threshold: 0,
            hot_extra: 1,
            store: hdk_core::StoreConfig::from_env(),
            codec: hdk_core::Codec::Leb128,
            gossip: hdk_p2p::GossipConfig::default(),
        }
    }

    /// Query-log configuration.
    pub fn querylog_config(&self) -> QueryLogConfig {
        QueryLogConfig {
            num_queries: self.num_queries,
            min_terms: 2,
            max_terms: 8,
            window: self.window,
            min_hits: self.min_hits,
            seed: self.seed ^ 0x9E3779B97F4A7C15,
        }
    }
}

const USAGE: &str = "\
usage: <experiment> [--scale F] [--peers a,b,c] [--docs-per-peer N]
                    [--dfmax a,b] [--queries N] [--seed N] [--window N]
                    [--smax N] [--ff N] [--doc-len N] [--vocab N]
                    [--min-hits N]
Defaults reproduce the paper's setup scaled to laptop size; use
--scale 12.5 --dfmax 400,500 --ff 100000 --doc-len 225 for Table 2 scale.";

fn parse_list(s: &str) -> Vec<usize> {
    s.split(',')
        .map(|p| p.trim().parse().expect("comma-separated numbers"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_shape() {
        let p = ExperimentProfile::default();
        assert_eq!(p.peers_sweep, vec![4, 8, 12, 16, 20, 24, 28]);
        assert_eq!(p.window, 20);
        assert_eq!(p.smax, 3);
        assert_eq!(p.dfmax_values.len(), 2);
        assert_eq!(p.max_docs(), 28 * 400);
    }

    #[test]
    fn generator_config_scales_topics() {
        let p = ExperimentProfile::default();
        let small = p.generator_config(800);
        let large = p.generator_config(8_000);
        assert!(large.num_topics > small.num_topics);
        assert_eq!(small.seed, large.seed);
    }

    #[test]
    fn parse_list_handles_spaces() {
        assert_eq!(parse_list("4, 8,12"), vec![4, 8, 12]);
    }
}
