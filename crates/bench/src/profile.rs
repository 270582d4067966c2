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
//!
//! With [`Positional`], the studies' positional numbers, this is the
//! `hdk-bench` binary's one argument layer.

use hdk_core::HdkConfig;
use hdk_corpus::{GeneratorConfig, QueryLogConfig};
use std::str::FromStr;

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
    /// Parses command-line overrides, the arguments after the subcommand
    /// (`hdk-bench --help` lists them; `--scale F` multiplies
    /// docs-per-peer). A malformed, missing or unknown one is refused.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mut profile = Self::default();
        for pair in args.chunks(2) {
            let flag = pair[0].as_str();
            let Some(value) = pair.get(1) else {
                return Err(format!("missing value for {flag}"));
            };
            match flag {
                "--scale" => {
                    let f: f64 = number(flag, value)?;
                    profile.docs_per_peer =
                        ((profile.docs_per_peer as f64 * f).round() as usize).max(10);
                }
                "--peers" => profile.peers_sweep = parse_list(flag, value)?,
                "--docs-per-peer" => profile.docs_per_peer = number(flag, value)?,
                "--dfmax" => profile.dfmax_values = parse_list(flag, value)?,
                "--queries" => profile.num_queries = number(flag, value)?,
                "--seed" => profile.seed = number(flag, value)?,
                "--window" => profile.window = number(flag, value)?,
                "--smax" => profile.smax = number(flag, value)?,
                "--ff" => profile.ff = number(flag, value)?,
                "--doc-len" => profile.avg_doc_len = number(flag, value)?,
                "--vocab" => profile.vocab_size = number(flag, value)?,
                "--min-hits" => profile.min_hits = number(flag, value)?,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(profile)
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

/// `value` read as the number `what` takes.
fn number<T: FromStr>(what: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{what} takes a number, not {value:?}"))
}

fn parse_list<T: FromStr>(flag: &str, s: &str) -> Result<Vec<T>, String> {
    s.split(',').map(|p| number(flag, p.trim())).collect()
}

/// Positional numeric arguments, read in order: [`Positional::next`]
/// takes the next one, or its default once they run out, and
/// [`Positional::end`] refuses any left over.
pub struct Positional<'a>(std::slice::Iter<'a, String>);

impl<'a> Positional<'a> {
    /// Reads `args`, the arguments after the subcommand.
    pub fn new(args: &'a [String]) -> Self {
        Self(args.iter())
    }

    /// The next argument as the number `name`, or `default` if none is left.
    pub fn next<T: FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.0.next() {
            None => Ok(default),
            Some(flag) if flag.starts_with("--") => Err(format!("unknown flag {flag:?}")),
            Some(value) => number(name, value),
        }
    }

    /// Refuses a surplus argument.
    pub fn end(mut self) -> Result<(), String> {
        self.0.next().map_or(Ok(()), |extra| {
            Err(format!("unexpected argument {extra:?}"))
        })
    }
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

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parse_list_handles_spaces() {
        assert_eq!(
            parse_list::<usize>("--peers", "4, 8,12"),
            Ok(vec![4, 8, 12])
        );
    }

    #[test]
    fn from_args_applies_flags() {
        let p = ExperimentProfile::from_args(&args("--peers 2,4 --seed 5")).unwrap();
        assert_eq!(p.peers_sweep, vec![2, 4]);
        assert_eq!(p.seed, 5);
        assert_eq!(p.docs_per_peer, ExperimentProfile::default().docs_per_peer);
    }

    #[test]
    fn from_args_refuses_what_it_cannot_use() {
        for line in [
            "--seed x",
            "--seed",
            "--peers 2,x",
            "--dfmax 5000000000",
            "--bogus 1",
        ] {
            assert!(ExperimentProfile::from_args(&args(line)).is_err(), "{line}");
        }
    }

    #[test]
    fn positional_reads_defaults_and_refuses_surplus_or_malformed() {
        let a = args("8 24");
        let mut p = Positional::new(&a);
        assert_eq!(p.next("peers", 1), Ok(8usize));
        assert_eq!(p.next("skew", 0.5), Ok(24.0));
        assert_eq!(p.next("queries", 3usize), Ok(3));
        assert!(p.end().is_ok());

        let a = args("8 24O");
        let mut p = Positional::new(&a);
        assert_eq!(p.next("peers", 1), Ok(8usize));
        assert!(p.next("docs", 1usize).is_err());

        let a = args("8 9");
        let mut p = Positional::new(&a);
        assert_eq!(p.next("peers", 1), Ok(8usize));
        assert!(p.end().is_err());

        let a = args("--json");
        assert!(Positional::new(&a).next("peers", 1usize).is_err());
    }
}
