//! Model parameters (paper, Table 2 and Section 3.1) and the storage-tier
//! selection for the hosting peers' index fractions.

use crate::key::MAX_KEY_SIZE;
use hdk_ir::Codec;
use std::path::PathBuf;
use std::time::Duration;

/// Hot-tier budget used by `HDK_STORE=segment` when no explicit byte
/// count is given (1 MiB across all stripes).
pub const DEFAULT_SEGMENT_HOT_BYTES: u64 = 1 << 20;

/// The hot-tier budget of the [`hdk_p2p::SegmentStore`] that hosts the
/// DHT's index entries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StoreConfig {
    /// The unbounded store, the default: everything resident, nothing
    /// ever sealed, no directory. The same store as
    /// [`StoreConfig::Segment`] with `hot_bytes: u64::MAX`; the name stays
    /// for the `benchmark/` crate, which selects it by this name.
    #[default]
    Memory,
    /// A budgeted store: a hot tier in memory plus sealed, checksummed
    /// frames appended to per-stripe segment files on disk. Makes peers
    /// restartable (`IndexService::restart_peers`).
    Segment {
        /// Segment-log directory. `None` = a scratch directory removed
        /// when the store drops (builds that only need the memory budget);
        /// `Some(dir)` = durable logs that survive the process.
        dir: Option<PathBuf>,
        /// Total hot-tier byte budget, split evenly across the DHT's
        /// stripes. Entries beyond it are sealed to disk, oldest first.
        hot_bytes: u64,
    },
}

impl StoreConfig {
    /// An ephemeral tiered store with the given hot budget.
    pub fn segment(hot_bytes: u64) -> Self {
        Self::Segment {
            dir: None,
            hot_bytes,
        }
    }

    /// Parses an `HDK_STORE` value: `memory` (or empty) for the unbounded
    /// default, `segment` for a budgeted store at
    /// [`DEFAULT_SEGMENT_HOT_BYTES`], or `segment:<bytes>` for an explicit
    /// hot budget. The error names the variable and the valid forms.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value {
            "" | "memory" => Ok(Self::Memory),
            "segment" => Ok(Self::segment(DEFAULT_SEGMENT_HOT_BYTES)),
            _ => match value.strip_prefix("segment:").map(str::parse) {
                Some(Ok(hot_bytes)) => Ok(Self::segment(hot_bytes)),
                _ => Err(format!(
                    "HDK_STORE must be `memory`, `segment` or `segment:<bytes>`, got {value:?}"
                )),
            },
        }
    }

    /// Reads the store from the `HDK_STORE` environment variable (see
    /// [`StoreConfig::parse`]; unset is the unbounded default) — how CI
    /// runs the whole tier-1 suite against a budgeted store without
    /// touching any test.
    ///
    /// # Panics
    /// Panics on a malformed value, since [`HdkConfig::default`] and the
    /// paper configs read it with no way to report an error: a misspelled
    /// matrix entry must fail loudly, not silently fall back to memory.
    /// A binary that can report one (`hdk-peer`) parses the variable
    /// itself and exits instead.
    pub fn from_env() -> Self {
        match std::env::var("HDK_STORE") {
            Err(_) => Self::Memory,
            Ok(v) => Self::parse(&v).unwrap_or_else(|e| panic!("{e}")),
        }
    }
}

/// Default per-request deadline of the serving tier's transport
/// (connect, read and write), overridable with `HDK_NET_TIMEOUT_MS`.
pub const DEFAULT_NET_TIMEOUT_MS: u64 = 5_000;

/// Parses an `HDK_NET_TIMEOUT_MS` value: a positive number of
/// milliseconds, or empty for [`DEFAULT_NET_TIMEOUT_MS`]. The error names
/// the variable.
pub fn parse_net_timeout(value: &str) -> Result<Duration, String> {
    match value {
        "" => Ok(Duration::from_millis(DEFAULT_NET_TIMEOUT_MS)),
        _ => match value.parse::<u64>() {
            Ok(ms) if ms >= 1 => Ok(Duration::from_millis(ms)),
            _ => Err(format!(
                "HDK_NET_TIMEOUT_MS must be a positive number of milliseconds, got {value:?}"
            )),
        },
    }
}

/// Reads the serving tier's per-request deadline from the
/// `HDK_NET_TIMEOUT_MS` environment variable (see [`parse_net_timeout`];
/// unset for [`DEFAULT_NET_TIMEOUT_MS`]) — a deployment setting: how long
/// a dead peer process may cost before it counts as a transport error.
/// A mistyped deadline is an error, never a silent fall back to the
/// default.
pub fn net_timeout_from_env() -> Result<Duration, String> {
    match std::env::var("HDK_NET_TIMEOUT_MS") {
        Err(_) => Ok(Duration::from_millis(DEFAULT_NET_TIMEOUT_MS)),
        Ok(v) => parse_net_timeout(&v),
    }
}

/// Parameters of the HDK indexing/retrieval model.
#[derive(Debug, Clone, PartialEq)]
pub struct HdkConfig {
    /// `DFmax` — document-frequency threshold separating discriminative
    /// from non-discriminative keys (Definition 3/4). Also the truncation
    /// depth for NDK posting lists.
    pub dfmax: u32,
    /// `smax` — maximal key size considered (size filtering, paper uses 3).
    pub smax: usize,
    /// `w` — proximity window size (paper uses 20).
    pub window: usize,
    /// `Ff` — collection-frequency threshold above which terms are *very
    /// frequent* and excluded from the key vocabulary entirely (Section 4.1:
    /// "we are removing an increasing number of very frequent terms [...]
    /// following the common practice [...] of removing stop words").
    pub ff: u64,
    /// Definition 5 verbatim: require *all* strict sub-keys to be
    /// non-discriminative before accepting a key as intrinsically
    /// discriminative. The paper's practical generator (size-(s-1) NDK
    /// extended by an NDK term) is the default (`false`); `true` adds the
    /// full local check (ablation `ablate_redundancy` compares them).
    pub exact_intrinsic: bool,
    /// Redundancy filtering on/off. `false` indexes every discriminative
    /// key (not just intrinsic ones) — the ablation showing why
    /// Definition 5 matters for index size.
    pub redundancy_filtering: bool,
    /// `R` — structural replication factor: every index entry is stored
    /// on the responsible peer plus `R - 1` live successors along the
    /// overlay's key-space order (P-Grid's robustness mechanism). `R = 1`
    /// reproduces the unreplicated system bit for bit; `R ≥ 2` survives
    /// up to `R - 1` simultaneous peer crashes between repair sweeps at
    /// `R×` insert traffic and storage.
    pub replication: usize,
    /// Popularity-driven replication threshold: when a key's lookup hit
    /// counter reaches this value between two `rebalance_hot` passes, the
    /// pass materializes `hot_extra` extra replicas for it along the
    /// successor walk (demoted again when popularity decays). `0` — the
    /// default — disables the mechanism entirely: no counters, no extra
    /// copies, bit-identical to the structural-replication-only engine.
    pub hot_threshold: u64,
    /// Extra replicas a promoted hot key gains on top of the structural
    /// `R` (only meaningful when `hot_threshold > 0`).
    pub hot_extra: usize,
    /// The store of the hosted index fractions. The constructors read it
    /// from the `HDK_STORE` environment variable
    /// ([`StoreConfig::from_env`]), defaulting to the unbounded store.
    pub store: StoreConfig,
    /// Ignored: there is one block format. Kept only so the frozen
    /// `benchmark/` crate compiles; nothing reads it.
    pub codec: Codec,
    /// Gossip membership knobs ([`hdk_p2p::GossipConfig`]). The default
    /// (`fanout 0`) keeps gossip off entirely: peer liveness stays on
    /// the membership oracle and every meter is byte-identical to the
    /// pre-gossip engine. `fanout >= 1` replaces the oracle with
    /// per-peer views converged by deterministic SWIM-style rounds
    /// ([`crate::engine::IndexService::gossip_round`]).
    pub gossip: hdk_p2p::GossipConfig,
}

impl HdkConfig {
    /// The paper's experimental parameters (Table 2), `DFmax = 400`
    /// variant: `DFmax=400, smax=3, w=20, Ff=100,000`.
    pub fn paper_dfmax_400() -> Self {
        Self {
            dfmax: 400,
            smax: 3,
            window: 20,
            ff: 100_000,
            exact_intrinsic: false,
            redundancy_filtering: true,
            replication: 1,
            hot_threshold: 0,
            hot_extra: 1,
            store: StoreConfig::from_env(),
            codec: Codec::Leb128,
            gossip: hdk_p2p::GossipConfig::default(),
        }
    }

    /// Table 2 with `DFmax = 500`.
    pub fn paper_dfmax_500() -> Self {
        Self {
            dfmax: 500,
            ..Self::paper_dfmax_400()
        }
    }

    /// The distributed single-term (ST) baseline, the paper's comparator:
    /// "the naïve approach" of Figure 1, the classic global single-term
    /// index distributed over the same structured overlay. Every peer
    /// inserts its full local single-term posting lists; a query fetches
    /// the *complete* posting list of every query term, so retrieval
    /// traffic grows linearly with the collection (the effect Figures 6
    /// and 8 quantify).
    ///
    /// It is the degenerate HDK configuration — `smax = 1`, `DFmax = ∞`,
    /// no very-frequent-term exclusion — which makes the equivalence
    /// between the two models explicit (the paper: "In case when DFmax
    /// would be equal to the maximum posting list size of a single-term
    /// index, the two indexing models would produce equal indexes").
    /// Ranking over full single-term lists with global statistics *is*
    /// exact BM25, so the ST baseline reproduces the centralized engine's
    /// ranking.
    pub fn single_term() -> Self {
        Self {
            dfmax: u32::MAX,
            smax: 1,
            window: 2,    // irrelevant at smax = 1
            ff: u64::MAX, // no very-frequent exclusion: full vocabulary
            ..Self::default()
        }
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    /// Panics on out-of-range parameters.
    pub fn validate(&self) {
        assert!(self.dfmax >= 1, "DFmax must be at least 1");
        assert!(
            (1..=MAX_KEY_SIZE).contains(&self.smax),
            "smax must be in 1..={MAX_KEY_SIZE}, got {}",
            self.smax
        );
        assert!(self.window >= 2, "window must admit at least a pair");
        assert!(self.ff >= 1, "Ff must be at least 1");
        assert!(
            self.replication >= 1,
            "replication factor must be at least 1"
        );
        assert!(
            self.hot_threshold == 0 || self.hot_extra >= 1,
            "hot_extra must be at least 1 when popularity replication is on"
        );
        self.gossip.validate();
    }

    /// Scales the collection-dependent thresholds for a collection whose
    /// sample size is `sample_size` tokens, keeping the *ratios* the paper
    /// used: the paper ran `Ff = 100,000` against roughly 31 million tokens
    /// (28 peers x 1.123M words), i.e. `Ff ≈ D / 315`, and
    /// `DFmax = 400..500` against 140k documents, i.e. `DFmax ≈ M / 300`.
    pub fn scaled_for(sample_size: u64, num_docs: usize) -> Self {
        let ff = (sample_size / 315).max(50);
        let dfmax = (num_docs as u32 / 300).max(8);
        Self {
            dfmax,
            smax: 3,
            window: 20,
            ff,
            exact_intrinsic: false,
            redundancy_filtering: true,
            replication: 1,
            hot_threshold: 0,
            hot_extra: 1,
            store: StoreConfig::from_env(),
            codec: Codec::Leb128,
            gossip: hdk_p2p::GossipConfig::default(),
        }
    }
}

impl Default for HdkConfig {
    /// Laptop-scale defaults for tests and examples: like
    /// [`HdkConfig::scaled_for`] a few-thousand-document collection.
    fn default() -> Self {
        Self {
            dfmax: 40,
            smax: 3,
            window: 20,
            ff: 10_000,
            exact_intrinsic: false,
            redundancy_filtering: true,
            replication: 1,
            hot_threshold: 0,
            hot_extra: 1,
            store: StoreConfig::from_env(),
            codec: Codec::Leb128,
            gossip: hdk_p2p::GossipConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HdkNetwork;
    use hdk_corpus::{
        partition_documents, Collection, CollectionGenerator, GeneratorConfig, QueryLog,
        QueryLogConfig,
    };
    use hdk_ir::CentralizedEngine;
    use hdk_p2p::PeerId;

    #[test]
    fn paper_configs_match_table2() {
        let c = HdkConfig::paper_dfmax_400();
        assert_eq!(c.dfmax, 400);
        assert_eq!(c.smax, 3);
        assert_eq!(c.window, 20);
        assert_eq!(c.ff, 100_000);
        assert_eq!(HdkConfig::paper_dfmax_500().dfmax, 500);
        c.validate();
    }

    #[test]
    fn default_validates() {
        HdkConfig::default().validate();
    }

    #[test]
    fn store_config_parses_every_form_and_names_the_variable() {
        assert_eq!(StoreConfig::parse(""), Ok(StoreConfig::Memory));
        assert_eq!(StoreConfig::parse("memory"), Ok(StoreConfig::Memory));
        assert_eq!(
            StoreConfig::parse("segment"),
            Ok(StoreConfig::segment(DEFAULT_SEGMENT_HOT_BYTES))
        );
        assert_eq!(
            StoreConfig::parse("segment:65536"),
            Ok(StoreConfig::segment(65_536))
        );
        for bad in ["segment:x", "segment:", "disk", "segment:-1"] {
            let err = StoreConfig::parse(bad).expect_err(bad);
            assert!(err.contains("HDK_STORE") && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn net_timeout_parses_and_names_the_variable() {
        assert_eq!(
            parse_net_timeout(""),
            Ok(Duration::from_millis(DEFAULT_NET_TIMEOUT_MS))
        );
        assert_eq!(parse_net_timeout("250"), Ok(Duration::from_millis(250)));
        for bad in ["0", "-5", "1.5", "5s", "x"] {
            let err = parse_net_timeout(bad).expect_err(bad);
            assert!(
                err.contains("HDK_NET_TIMEOUT_MS") && err.contains(bad),
                "{err}"
            );
        }
    }

    #[test]
    fn backend_config_parses_every_form_and_names_the_variable() {
        use crate::BackendConfig;
        assert_eq!(BackendConfig::parse(""), Ok(BackendConfig::InProc));
        assert_eq!(BackendConfig::parse("inproc"), Ok(BackendConfig::InProc));
        assert_eq!(
            BackendConfig::parse("tcp:127.0.0.1:7001,127.0.0.1:7002"),
            Ok(BackendConfig::Tcp {
                addrs: vec!["127.0.0.1:7001".into(), "127.0.0.1:7002".into()],
            })
        );
        for bad in ["tcp:", "tcp", "simnet", "udp:1.2.3.4:5"] {
            let err = BackendConfig::parse(bad).expect_err(bad);
            assert!(err.contains("HDK_BACKEND") && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn store_config_defaults_to_memory() {
        assert_eq!(StoreConfig::default(), StoreConfig::Memory);
        assert_eq!(
            StoreConfig::segment(4096),
            StoreConfig::Segment {
                dir: None,
                hot_bytes: 4096
            }
        );
    }

    #[test]
    fn scaling_preserves_paper_ratios() {
        // At the paper's own scale the scaled config recovers Table 2
        // within rounding.
        let c = HdkConfig::scaled_for(31_400_000, 140_000);
        assert!((90_000..=110_000).contains(&c.ff), "ff {}", c.ff);
        assert!((400..=500).contains(&c.dfmax), "dfmax {}", c.dfmax);
    }

    #[test]
    fn scaling_has_floors() {
        let c = HdkConfig::scaled_for(100, 10);
        assert!(c.dfmax >= 1);
        assert!(c.ff >= 1);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "replication")]
    fn zero_replication_rejected() {
        let c = HdkConfig {
            replication: 0,
            ..HdkConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "hot_extra")]
    fn hot_threshold_without_extras_rejected() {
        let c = HdkConfig {
            hot_threshold: 5,
            hot_extra: 0,
            ..HdkConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "suspicion_rounds")]
    fn gossip_without_suspicion_window_rejected() {
        let c = HdkConfig {
            gossip: hdk_p2p::GossipConfig {
                fanout: 2,
                suspicion_rounds: 0,
                ..hdk_p2p::GossipConfig::default()
            },
            ..HdkConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "smax")]
    fn oversized_smax_rejected() {
        let c = HdkConfig {
            smax: MAX_KEY_SIZE + 1,
            ..HdkConfig::default()
        };
        c.validate();
    }

    fn collection() -> Collection {
        CollectionGenerator::new(GeneratorConfig {
            num_docs: 300,
            vocab_size: 2_500,
            avg_doc_len: 50,
            num_topics: 30,
            topic_vocab: 50,
            ..GeneratorConfig::default()
        })
        .generate()
    }

    #[test]
    fn single_term_matches_centralized_bm25_exactly() {
        let c = collection();
        let parts = partition_documents(c.len(), 4, 7);
        let st = HdkNetwork::build(&c, &parts, HdkConfig::single_term()).query_service();
        let central = CentralizedEngine::build(&c);
        let log = QueryLog::generate(
            &c,
            &QueryLogConfig {
                num_queries: 30,
                ..QueryLogConfig::default()
            },
        );
        for q in &log.queries {
            let dist = st.query(PeerId(0), &q.terms, 20);
            let cent = central.search(&q.terms, 20);
            let dist_docs: Vec<_> = dist.results.iter().map(|r| r.doc).collect();
            let cent_docs: Vec<_> = cent.iter().map(|r| r.doc).collect();
            assert_eq!(dist_docs, cent_docs, "ranking diverged for {:?}", q.terms);
            for (d, c) in dist.results.iter().zip(cent.iter()) {
                assert!((d.score - c.score).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn single_term_query_traffic_equals_sum_of_dfs() {
        let c = collection();
        let parts = partition_documents(c.len(), 4, 7);
        let st = HdkNetwork::build(&c, &parts, HdkConfig::single_term()).query_service();
        let central = CentralizedEngine::build(&c);
        let log = QueryLog::generate(
            &c,
            &QueryLogConfig {
                num_queries: 20,
                ..QueryLogConfig::default()
            },
        );
        for q in &log.queries {
            let out = st.query(PeerId(1), &q.terms, 20);
            assert_eq!(
                out.postings_fetched,
                central.query_posting_volume(&q.terms) as u64
            );
        }
    }

    #[test]
    fn single_term_stored_equals_inserted_no_truncation() {
        let c = collection();
        let parts = partition_documents(c.len(), 4, 7);
        let st = HdkNetwork::build(&c, &parts, HdkConfig::single_term()).query_service();
        let r = st.build_report();
        let stored: u64 = r.stored_per_peer.iter().sum();
        let inserted: u64 = r.inserted_by_size.iter().sum();
        assert_eq!(stored, inserted, "ST index never truncates");
        // And matches the centralized index posting count.
        let central = CentralizedEngine::build(&c);
        assert_eq!(stored, central.index().num_postings() as u64);
    }

    #[test]
    fn single_term_has_only_single_term_keys() {
        let c = collection();
        let parts = partition_documents(c.len(), 2, 7);
        let st = HdkNetwork::build(&c, &parts, HdkConfig::single_term()).query_service();
        let counts = st.build_report().counts;
        assert!(counts.hdk_keys[0] > 0);
        for s in 1..4 {
            assert_eq!(counts.hdk_keys[s] + counts.ndk_keys[s], 0);
        }
        assert_eq!(counts.ndk_keys[0], 0, "DFmax = MAX means no NDKs");
    }
}
