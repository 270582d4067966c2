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

/// Reads the serving tier's per-request deadline from the
/// `HDK_NET_TIMEOUT_MS` environment variable (milliseconds, at least 1;
/// unset or empty for [`DEFAULT_NET_TIMEOUT_MS`]) — a deployment setting:
/// how long a dead peer process may cost before it counts as a transport
/// error.
///
/// # Panics
/// Panics on a value that is not a positive integer (a mistyped deadline
/// must fail loudly, not silently fall back to the default).
pub fn net_timeout_from_env() -> Duration {
    let ms = match std::env::var("HDK_NET_TIMEOUT_MS") {
        Err(_) => DEFAULT_NET_TIMEOUT_MS,
        Ok(v) if v.is_empty() => DEFAULT_NET_TIMEOUT_MS,
        Ok(v) => match v.parse::<u64>() {
            Ok(ms) if ms >= 1 => ms,
            _ => panic!("HDK_NET_TIMEOUT_MS must be a positive number of milliseconds, got {v:?}"),
        },
    };
    Duration::from_millis(ms)
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
}
