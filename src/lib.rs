//! # p2p-hdk — Scalable Peer-to-Peer Web Retrieval with Highly Discriminative Keys
//!
//! A complete, from-scratch reproduction of **Podnar, Rajman, Luu, Klemm,
//! Aberer — ICDE 2007**: full-text retrieval over a structured P2P network
//! that indexes with *Highly Discriminative Keys* (terms and term sets
//! appearing in at most `DFmax` documents) instead of single terms, bounding
//! per-query traffic by `nk · DFmax` regardless of collection size.
//!
//! This crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`text`] | `hdk-text` | tokenizer, stop words, Porter stemmer, windows |
//! | [`corpus`] | `hdk-corpus` | synthetic Wikipedia-like collections, query logs, Zipf |
//! | [`ir`] | `hdk-ir` | inverted index, postings codec, BM25, centralized engine |
//! | [`p2p`] | `hdk-p2p` | P-Grid trie overlay, metered DHT |
//! | [`core`] | `hdk-core` | the HDK model: keys, filtering, global index, query plan/executor |
//! | [`model`] | `hdk-model` | Zipf fits, Theorems 1–3, traffic extrapolation |
//!
//! ## Example
//!
//! ```
//! use p2p_hdk::prelude::*;
//!
//! // Generate a small collection and distribute it over 4 peers.
//! let collection = CollectionGenerator::new(GeneratorConfig {
//!     num_docs: 200, vocab_size: 2_000, avg_doc_len: 40,
//!     num_topics: 20, topic_vocab: 50, ..GeneratorConfig::default()
//! }).generate();
//! let partitions = partition_documents(collection.len(), 4, 7);
//!
//! // Build the HDK network and the centralized BM25 reference.
//! let config = HdkConfig { dfmax: 20, ff: 2_000, ..HdkConfig::default() };
//! let network = HdkNetwork::build(&collection, &partitions, config);
//! let central = CentralizedEngine::build(&collection);
//!
//! // Query both and compare the top-20.
//! let query = collection.docs()[0].tokens[..2].to_vec();
//! let p2p_results = network.query(PeerId(0), &query, 20);
//! let reference = central.search(&query, 20);
//! let overlap = top_k_overlap(&p2p_results.results, &reference, 20);
//! assert!(overlap >= 0.0);
//! ```

pub mod golden;

pub use hdk_core as core;
pub use hdk_corpus as corpus;
pub use hdk_ir as ir;
pub use hdk_model as model;
pub use hdk_p2p as p2p;
pub use hdk_text as text;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use hdk_core::{
        spawn_http, BackendConfig, HdkConfig, HdkNetwork, HttpHandle, IndexService, Key, KeyClass,
        OverlayKind, PeerConfig, PeerHost, QueryOutcome, QueryPlan, QueryProfile, QueryService,
        SingleTermNetwork, StoreConfig, TcpNet,
    };
    pub use hdk_corpus::{
        partition_documents, Collection, CollectionGenerator, DocId, Document, GeneratorConfig,
        Query, QueryLog, QueryLogConfig,
    };
    pub use hdk_ir::{top_k_overlap, Bm25, CentralizedEngine, SearchResult};
    pub use hdk_model::TrafficModel;
    pub use hdk_p2p::{
        GossipConfig, GossipOutcome, GossipRound, LatencyHistogram, LossStats, Membership,
        MembershipEvent, MigrationStats, MsgKind, PeerId, PeerState, RecoveryStats, RepairStats,
        SimNetConfig, TrafficSnapshot,
    };
    pub use hdk_text::{Analyzer, AnalyzerConfig, TermId, Vocabulary};
}
