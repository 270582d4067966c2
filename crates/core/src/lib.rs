//! # Highly Discriminative Keys for P2P web retrieval
//!
//! Implementation of the indexing/retrieval model of **Podnar, Rajman, Luu,
//! Klemm, Aberer — "Scalable Peer-to-Peer Web Retrieval with Highly
//! Discriminative Keys" (ICDE 2007)**.
//!
//! Instead of single terms (whose posting lists grow with the collection
//! and make P2P retrieval traffic unscalable), the global index stores
//! *keys*: terms and term sets that are
//!
//! 1. at most `smax` terms (**size filtering**),
//! 2. co-occurring inside a window of `w` tokens (**proximity filtering**),
//! 3. *intrinsically discriminative* — present in at most `DFmax` documents
//!    while every strict sub-key is not (**redundancy filtering**).
//!
//! Keys act as precomputed answers to highly selective multi-term queries:
//! each posting list is bounded by `DFmax`, so per-query traffic is bounded
//! by `nk · DFmax` regardless of collection size. Non-discriminative keys
//! keep a top-`DFmax` truncated list as a quality fallback.
//!
//! ## Quick start
//!
//! ```
//! use hdk_core::{HdkConfig, HdkNetwork};
//! use hdk_corpus::{partition_documents, CollectionGenerator, GeneratorConfig};
//! use hdk_p2p::PeerId;
//!
//! // A small synthetic collection distributed over 4 peers.
//! let collection = CollectionGenerator::new(GeneratorConfig {
//!     num_docs: 200, vocab_size: 2_000, avg_doc_len: 40,
//!     num_topics: 20, topic_vocab: 50, ..GeneratorConfig::default()
//! }).generate();
//! let partitions = partition_documents(collection.len(), 4, 42);
//!
//! // Build the distributed HDK index and query it.
//! let config = HdkConfig { dfmax: 20, ff: 2_000, ..HdkConfig::default() };
//! let network = HdkNetwork::build(&collection, &partitions, config);
//! let query = collection.docs()[0].tokens[..2].to_vec();
//! let outcome = network.query(PeerId(0), &query, 20);
//! assert!(outcome.postings_fetched <= u64::from(outcome.lookups) * 20);
//! ```

pub mod cache;
pub mod classify;
pub mod config;
pub mod engine;
pub mod exec;
pub mod global_index;
pub mod key;
pub mod local_indexer;
pub mod naive;
pub mod plan;
pub mod ranking;
pub mod serve;
pub mod stats;
pub mod window_keys;

pub use cache::{CachePeek, CacheStats, QueryCache};
pub use classify::{classify, KeyClass};
pub use config::{net_timeout_from_env, HdkConfig, StoreConfig, DEFAULT_SEGMENT_HOT_BYTES};
pub use engine::{BackendConfig, HdkNetwork, IndexService, OverlayKind, QueryService};
pub use exec::{derive_query_id, QueryExecutor, QueryOutcome};
pub use global_index::{
    build_entry_store, Contributors, GlobalIndex, IndexBackend, IndexCounts, IndexFootprint,
    IndexRequest, IndexResponse, IndexStore, IndexSweep, IndexSwept, KeyEntry, KeyEntryCodec,
    KeyLookup, PeerStorage,
};
/// Re-exported only so the frozen `benchmark/` crate compiles.
pub use hdk_ir::Codec;
pub use key::{Key, MAX_KEY_SIZE};
pub use local_indexer::LocalPeer;
pub use naive::SingleTermNetwork;
pub use plan::{max_lookups, NodeOutcome, QueryPlan};
pub use serve::{
    spawn_http, Fleet, HttpHandle, PeerConfig, PeerHost, TcpNet, WireRequest, WireResponse,
};
pub use stats::{BuildReport, LevelProfile, QueryProfile};
