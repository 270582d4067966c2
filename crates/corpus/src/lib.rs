//! Document-collection substrate for the HDK retrieval engine.
//!
//! The paper evaluates on a subset of Wikipedia (Table 1) and a real
//! two-month Wikipedia query log. Neither resource ships with this
//! repository, so this crate provides the closest synthetic equivalents
//! (README, Layout; `hdk-bench table1` prints their Table 1 statistics):
//!
//! * [`zipf`] — a finite-vocabulary Zipf sampler (term frequencies follow
//!   `z(r) = C·r^{-a}`, the model underpinning the paper's Section 4),
//! * [`generator`] — a deterministic Wikipedia-like collection generator
//!   combining a global Zipf unigram model with per-document topic
//!   vocabularies so that term *co-occurrence inside windows* is realistic,
//! * [`document`] / [`collection`] — document and collection types plus the
//!   statistics of Table 1,
//! * [`querylog`] — a query generator matching the paper's query-log
//!   statistics (2–8 terms, mean ≈ 3.0, hit-count filtered),
//! * [`stats`] — term/document frequency distributions and rank-frequency
//!   data used by the Zipf fit in `hdk-model`,
//! * [`partition`] — random distribution of documents over peers.

pub mod collection;
pub mod document;
pub mod generator;
pub mod partition;
pub mod querylog;
pub mod stats;
pub mod zipf;

pub use collection::{Collection, CollectionStats};
pub use document::{DocId, Document};
pub use generator::{CollectionGenerator, GeneratorConfig};
pub use partition::partition_documents;
pub use querylog::{Query, QueryLog, QueryLogConfig};
pub use stats::FrequencyStats;
pub use zipf::Zipf;
