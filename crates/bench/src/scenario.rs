//! The set-up the latency, availability, read-scaling and gossip studies
//! share: one generated collection, its partition over the peers and a
//! query log drawn from it.

use hdk_core::QueryService;
use hdk_corpus::{
    partition_documents, Collection, CollectionGenerator, DocId, GeneratorConfig, QueryLog,
    QueryLogConfig,
};
use hdk_p2p::PeerId;

/// One query's answer as a study compares it: each result's document and
/// score bits, in rank order.
pub type Digest = Vec<(u32, u64)>;

/// A study's inputs.
pub struct Scenario {
    /// `docs` documents whose vocabulary and topics grow with their count.
    pub collection: Collection,
    /// The documents of each peer.
    pub partitions: Vec<Vec<DocId>>,
    /// `queries` queries drawn from the collection.
    pub log: QueryLog,
}

impl Scenario {
    /// `docs` documents over `peers` peers, and a log of `queries`
    /// queries.
    pub fn new(peers: usize, docs: usize, queries: usize) -> Self {
        let collection = CollectionGenerator::new(GeneratorConfig {
            num_docs: docs,
            vocab_size: (docs * 12).max(2_000),
            avg_doc_len: 60,
            num_topics: (docs / 12).max(8),
            topic_vocab: 50,
            ..GeneratorConfig::default()
        })
        .generate();
        let log = QueryLog::generate(
            &collection,
            &QueryLogConfig {
                num_queries: queries,
                ..QueryLogConfig::default()
            },
        );
        Self {
            collection,
            partitions: partition_documents(docs, peers, 29),
            log,
        }
    }

    /// The digest of every logged query's top 20, asked from `from`.
    pub fn digests(&self, service: &QueryService, from: PeerId) -> Vec<Digest> {
        (self.log.queries.iter())
            .map(|q| {
                (service.query(from, &q.terms, 20).results.iter())
                    .map(|r| (r.doc.0, r.score.to_bits()))
                    .collect()
            })
            .collect()
    }
}
