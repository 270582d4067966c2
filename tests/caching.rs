//! Query-cache integration: cached retrieval returns identical results at
//! near-zero repeat cost, and never serves stale data across index updates.

use p2p_hdk::core::QueryCache;
use p2p_hdk::prelude::*;

fn setup() -> (Collection, HdkNetwork, QueryLog) {
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: 400,
        vocab_size: 3_000,
        avg_doc_len: 50,
        num_topics: 30,
        topic_vocab: 50,
        ..GeneratorConfig::default()
    })
    .generate();
    let partitions = partition_documents(collection.len(), 4, 13);
    let network = HdkNetwork::build(
        &collection,
        &partitions,
        HdkConfig {
            dfmax: 15,
            ff: 2_000,
            ..HdkConfig::default()
        },
    );
    let log = QueryLog::generate(
        &collection,
        &QueryLogConfig {
            num_queries: 30,
            ..QueryLogConfig::default()
        },
    );
    (collection, network, log)
}

#[test]
fn cached_queries_match_uncached_and_save_traffic() {
    let (_, network, log) = setup();
    let cache = QueryCache::new(4_096);
    // First pass: populate (misses travel, results must match uncached).
    for q in &log.queries {
        let plain = network.query(PeerId(0), &q.terms, 20);
        let cached = network.query_cached(PeerId(0), &q.terms, 20, &cache);
        assert_eq!(plain.results, cached.results, "results diverged");
    }
    // Second pass: every key is hot; repeat queries are free.
    let before = network.snapshot();
    for q in &log.queries {
        let out = network.query_cached(PeerId(0), &q.terms, 20, &cache);
        assert_eq!(out.postings_fetched, 0, "hot query fetched postings");
        assert_eq!(out.lookups, 0, "hot query issued lookups");
        assert!(!out.results.is_empty());
    }
    let moved = network.snapshot().since(&before);
    assert_eq!(moved.kind(MsgKind::QueryLookup).messages, 0);
    assert_eq!(moved.kind(MsgKind::QueryResponse).postings, 0);
    let stats = cache.stats();
    assert!(stats.hits > 0 && stats.postings_saved > 0);
}

#[test]
fn cache_invalidates_on_index_update() {
    let (collection, mut network, log) = setup();
    let cache = QueryCache::new(4_096);
    let q = &log.queries[0];
    let _ = network.query_cached(PeerId(0), &q.terms, 20, &cache);

    // Index grows: a new document containing exactly the query terms.
    let new_doc = Document {
        id: DocId(collection.len() as u32),
        tokens: q.terms.repeat(10),
    };
    network.add_documents(vec![(PeerId(1), new_doc)]);

    // The cached entry is stale; the epoch bump forces a refetch and the
    // fresh result must contain the new document.
    let out = network.query_cached(PeerId(0), &q.terms, collection.len() + 1, &cache);
    assert!(out.lookups > 0, "stale cache served after index update");
    assert!(
        out.results
            .iter()
            .any(|r| r.doc.0 == collection.len() as u32),
        "new document missing from post-update results"
    );
}
