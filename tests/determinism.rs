//! Reproducibility: every figure in `EXPERIMENTS.md` must be exactly
//! re-derivable, so the whole stack — generation, partitioning, parallel
//! indexing, retrieval — has to be deterministic in the seed.

use p2p_hdk::prelude::*;

fn build_once(seed: u64) -> (Collection, HdkNetwork) {
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: 300,
        vocab_size: 3_000,
        avg_doc_len: 50,
        num_topics: 25,
        topic_vocab: 50,
        seed,
        ..GeneratorConfig::default()
    })
    .generate();
    let partitions = partition_documents(collection.len(), 5, seed);
    let network = HdkNetwork::build(
        &collection,
        &partitions,
        HdkConfig {
            dfmax: 15,
            ff: 2_000,
            ..HdkConfig::default()
        },
    );
    (collection, network)
}

#[test]
fn identical_seeds_identical_networks() {
    let (c1, n1) = build_once(77);
    let (c2, n2) = build_once(77);
    assert_eq!(c1.docs(), c2.docs());
    let (r1, r2) = (n1.build_report(), n2.build_report());
    assert_eq!(r1.inserted_by_size, r2.inserted_by_size);
    assert_eq!(r1.stored_per_peer, r2.stored_per_peer);
    assert_eq!(r1.counts, r2.counts);

    // Queries agree bit-for-bit.
    let log = QueryLog::generate(
        &c1,
        &QueryLogConfig {
            num_queries: 25,
            ..QueryLogConfig::default()
        },
    );
    for q in &log.queries {
        let a = n1.query(PeerId(1), &q.terms, 20);
        let b = n2.query(PeerId(1), &q.terms, 20);
        assert_eq!(a.results, b.results);
        assert_eq!(a.postings_fetched, b.postings_fetched);
        assert_eq!(a.lookups, b.lookups);
    }
}

#[test]
fn different_seeds_differ() {
    let (_, n1) = build_once(1);
    let (_, n2) = build_once(2);
    assert_ne!(
        n1.build_report().stored_per_peer,
        n2.build_report().stored_per_peer
    );
}
