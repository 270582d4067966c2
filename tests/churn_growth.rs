//! Peer-join growth: a peer joining a live network with its own documents
//! must leave the system indistinguishable — in index *content* and query
//! answers — from a network built statically over the same enlarged
//! collection. (Placement of index fractions differs; content must not.)

use p2p_hdk::prelude::*;

fn config() -> HdkConfig {
    HdkConfig {
        dfmax: 12,
        ff: u64::MAX, // freeze exclusion differences out of the comparison
        ..HdkConfig::default()
    }
}

#[test]
fn joined_peer_network_matches_static_build() {
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: 360,
        vocab_size: 2_500,
        avg_doc_len: 45,
        num_topics: 25,
        topic_vocab: 50,
        ..GeneratorConfig::default()
    })
    .generate();

    // Static reference: 4 peers, whole collection.
    let static_parts = partition_documents(collection.len(), 4, 31);
    let reference = HdkNetwork::build(&collection, &static_parts, config());

    // Live network: 3 peers over the first 270 docs, then a 4th peer joins
    // carrying the remaining 90.
    let split = 270;
    let old_parts = partition_documents(split, 3, 77);
    let mut live = HdkNetwork::build(&collection.prefix(split), &old_parts, config());
    let new_docs: Vec<Document> = (split..collection.len())
        .map(|i| collection.docs()[i].clone())
        .collect();
    let migration = live.join_peer(PeerId(900), new_docs);
    assert!(migration.keys_moved > 0, "join must take over index keys");
    assert_eq!(live.num_peers(), 4);
    assert_eq!(live.num_docs(), reference.num_docs());

    // Index content identical despite different document placement and
    // overlay shape.
    assert_eq!(
        live.index().index_counts(),
        reference.index().index_counts()
    );

    // Query answers identical.
    let log = QueryLog::generate(
        &collection,
        &QueryLogConfig {
            num_queries: 40,
            ..QueryLogConfig::default()
        },
    );
    for q in &log.queries {
        let a = live.query(PeerId(900), &q.terms, 20);
        let b = reference.query(PeerId(0), &q.terms, 20);
        assert_eq!(a.results, b.results, "diverged for {:?}", q.terms);
        assert_eq!(a.postings_fetched, b.postings_fetched);
    }

    // Migration is maintenance, not indexing cost: inserted postings per
    // peer reflect only real indexing work.
    let snap = live.snapshot();
    assert_eq!(
        snap.kind(MsgKind::Maintenance).postings,
        migration.postings_moved
    );
}

#[test]
fn bulk_join_matches_sequential_content_with_less_traffic() {
    // `join_peers` admits N peers in one call: N overlay migrations, then
    // ONE incremental indexing session over all their documents. The final
    // index content must match both the static build and the sequential
    // one-peer-at-a-time joins, while the amortized re-announce sweep
    // moves strictly fewer indexing messages than the sequential joins.
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: 300,
        vocab_size: 2_200,
        avg_doc_len: 45,
        num_topics: 22,
        topic_vocab: 45,
        ..GeneratorConfig::default()
    })
    .generate();
    let reference = HdkNetwork::build(
        &collection,
        &partition_documents(collection.len(), 6, 7),
        config(),
    );

    let boot = || {
        HdkNetwork::build(
            &collection.prefix(150),
            &partition_documents(150, 3, 7),
            config(),
        )
    };
    let joins = |base: u64| -> Vec<(PeerId, Vec<Document>)> {
        (0..3u64)
            .map(|j| {
                let lo = 150 + j as usize * 50;
                let docs: Vec<Document> = (lo..lo + 50)
                    .map(|i| collection.docs()[i].clone())
                    .collect();
                (PeerId(base + j), docs)
            })
            .collect()
    };

    // Sequential baseline: three separate join sessions.
    let mut sequential = boot();
    for (peer, docs) in joins(700) {
        sequential.index_service().join_peer(peer, docs);
    }

    // Bulk: one call, one session.
    let mut bulk = boot();
    let migrations = bulk.index_service().join_peers(joins(700));
    assert_eq!(migrations.len(), 3, "one migration report per join");
    assert!(
        migrations.iter().any(|m| m.keys_moved > 0),
        "joins must take over index keys"
    );

    // Identical final content, three ways.
    assert_eq!(bulk.num_peers(), 6);
    assert_eq!(
        bulk.index().index_counts(),
        reference.index().index_counts()
    );
    assert_eq!(
        bulk.index().index_counts(),
        sequential.index().index_counts()
    );

    // Query answers identical to the static build.
    let log = QueryLog::generate(
        &collection,
        &QueryLogConfig {
            num_queries: 25,
            ..QueryLogConfig::default()
        },
    );
    let bulk_queries = bulk.query_service();
    for q in &log.queries {
        let a = bulk_queries.query(PeerId(700), &q.terms, 20);
        let b = reference.query(PeerId(0), &q.terms, 20);
        assert_eq!(a.results, b.results, "diverged for {:?}", q.terms);
    }

    // The amortization claim: one shared session moves fewer indexing
    // messages (inserts + notifications) than three separate sessions.
    let cost = |n: &HdkNetwork| {
        let s = n.snapshot();
        s.kind(MsgKind::IndexInsert).messages + s.kind(MsgKind::IndexNotify).messages
    };
    // Subtract the query traffic-free baseline: only indexing categories
    // are compared, and queries above only touched `bulk`.
    assert!(
        cost(&bulk) < cost(&sequential),
        "bulk join must amortize: {} messages vs {} sequential",
        cost(&bulk),
        cost(&sequential)
    );
}

#[test]
fn bulk_join_of_one_equals_single_join() {
    // The single-join path is the bulk path with one element; their
    // observable effects must be identical.
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: 160,
        vocab_size: 1_500,
        avg_doc_len: 40,
        num_topics: 15,
        topic_vocab: 40,
        ..GeneratorConfig::default()
    })
    .generate();
    let boot = || {
        HdkNetwork::build(
            &collection.prefix(120),
            &partition_documents(120, 2, 5),
            config(),
        )
    };
    let docs: Vec<Document> = (120..160).map(|i| collection.docs()[i].clone()).collect();

    let mut single = boot();
    let m1 = single.join_peer(PeerId(42), docs.clone());
    let mut bulk = boot();
    let m2 = bulk.join_peers(vec![(PeerId(42), docs)]);
    assert_eq!(vec![m1], m2);
    assert_eq!(single.index().index_counts(), bulk.index().index_counts());
    assert_eq!(single.snapshot(), bulk.snapshot(), "traffic must match");
}

#[test]
fn several_peers_join_in_sequence() {
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: 240,
        vocab_size: 2_000,
        avg_doc_len: 40,
        num_topics: 20,
        topic_vocab: 40,
        ..GeneratorConfig::default()
    })
    .generate();
    let reference = HdkNetwork::build(
        &collection,
        &partition_documents(collection.len(), 5, 3),
        config(),
    );

    // Start with 2 peers on 120 docs, then 3 joins of 40 docs each.
    let mut live = HdkNetwork::build(
        &collection.prefix(120),
        &partition_documents(120, 2, 3),
        config(),
    );
    for (j, lo) in [(0u64, 120usize), (1, 160), (2, 200)] {
        let docs: Vec<Document> = (lo..lo + 40)
            .map(|i| collection.docs()[i].clone())
            .collect();
        live.join_peer(PeerId(1000 + j), docs);
    }
    assert_eq!(live.num_peers(), 5);
    assert_eq!(
        live.index().index_counts(),
        reference.index().index_counts()
    );
}
