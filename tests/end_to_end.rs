//! End-to-end integration: raw text → analysis → distributed HDK index →
//! free-text queries → ranked results, checked against the centralized
//! BM25 engine and the paper's traffic bounds.

use p2p_hdk::prelude::*;

/// Builds a deterministic pseudo-text collection through the *text*
/// pipeline (tokenizer + stop words + stemmer), not the corpus generator,
/// so this test exercises the whole stack the way a real deployment would.
fn analyzed_collection() -> (Analyzer, Collection) {
    let subjects = [
        "peer", "network", "index", "query", "document", "ranking", "key", "posting", "window",
        "term", "overlay", "routing",
    ];
    let verbs = [
        "stores",
        "retrieves",
        "ranks",
        "distributes",
        "maintains",
        "builds",
    ];
    let mut analyzer = Analyzer::new();
    let mut docs = Vec::new();
    for i in 0..240usize {
        // Each document repeats a small themed vocabulary, so terms
        // co-occur in windows and multi-term keys arise.
        let a = subjects[i % subjects.len()];
        let b = subjects[(i / 3 + 1) % subjects.len()];
        let v = verbs[i % verbs.len()];
        let text = format!(
            "The {a} {v} the {b} and the {a} also {v} many {b} items; \
             without the {a}, no {b} would ever be {v} here. \
             Some filler sentences about completely different things number {i} follow."
        );
        let analyzed = analyzer.analyze(&text);
        docs.push(Document {
            id: DocId(i as u32),
            tokens: analyzed.tokens,
        });
    }
    let vocab = analyzer.vocab().clone();
    (analyzer, Collection::new(docs, vocab))
}

#[test]
fn full_stack_text_to_results() {
    let (analyzer, collection) = analyzed_collection();
    let partitions = partition_documents(collection.len(), 6, 17);
    let network = HdkNetwork::build(
        &collection,
        &partitions,
        HdkConfig {
            dfmax: 15,
            ff: 10_000,
            ..HdkConfig::default()
        },
    );
    let central = CentralizedEngine::build(&collection);

    for query_text in [
        "peer network",
        "ranking documents",
        "posting index",
        "query routing overlay",
    ] {
        let terms = analyzer.analyze_query(query_text);
        assert!(!terms.is_empty(), "query {query_text:?} lost all terms");
        let outcome = network.query(PeerId(1), &terms, 20);
        let reference = central.search(&terms, 20);
        assert!(!outcome.results.is_empty(), "no results for {query_text:?}");
        assert!(!reference.is_empty());
        // Traffic bound: nk * DFmax.
        assert!(
            outcome.postings_fetched
                <= network.max_lookups(terms.len()) * u64::from(network.config().dfmax)
        );
        // Both engines agree at least partially on the top documents.
        let overlap = top_k_overlap(&outcome.results, &reference, 20);
        assert!(
            overlap >= 30.0,
            "overlap for {query_text:?} too low: {overlap}%"
        );
    }
}

#[test]
fn network_grows_with_bounded_per_peer_load() {
    // The paper's use case: collection growth is absorbed by adding peers
    // (constant documents per peer). The ST index per peer stays flat;
    // queries on HDK stay bounded.
    let docs_per_peer = 60;
    let full = CollectionGenerator::new(GeneratorConfig {
        num_docs: docs_per_peer * 8,
        vocab_size: 4_000,
        avg_doc_len: 50,
        num_topics: 30,
        topic_vocab: 60,
        ..GeneratorConfig::default()
    })
    .generate();
    let mut st_loads = Vec::new();
    for peers in [2usize, 4, 8] {
        let docs = docs_per_peer * peers;
        let collection = full.prefix(docs);
        let partitions = partition_documents(docs, peers, 5);
        let st = SingleTermNetwork::build(&collection, &partitions);
        st_loads.push(st.build_report().avg_stored_per_peer());
    }
    let (min, max) = (
        st_loads.iter().cloned().fold(f64::INFINITY, f64::min),
        st_loads.iter().cloned().fold(0.0, f64::max),
    );
    assert!(
        max / min < 1.35,
        "ST per-peer load should stay ~constant: {st_loads:?}"
    );
}

#[test]
fn hdk_trades_indexing_for_retrieval() {
    // The paper's headline trade-off on one collection: HDK inserts more
    // postings than ST at indexing time but moves fewer at query time.
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: 600,
        vocab_size: 5_000,
        avg_doc_len: 60,
        num_topics: 40,
        topic_vocab: 60,
        ..GeneratorConfig::default()
    })
    .generate();
    let partitions = partition_documents(collection.len(), 4, 23);
    let st = SingleTermNetwork::build(&collection, &partitions);
    let hdk = HdkNetwork::build(
        &collection,
        &partitions,
        HdkConfig {
            dfmax: 20,
            ff: 2_500,
            ..HdkConfig::default()
        },
    );
    let st_report = st.build_report();
    let hdk_report = hdk.build_report();
    assert!(
        hdk_report.avg_inserted_per_peer() > st_report.avg_inserted_per_peer(),
        "HDK indexing must cost more: {} vs {}",
        hdk_report.avg_inserted_per_peer(),
        st_report.avg_inserted_per_peer()
    );

    let central = CentralizedEngine::build(&collection);
    let log = QueryLog::generate_filtered(
        &collection,
        &QueryLogConfig {
            num_queries: 50,
            min_hits: 5,
            ..QueryLogConfig::default()
        },
        |t| central.count_hits(t),
    );
    assert!(log.len() >= 30, "query generation starved: {}", log.len());
    let (mut st_traffic, mut hdk_traffic) = (0u64, 0u64);
    for q in &log.queries {
        st_traffic += st.query(PeerId(0), &q.terms, 20).postings_fetched;
        hdk_traffic += hdk.query(PeerId(0), &q.terms, 20).postings_fetched;
    }
    assert!(
        hdk_traffic < st_traffic,
        "HDK retrieval must be cheaper: {hdk_traffic} vs {st_traffic}"
    );
}

#[test]
fn traffic_accounting_is_complete() {
    // Every metered category is exercised by a build + query cycle, and
    // the per-peer attribution sums to the totals.
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: 200,
        vocab_size: 2_000,
        avg_doc_len: 40,
        num_topics: 20,
        topic_vocab: 40,
        ..GeneratorConfig::default()
    })
    .generate();
    let partitions = partition_documents(collection.len(), 4, 2);
    let network = HdkNetwork::build(
        &collection,
        &partitions,
        HdkConfig {
            dfmax: 10,
            ff: 1_500,
            ..HdkConfig::default()
        },
    );
    let after_build = network.snapshot();
    assert!(after_build.kind(MsgKind::IndexInsert).messages > 0);
    assert!(after_build.kind(MsgKind::IndexNotify).messages > 0);
    assert_eq!(after_build.kind(MsgKind::QueryLookup).messages, 0);

    let q = vec![
        collection.docs()[0].tokens[0],
        collection.docs()[0].tokens[1],
    ];
    let _ = network.query(PeerId(2), &q, 10);
    let after_query = network.snapshot().since(&after_build);
    assert!(after_query.kind(MsgKind::QueryLookup).messages > 0);
    assert_eq!(after_query.kind(MsgKind::IndexInsert).messages, 0);
    // Retrieved postings attributed to the querying peer.
    assert_eq!(
        after_query.retrieved_by_peer.iter().sum::<u64>(),
        after_query.kind(MsgKind::QueryResponse).postings
    );
}
