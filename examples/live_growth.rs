//! Live network churn in both directions: peers join a running network
//! bringing their own documents — the paper's scaling model ("the natural
//! P2P solution for processing document collections that reach
//! unmanageable sizes is to increase the number of available peers") —
//! and then leave or crash without losing the indexed content, thanks to
//! graceful handover waves and the replica/repair subsystem.
//!
//! Each join (1) splits a region of the key space for the new peer and
//! migrates the affected index fraction (maintenance traffic, the
//! `Join` control message), then (2) indexes the new documents incrementally:
//! previously indexed documents are only re-examined for keys that newly
//! became non-discriminative. The resulting index is bit-identical to a
//! from-scratch build (see `tests/churn_growth.rs`). The final two peers
//! arrive as one bulk `join_peers` wave, sharing a single incremental
//! session. Growth runs on the `IndexService` handle; the probe queries
//! only touch the `QueryService`.
//!
//! ```text
//! cargo run --release --example live_growth
//! ```

use p2p_hdk::prelude::*;

fn main() {
    let docs_per_peer = 250;
    let total_peers = 8;
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: docs_per_peer * total_peers,
        vocab_size: 12_000,
        avg_doc_len: 70,
        ..GeneratorConfig::default()
    })
    .generate();

    // Bootstrap: 2 peers with the first 2 * 250 documents, then split the
    // system into its service handles — churn drives the write path while
    // the probe queries only ever touch the (thread-shareable) read path.
    let boot_docs = docs_per_peer * 2;
    let (mut indexer, queries) = HdkNetwork::build(
        &collection.prefix(boot_docs),
        &partition_documents(boot_docs, 2, 1),
        HdkConfig {
            dfmax: 25,
            ff: u64::MAX,
            ..HdkConfig::default()
        },
    )
    .into_services();
    println!(
        "{:>5} {:>6}  {:>10} {:>12} {:>12} {:>14}",
        "peers", "docs", "keys", "stored/peer", "moved_keys", "retr/query"
    );

    let probe = QueryLog::generate(
        &collection,
        &QueryLogConfig {
            num_queries: 40,
            ..QueryLogConfig::default()
        },
    );
    let report_line = |queries: &QueryService, moved: u64| {
        let r = queries.build_report();
        let mut fetched = 0u64;
        for q in &probe.queries {
            fetched += queries.query(PeerId(1), &q.terms, 20).postings_fetched;
        }
        println!(
            "{:>5} {:>6}  {:>10} {:>12.0} {:>12} {:>14.1}",
            r.num_peers,
            r.num_docs,
            r.counts.total_keys(),
            r.avg_stored_per_peer(),
            moved,
            fetched as f64 / probe.len() as f64,
        );
    };
    report_line(&queries, 0);

    // Four more peers join one at a time, each contributing 250 documents.
    for j in 2..total_peers - 2 {
        let lo = j * docs_per_peer;
        let docs: Vec<Document> = (lo..lo + docs_per_peer)
            .map(|i| collection.docs()[i].clone())
            .collect();
        let migration = indexer
            .join_peers(vec![(PeerId(100 + j as u64), docs)])
            .remove(0);
        report_line(&queries, migration.keys_moved);
    }

    // The last two arrive together: one bulk `join_peers` call admits both
    // and indexes their documents in a single shared session — the
    // re-announce sweep is amortized across the wave.
    let wave: Vec<(PeerId, Vec<Document>)> = (total_peers - 2..total_peers)
        .map(|j| {
            let lo = j * docs_per_peer;
            let docs: Vec<Document> = (lo..lo + docs_per_peer)
                .map(|i| collection.docs()[i].clone())
                .collect();
            (PeerId(100 + j as u64), docs)
        })
        .collect();
    let migrations = indexer.join_peers(wave);
    report_line(
        &queries,
        migrations.iter().map(|m| m.keys_moved).sum::<u64>(),
    );

    // Churn runs the other way too. One founder retires gracefully — its
    // held copies hand over as one maintenance wave, nothing is lost even
    // at the default R = 1.
    let handover = indexer.leave_peers(vec![PeerId(0)]);
    report_line(&queries, handover[0].keys_moved);

    let snap = queries.snapshot();
    println!(
        "\ntotals: {} postings inserted (indexing), {} moved by joins+leaves (maintenance), \
         {} fetched by the {} probe queries run at each step",
        snap.indexing_postings(),
        snap.kind(MsgKind::Maintenance).postings,
        snap.retrieval_postings(),
        probe.len(),
    );
    println!(
        "per-query traffic stays bounded while the collection quadruples — \
         the paper's Figure 6 effect, live"
    );
    println!(
        "peer0 retired gracefully: {} key copies handed over, every query above kept answering \
         (run `cargo run -p hdk-bench --release -- availability` for the crash/repair study)",
        handover[0].keys_moved,
    );
}
