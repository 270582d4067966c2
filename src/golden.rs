//! The golden-report scenario: a fixed build + query batch whose complete
//! observable output (build report, traffic counters, per-query top-k score
//! bits) is snapshotted in `tests/golden/report.txt`.
//!
//! Storage-layer refactors (e.g. the compressed posting-block rework) must
//! keep every line bit-identical; `cargo run --release --example
//! golden_dump` regenerates the snapshot after a change that is *meant* to
//! alter observable behavior.

use hdk_core::{BackendConfig, HdkConfig, HdkNetwork, OverlayKind};
use hdk_corpus::{
    partition_documents, CollectionGenerator, GeneratorConfig, QueryLog, QueryLogConfig,
};
use hdk_p2p::{MsgKind, PeerId};
use hdk_text::TermId;

/// Builds the fixed golden network (480 docs, 8 peers, `DFmax = 18`) over
/// `collection`, which must come from [`golden_collection`].
pub fn golden_network(collection: &hdk_corpus::Collection) -> HdkNetwork {
    golden_network_with(collection, BackendConfig::InProc)
}

/// [`golden_network`] over an explicit network backend: the scenario's
/// *counts* (and therefore every golden line) are backend-independent —
/// only the latency histograms and the virtual clock differ.
pub fn golden_network_with(
    collection: &hdk_corpus::Collection,
    backend: BackendConfig,
) -> HdkNetwork {
    let parts = partition_documents(collection.len(), 8, 19);
    HdkNetwork::build_with(
        collection,
        &parts,
        HdkConfig {
            dfmax: 18,
            ff: 3_000,
            ..HdkConfig::default()
        },
        OverlayKind::PGrid,
        backend,
    )
}

/// The golden collection (seeded, fully deterministic).
pub fn golden_collection() -> hdk_corpus::Collection {
    CollectionGenerator::new(GeneratorConfig {
        num_docs: 480,
        vocab_size: 3_500,
        avg_doc_len: 55,
        num_topics: 36,
        topic_vocab: 55,
        seed: 97,
        ..GeneratorConfig::default()
    })
    .generate()
}

/// Runs the full scenario and renders every observable quantity as lines.
pub fn golden_report_lines() -> Vec<String> {
    golden_report_lines_with(BackendConfig::InProc)
}

/// [`golden_report_lines`] over an explicit backend. Every line must be
/// identical whatever the backend: the snapshot in
/// `tests/golden/report.txt` pins counts, and counts are the
/// backend-equivalence contract.
pub fn golden_report_lines_with(backend: BackendConfig) -> Vec<String> {
    let c = golden_collection();
    let network = golden_network_with(&c, backend).query_service();
    let mut lines = Vec::new();
    let report = network.build_report();
    lines.push(format!("inserted_by_size: {:?}", report.inserted_by_size));
    lines.push(format!("stored_per_peer: {:?}", report.stored_per_peer));
    lines.push(format!(
        "counts: total_keys={} total_postings={}",
        report.counts.total_keys(),
        report.counts.total_postings()
    ));
    // The snapshot predates the replication subsystem: `MsgKind::Repair`
    // is structurally zero in this no-churn `R = 1` scenario, so the
    // golden file pins the five original categories and stays byte-stable
    // (`golden_report_is_replication_clean` in `tests/golden_report.rs`
    // asserts the exclusion is vacuous).
    for kind in [
        MsgKind::IndexInsert,
        MsgKind::IndexNotify,
        MsgKind::QueryLookup,
        MsgKind::QueryResponse,
        MsgKind::Maintenance,
    ] {
        let k = report.traffic.kind(kind);
        lines.push(format!(
            "traffic {:?}: messages={} postings={} bytes={} hops={}",
            kind, k.messages, k.postings, k.bytes, k.hops
        ));
    }
    let log = QueryLog::generate(
        &c,
        &QueryLogConfig {
            num_queries: 12,
            ..QueryLogConfig::default()
        },
    );
    let batch: Vec<(PeerId, &[TermId])> = log
        .queries
        .iter()
        .map(|q| (PeerId(u64::from(q.id) % 8), q.terms.as_slice()))
        .collect();
    let outcomes = network.query_batch(&batch, 10);
    for (q, out) in log.queries.iter().zip(&outcomes) {
        let digest: Vec<(u32, u64)> = out
            .results
            .iter()
            .map(|r| (r.doc.0, r.score.to_bits()))
            .collect();
        lines.push(format!(
            "query {:?}: lookups={} fetched={} topk={:?}",
            q.terms, out.lookups, out.postings_fetched, digest
        ));
    }
    let retrieval = network.snapshot().kind(MsgKind::QueryResponse);
    lines.push(format!(
        "retrieval totals: messages={} postings={} bytes={}",
        retrieval.messages, retrieval.postings, retrieval.bytes
    ));
    lines
}
