//! Durable restart over the tiered segment store: build a network whose
//! DHT stripes spill past a small memory budget into per-stripe segment
//! logs on disk, flush, restart every peer from those logs, and show the
//! recovered index answering bit-identically — then crash one peer
//! *without* flushing and watch the repair sweep close the gap the log
//! could not cover.
//!
//! The tiered store is selected per build via
//! `HdkConfig { store: StoreConfig::Segment { .. } }` (or for a whole
//! test run via `HDK_STORE=segment:<hot bytes>`); the default remains the
//! all-in-memory map. Tiering is host-local, so a tiered build produces
//! the same reports, traffic counters and f64 score bits as the
//! in-memory one.
//!
//! ```text
//! cargo run --release --example durable_restart
//! ```

use p2p_hdk::prelude::*;

fn main() {
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: 1_200,
        vocab_size: 12_000,
        avg_doc_len: 70,
        ..GeneratorConfig::default()
    })
    .generate();
    let peers = 6;
    let parts = partition_documents(collection.len(), peers, 11);
    let hot_bytes: u64 = 1 << 16; // 64 KiB of hot postings across 128 stripes

    // R = 2 + tiered storage: replicas survive crashes, segments survive
    // restarts. `dir: None` uses a scratch directory wiped on drop; point
    // it at a real path to keep the logs across process lifetimes.
    let config = HdkConfig {
        dfmax: 25,
        ff: u64::MAX,
        replication: 2,
        store: StoreConfig::Segment {
            dir: None,
            hot_bytes,
        },
        ..HdkConfig::default()
    };
    let mut network = HdkNetwork::build(&collection, &parts, config);

    let probe = QueryLog::generate(
        &collection,
        &QueryLogConfig {
            num_queries: 40,
            ..QueryLogConfig::default()
        },
    );
    let digest = |network: &HdkNetwork| -> Vec<Vec<u64>> {
        probe
            .queries
            .iter()
            .map(|q| {
                network
                    .query(PeerId(1), &q.terms, 20)
                    .results
                    .iter()
                    .map(|r| r.score.to_bits())
                    .collect()
            })
            .collect()
    };
    let before = digest(&network);
    println!(
        "built: {} keys, {} B resident (budget {hot_bytes} B), {} B sealed on disk",
        network.index().index_counts().total_keys(),
        network.index().resident_posting_bytes(),
        network.index().sealed_segment_bytes(),
    );

    // Crash: no sync — one peer's hot (unsealed) copies evaporate. The
    // log replay recovers its sealed frames; the repair sweep restores
    // the hot remainder from the R = 2 replicas. Crash the peer with the
    // most hot bytes so the gap is visible.
    let per_peer = network.index().storage_per_peer();
    let victim_idx = (0..per_peer.len())
        .max_by_key(|&i| per_peer[i].resident_bytes())
        .expect("network has peers");
    let victim = network.peers()[victim_idx].id;
    let (recovery, repair) = network.restart_peers(&[victim]);
    println!(
        "crash-restart of {victim:?} without sync: {} sealed copies recovered, \
         {} hot copies lost, {} repaired from replicas",
        recovery.copies_recovered, recovery.copies_lost, repair.copies,
    );
    assert_eq!(recovery.keys_lost, 0, "R = 2 covers every hot copy");
    assert_eq!(repair.copies, recovery.copies_lost);
    assert_eq!(
        digest(&network),
        before,
        "repaired index must answer identically"
    );

    // Graceful shutdown: seal every hot entry, then restart ALL peers at
    // once. Log replay alone rebuilds the index; the closing repair
    // sweep has nothing to do.
    network.sync_storage();
    let everyone: Vec<PeerId> = network.peers().iter().map(|p| p.id).collect();
    let (recovery, repair) = network.restart_peers(&everyone);
    println!(
        "graceful restart of all {peers} peers: {} frames / {} B replayed, \
         {} copies lost, {} repaired",
        recovery.frames_replayed, recovery.bytes_replayed, recovery.copies_lost, repair.copies,
    );
    assert_eq!(recovery.copies_lost, 0);
    assert_eq!(repair.copies, 0);
    assert_eq!(
        digest(&network),
        before,
        "recovered index must answer identically"
    );

    println!(
        "top-{} score bits identical across both recoveries for all {} probe queries",
        20,
        probe.len(),
    );
}
