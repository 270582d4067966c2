//! Crash-restart recovery over the tiered segment store.
//!
//! The acceptance contract of the storage tier: a restart recovered from
//! the per-stripe segment logs plus **one** repair sweep reproduces the
//! static build bit for bit — build report, index counts, top-k f64 score
//! bits — and the tiered build itself is indistinguishable from the
//! in-memory default on every one of those axes. Log replay is host-local
//! disk I/O, so none of it shows up in the traffic meters; only the
//! closing repair sweep moves (metered) bytes.

use p2p_hdk::prelude::*;

fn collection(num_docs: usize) -> Collection {
    CollectionGenerator::new(GeneratorConfig {
        num_docs,
        vocab_size: 2_500,
        avg_doc_len: 45,
        num_topics: 25,
        topic_vocab: 50,
        ..GeneratorConfig::default()
    })
    .generate()
}

fn config(replication: usize, store: StoreConfig) -> HdkConfig {
    HdkConfig {
        dfmax: 12,
        ff: u64::MAX, // freeze exclusion differences out of the comparison
        replication,
        store,
        ..HdkConfig::default()
    }
}

fn digest(out: &QueryOutcome) -> Vec<(u32, u64)> {
    out.results
        .iter()
        .map(|r| (r.doc.0, r.score.to_bits()))
        .collect()
}

fn digests(network: &QueryService, log: &QueryLog) -> Vec<Vec<(u32, u64)>> {
    log.queries
        .iter()
        .map(|q| digest(&network.query(PeerId(0), &q.terms, 20)))
        .collect()
}

#[test]
fn synced_segment_store_restarts_all_peers_from_logs_alone() {
    // Graceful path at R = 1: no replica to lean on, the logs must carry
    // everything. Build tiered under a tiny hot budget, compare against
    // the in-memory build bit for bit, sync, restart EVERY peer — log
    // replay alone must reproduce the index, with the closing repair
    // sweep finding nothing to do.
    let c = collection(240);
    let parts = partition_documents(c.len(), 4, 17);
    let log = QueryLog::generate(
        &c,
        &QueryLogConfig {
            num_queries: 30,
            ..QueryLogConfig::default()
        },
    );

    let reference = HdkNetwork::build(&c, &parts, config(1, StoreConfig::Memory)).query_service();
    let (mut indexer, tiered) =
        HdkNetwork::build(&c, &parts, config(1, StoreConfig::segment(1 << 16))).into_services();

    // The tiered build is the in-memory build, bit for bit: report,
    // counts, traffic, top-k score bits. Tiering is host-local.
    assert_eq!(
        format!("{:?}", tiered.build_report()),
        format!("{:?}", reference.build_report())
    );
    assert_eq!(
        tiered.index().index_counts(),
        reference.index().index_counts()
    );
    assert!(tiered.snapshot().same_counts(&reference.snapshot()));
    let expected = digests(&reference, &log);
    assert_eq!(digests(&tiered, &log), expected);

    indexer.sync_storage();
    let peers: Vec<PeerId> = (0..4).map(PeerId).collect();
    let before = tiered.snapshot();
    let (recovery, repair) = indexer.restart_peers(&peers);

    assert!(recovery.frames_replayed > 0, "the logs were empty?");
    assert!(recovery.bytes_replayed > 0);
    assert_eq!(recovery.frames_discarded, 0, "clean logs discard nothing");
    assert_eq!(recovery.copies_lost, 0, "synced logs recover every copy");
    assert_eq!(recovery.keys_lost, 0);
    assert_eq!(repair, RepairStats::default(), "nothing left to repair");

    // Replay is host-local: zero messages of any kind were sent.
    let d = tiered.snapshot().since(&before);
    for kind in MsgKind::ALL {
        assert_eq!(d.kind(kind).messages, 0, "restart metered {kind:?}");
    }

    // And the restarted network still answers bit-identically.
    assert_eq!(
        tiered.index().index_counts(),
        reference.index().index_counts()
    );
    assert_eq!(digests(&tiered, &log), expected);
}

#[test]
fn unsynced_restart_is_a_crash_that_repair_heals_at_r2() {
    // Crash path: restarting one peer without a sync throws its hot
    // copies away. A generous hot budget keeps (nearly) everything
    // unsealed; under a 64 KiB one overflow-sealing has persisted part of
    // the victim's copies, which the replay recovers. At R = 2 the
    // surviving replicas cover every lost entry and the restart's
    // built-in repair sweep restores full redundancy.
    let c = collection(240);
    let parts = partition_documents(c.len(), 6, 11);
    let log = QueryLog::generate(
        &c,
        &QueryLogConfig {
            num_queries: 30,
            ..QueryLogConfig::default()
        },
    );
    let reference = HdkNetwork::build(&c, &parts, config(2, StoreConfig::Memory)).query_service();
    let expected = digests(&reference, &log);

    for hot_bytes in [p2p_hdk::core::DEFAULT_SEGMENT_HOT_BYTES, 1 << 16] {
        let (mut indexer, tiered) =
            HdkNetwork::build(&c, &parts, config(2, StoreConfig::segment(hot_bytes)))
                .into_services();
        let keys_before = tiered.index().index_counts().total_keys();
        let before = tiered.snapshot();
        let (recovery, repair) = indexer.restart_peers(&[PeerId(2)]);

        assert!(
            recovery.copies_lost > 0,
            "hot budget {hot_bytes}: peer 2 held nothing hot?"
        );
        if hot_bytes == 1 << 16 {
            assert!(
                recovery.copies_recovered > 0,
                "a 64 KiB budget sealed none of peer 2's copies"
            );
        }
        assert_eq!(
            recovery.keys_lost, 0,
            "hot budget {hot_bytes}: R=2 must cover every hot copy"
        );
        assert_eq!(
            repair.copies, recovery.copies_lost,
            "hot budget {hot_bytes}: one repaired copy per lost copy"
        );
        // The repair sweep is real, metered traffic; the replay is not.
        let d = tiered.snapshot().since(&before);
        assert_eq!(d.kind(MsgKind::Repair).messages, repair.copies);
        assert_eq!(d.kind(MsgKind::Maintenance).messages, 0);

        assert_eq!(tiered.index().index_counts().total_keys(), keys_before);
        assert_eq!(
            tiered.index().index_counts(),
            reference.index().index_counts(),
            "hot budget {hot_bytes}: index counts diverge after the crash"
        );
        assert_eq!(digests(&tiered, &log), expected, "hot budget {hot_bytes}");
    }
}

#[test]
fn checksums_catch_a_truncated_tail_and_repair_restores_it() {
    // Kill -9 mid-append: clip the tail of one peer's stripe log. The
    // frame checksum detects the damage, recovery discards the tail
    // (truncating the file to the last intact frame) and the repair sweep
    // re-copies whatever the broken log could no longer prove.
    let c = collection(240);
    let parts = partition_documents(c.len(), 4, 23);
    let log = QueryLog::generate(
        &c,
        &QueryLogConfig {
            num_queries: 30,
            ..QueryLogConfig::default()
        },
    );
    let reference = HdkNetwork::build(&c, &parts, config(2, StoreConfig::Memory)).query_service();
    let expected = digests(&reference, &log);

    let dir = tempfile::tempdir().expect("scratch dir");
    let (mut indexer, tiered) = HdkNetwork::build(
        &c,
        &parts,
        config(
            2,
            StoreConfig::Segment {
                dir: Some(dir.path().to_path_buf()),
                hot_bytes: 1 << 15,
            },
        ),
    )
    .into_services();
    indexer.sync_storage();

    // Clip the largest of peer 0's stripe logs mid-frame.
    let peer_dir = dir.path().join("peer-0");
    let victim_log = std::fs::read_dir(&peer_dir)
        .expect("peer 0 wrote segment logs")
        .map(|e| e.expect("dir entry").path())
        .max_by_key(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .expect("peer 0 has at least one stripe log");
    let len = std::fs::metadata(&victim_log).expect("stat").len();
    assert!(len > 3, "picked an empty log");
    std::fs::OpenOptions::new()
        .write(true)
        .open(&victim_log)
        .expect("open log")
        .set_len(len - 3)
        .expect("clip tail");

    let (recovery, repair) = indexer.restart_peers(&[PeerId(0)]);
    assert!(
        recovery.frames_discarded > 0,
        "the clipped frame went unnoticed"
    );
    assert!(recovery.frames_replayed > 0, "intact prefix still replays");
    assert!(
        recovery.copies_lost > 0,
        "the clipped frame held no live copy?"
    );
    assert_eq!(recovery.keys_lost, 0, "the surviving replica covers it");
    assert_eq!(
        repair.copies, recovery.copies_lost,
        "one repaired copy per clipped copy"
    );

    assert_eq!(
        tiered.index().index_counts(),
        reference.index().index_counts()
    );
    assert_eq!(digests(&tiered, &log), expected);

    // Recovery cut the log back to its last intact frame (the repair
    // sweep then appended fresh ones), so a second restart after a sync
    // replays clean logs end to end and loses nothing.
    indexer.sync_storage();
    let (second, second_repair) = indexer.restart_peers(&[PeerId(0)]);
    assert_eq!(second.frames_discarded, 0, "the corrupt tail survived");
    assert_eq!(second.copies_lost, 0);
    assert_eq!(second_repair, RepairStats::default());
    assert_eq!(digests(&tiered, &log), expected);
}

#[test]
fn hot_budget_bounds_residency_and_pushes_the_rest_to_disk() {
    // The point of the tiered store: resident bytes obey the configured
    // budget, the remainder lives as sealed frames on disk, and the split
    // is visible per peer through the storage accounting.
    let c = collection(300);
    let parts = partition_documents(c.len(), 4, 7);
    let hot_bytes = 1 << 16;
    let tiered =
        HdkNetwork::build(&c, &parts, config(1, StoreConfig::segment(hot_bytes))).query_service();

    let resident = tiered.index().resident_posting_bytes();
    let sealed = tiered.index().sealed_segment_bytes();
    assert!(
        resident <= hot_bytes,
        "budget violated: {resident} resident bytes > {hot_bytes}"
    );
    assert!(sealed > 0, "nothing spilled to disk under a 64 KiB budget");

    // Per-peer accounting splits the same totals by tier.
    let per_peer = tiered.index().storage_per_peer();
    assert_eq!(
        per_peer.iter().map(|s| s.resident_bytes()).sum::<u64>(),
        resident
    );
    assert_eq!(per_peer.iter().map(|s| s.sealed_bytes).sum::<u64>(), sealed);

    // The in-memory build keeps everything resident and nothing sealed.
    let memory = HdkNetwork::build(&c, &parts, config(1, StoreConfig::Memory)).query_service();
    assert_eq!(memory.index().sealed_segment_bytes(), 0);
    assert!(memory
        .index()
        .storage_per_peer()
        .iter()
        .all(|s| s.sealed_bytes == 0));
    assert!(memory.index().resident_posting_bytes() >= resident);
}
