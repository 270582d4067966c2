//! Peer-departure churn: the other half of the growth story. Graceful
//! departures hand their index copies over and lose nothing at any
//! replication factor; crashes destroy copies — fatal for solely-held
//! entries at `R = 1`, repairable from surviving replicas at `R ≥ 2` —
//! and the acceptance contract is that with `R = 2`, failing any single
//! peer loses no indexed content: post-repair queries return bit-identical
//! top-k (f64 score bits) to a never-failed network.

use p2p_hdk::prelude::*;

fn config(replication: usize) -> HdkConfig {
    HdkConfig {
        dfmax: 12,
        ff: u64::MAX, // freeze exclusion differences out of the comparison
        replication,
        ..HdkConfig::default()
    }
}

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

fn digest(out: &QueryOutcome) -> Vec<(u32, u64)> {
    out.results
        .iter()
        .map(|r| (r.doc.0, r.score.to_bits()))
        .collect()
}

#[test]
fn failing_any_single_peer_at_r2_loses_no_content() {
    // The acceptance criterion, quantified over EVERY possible victim:
    // build the same 6-peer R=2 network, fail one peer, repair, and
    // compare every query's top-k score bits against the never-failed
    // build.
    let c = collection(240);
    let parts = partition_documents(c.len(), 6, 17);
    let reference = HdkNetwork::build(&c, &parts, config(2));
    let log = QueryLog::generate(
        &c,
        &QueryLogConfig {
            num_queries: 30,
            ..QueryLogConfig::default()
        },
    );
    let expected: Vec<Vec<(u32, u64)>> = log
        .queries
        .iter()
        .map(|q| digest(&reference.query(PeerId(0), &q.terms, 20)))
        .collect();

    for victim in 0..6u64 {
        let mut live = HdkNetwork::build(&c, &parts, config(2));
        let keys_before = live.index().index_counts().total_keys();
        let loss = live.fail_peers(vec![PeerId(victim)]);
        assert_eq!(loss.keys_lost, 0, "R=2 lost keys when peer{victim} died");
        assert!(loss.keys_degraded > 0, "peer{victim} held no replicas?");

        // Degradation window: content is already fully served via
        // failover, before any repair runs.
        let survivor = PeerId((victim + 1) % 6);
        for (q, want) in log.queries.iter().zip(&expected) {
            let got = live.query(survivor, &q.terms, 20);
            assert_eq!(
                &digest(&got),
                want,
                "degraded query diverged: {:?}",
                q.terms
            );
        }

        // Repair restores full redundancy with metered Repair traffic.
        let before = live.snapshot();
        let repair = live.repair();
        assert_eq!(repair.copies, loss.keys_degraded);
        assert!(repair.postings > 0 && repair.bytes > 0);
        let d = live.snapshot().since(&before);
        assert_eq!(d.kind(MsgKind::Repair).messages, repair.copies);
        assert_eq!(d.kind(MsgKind::Repair).postings, repair.postings);

        // Post-repair: bit-identical top-k to the never-failed network,
        // and the index content is intact.
        assert_eq!(live.index().index_counts().total_keys(), keys_before);
        for (q, want) in log.queries.iter().zip(&expected) {
            let got = live.query(survivor, &q.terms, 20);
            assert_eq!(
                &digest(&got),
                want,
                "post-repair query diverged: {:?}",
                q.terms
            );
        }

        // A second repair is a no-op, and the network now survives the
        // next single crash too.
        assert_eq!(live.repair(), RepairStats::default());
        let second = live.fail_peers(vec![PeerId((victim + 2) % 6)]);
        assert_eq!(second.keys_lost, 0, "redundancy was not fully restored");
    }
}

#[test]
fn graceful_leave_mirrors_join_and_preserves_content_at_r1() {
    // Even without replication, a graceful departure loses nothing: the
    // handover wave re-homes every copy. The shrunken network must answer
    // every query bit-identically to a static build of the same corpus.
    let c = collection(300);
    let reference = HdkNetwork::build(&c, &partition_documents(c.len(), 3, 7), config(1));
    let mut live = HdkNetwork::build(&c, &partition_documents(c.len(), 6, 31), config(1));
    let before = live.snapshot();
    let stats = live.leave_peers(vec![PeerId(1), PeerId(4)]);
    assert_eq!(stats.len(), 2);
    assert!(
        stats.iter().all(|s| s.keys_moved > 0),
        "each leaver hands over its fraction"
    );
    // The handover is maintenance traffic: one aggregate message per
    // leaver, nothing metered as indexing or retrieval.
    let d = live.snapshot().since(&before);
    assert_eq!(d.kind(MsgKind::Maintenance).messages, 2);
    assert_eq!(
        d.kind(MsgKind::Maintenance).postings,
        stats.iter().map(|s| s.postings_moved).sum::<u64>()
    );
    assert_eq!(d.kind(MsgKind::IndexInsert).messages, 0);

    // Index content identical to the static build (placement differs).
    assert_eq!(
        live.index().index_counts(),
        reference.index().index_counts()
    );
    let log = QueryLog::generate(
        &c,
        &QueryLogConfig {
            num_queries: 30,
            ..QueryLogConfig::default()
        },
    );
    for q in &log.queries {
        let a = live.query(PeerId(0), &q.terms, 20);
        let b = reference.query(PeerId(0), &q.terms, 20);
        assert_eq!(a.results, b.results, "diverged for {:?}", q.terms);
    }
}

#[test]
fn r1_crash_loses_content_and_repair_cannot_resurrect_it() {
    // The negative control: without replication a crash is fatal for the
    // victim's fraction — the damage report says so, lookups miss, and
    // repair (which copies from survivors) has nothing to copy from.
    let c = collection(200);
    let mut live = HdkNetwork::build(&c, &partition_documents(c.len(), 4, 11), config(1));
    let keys_before = live.index().index_counts().total_keys();
    let loss = live.fail_peers(vec![PeerId(2)]);
    assert!(loss.keys_lost > 0, "the victim held part of the index");
    assert_eq!(loss.keys_degraded, 0, "R=1 has no degraded survivors");
    assert_eq!(
        live.index().index_counts().total_keys() + loss.keys_lost,
        keys_before
    );
    assert_eq!(live.repair(), RepairStats::default(), "nothing to repair");
    assert_eq!(
        live.index().index_counts().total_keys() + loss.keys_lost,
        keys_before,
        "repair resurrected lost entries?"
    );
}

#[test]
fn departed_network_keeps_growing_correctly() {
    // Churn in both directions around one live network: grow, shrink
    // gracefully, crash + repair, grow again — final content must match a
    // static build over the full corpus (the collection is an input; churn
    // changes who hosts and serves, not what is indexed).
    let c = collection(360);
    let reference = HdkNetwork::build(&c, &partition_documents(c.len(), 5, 3), config(2));

    let mut live = HdkNetwork::build(&c.prefix(180), &partition_documents(180, 4, 13), config(2));
    // Grow: two peers join with the next 120 documents.
    let docs =
        |lo: usize, hi: usize| -> Vec<Document> { (lo..hi).map(|i| c.docs()[i].clone()).collect() };
    live.join_peers(vec![
        (PeerId(100), docs(180, 240)),
        (PeerId(101), docs(240, 300)),
    ]);
    // Shrink: one founder leaves gracefully.
    live.leave_peers(vec![PeerId(0)]);
    // Crash another founder, then repair.
    let loss = live.fail_peers(vec![PeerId(2)]);
    assert_eq!(loss.keys_lost, 0, "R=2 must survive the single crash");
    assert!(live.repair().copies > 0);
    // Grow again: the last 60 documents arrive at a fresh peer.
    live.join_peers(vec![(PeerId(102), docs(300, 360))]);

    assert_eq!(live.num_docs(), reference.num_docs());
    assert_eq!(
        live.index().index_counts(),
        reference.index().index_counts()
    );
    let log = QueryLog::generate(
        &c,
        &QueryLogConfig {
            num_queries: 30,
            ..QueryLogConfig::default()
        },
    );
    for q in &log.queries {
        let a = live.query(PeerId(101), &q.terms, 20);
        let b = reference.query(PeerId(0), &q.terms, 20);
        assert_eq!(a.results, b.results, "diverged for {:?}", q.terms);
        assert_eq!(a.postings_fetched, b.postings_fetched);
    }
}

#[test]
fn simnet_times_failover_and_repair() {
    // Over the simulated network: dead-peer failover costs timeouts (and
    // retransmitted bytes), repair traffic is timed in its own category,
    // and none of it changes the logical counts' cross-backend story.
    let c = collection(200);
    let sim = SimNetConfig {
        seed: 77,
        hop_ns: 200_000,
        jitter_ns: 50_000,
        ns_per_byte: 4,
        drop_prob: 0.0,
        timeout_ns: 10_000_000,
    };
    let parts = partition_documents(c.len(), 5, 9);
    let mut live = HdkNetwork::build_with(
        &c,
        &parts,
        config(2),
        OverlayKind::PGrid,
        BackendConfig::SimNet(sim),
    );
    let loss = live.fail_peers(vec![PeerId(1)]);
    assert_eq!(loss.keys_lost, 0);

    // Degraded queries: failover to the dead primary's successor charges
    // the retransmission timeout.
    let log = QueryLog::generate(
        &c,
        &QueryLogConfig {
            num_queries: 20,
            ..QueryLogConfig::default()
        },
    );
    let before = live.snapshot();
    for q in &log.queries {
        let _ = live.query(PeerId(0), &q.terms, 20);
    }
    let during = live.snapshot().since(&before);
    let lookups = during.latency(MsgKind::QueryLookup);
    assert!(lookups.samples > 0);
    assert!(
        lookups.retries > 0,
        "no lookup ever hit the dead primary first?"
    );
    assert!(
        lookups.retransmission_bytes > 0,
        "timed-out attempts re-transmit their payload"
    );
    assert!(
        lookups.max_ns >= sim.timeout_ns,
        "a dead-peer timeout must dominate at least one lookup"
    );

    // Repair is timed under its own kind, one sample per copy.
    let before = live.snapshot();
    let stats = live.repair();
    assert!(stats.copies > 0);
    let d = live.snapshot().since(&before);
    let h = d.latency(MsgKind::Repair);
    assert_eq!(h.samples, stats.copies);
    assert!(h.total_ns > 0);
}
