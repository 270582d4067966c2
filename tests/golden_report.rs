//! Behavior-preservation golden test for the compressed-posting storage
//! refactor, plus the memory-footprint acceptance bound.
//!
//! The snapshot in `tests/golden/report.txt` was produced by the
//! *pre-refactor* implementation (decoded `Vec<Posting>` storage, side
//! re-encoding for byte meters). The storage rework — and every later
//! refactor, including the typed RPC layer — must reproduce every line:
//! `BuildReport` fields, full traffic counters including payload bytes,
//! and per-query top-k down to the f64 score bits. A second test replays
//! the identical scenario over the simulated-network backend: the counted
//! lines must not move, while the latency histograms fill up.

use p2p_hdk::golden::{
    golden_collection, golden_network, golden_network_with, golden_report_lines,
    golden_report_lines_with,
};
use p2p_hdk::prelude::*;

#[test]
fn report_matches_pre_refactor_snapshot() {
    let expected: Vec<&str> = include_str!("golden/report.txt").lines().collect();
    let actual = golden_report_lines();
    assert_eq!(
        actual.len(),
        expected.len(),
        "line count diverged from golden snapshot"
    );
    for (i, (a, e)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(a, e, "golden line {} diverged", i + 1);
    }
}

#[test]
fn simnet_backend_reproduces_golden_counts_with_nonzero_latency() {
    // The same golden scenario over SimNet with a realistically slow,
    // jittery network: every *counted* line must still match the
    // snapshot bit for bit (messages, postings, bytes, hops, top-k score
    // bits), because the simulated network only adds time.
    let sim = SimNetConfig {
        seed: 2_026,
        hop_ns: 400_000,
        jitter_ns: 150_000,
        ns_per_byte: 8,
        drop_prob: 0.05,
        timeout_ns: 5_000_000,
    };
    let expected: Vec<&str> = include_str!("golden/report.txt").lines().collect();
    let actual = golden_report_lines_with(BackendConfig::SimNet(sim));
    assert_eq!(actual.len(), expected.len());
    for (i, (a, e)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(a, e, "golden line {} diverged on SimNet", i + 1);
    }

    // And the time side: nonzero per-kind latency histograms wherever the
    // scenario moved messages, plus an advancing virtual clock.
    let network = golden_network_with(&golden_collection(), BackendConfig::SimNet(sim));
    let queries = network.query_service();
    let _ = queries.query_batch(
        &(0..8u64)
            .map(|p| (PeerId(p), vec![hdk_text::TermId(10), hdk_text::TermId(11)]))
            .collect::<Vec<_>>(),
        10,
    );
    let snap = queries.snapshot();
    for kind in [
        MsgKind::IndexInsert,
        MsgKind::IndexNotify,
        MsgKind::QueryLookup,
        MsgKind::QueryResponse,
    ] {
        let histogram = snap.latency(kind);
        assert_eq!(
            histogram.samples,
            snap.kind(kind).messages,
            "one latency sample per {kind:?} message"
        );
        assert!(histogram.samples > 0, "{kind:?} never travelled");
        assert!(histogram.total_ns > 0, "{kind:?} latencies all zero");
        assert!(
            histogram.max_ns >= sim.hop_ns,
            "{kind:?} slowest delivery below one hop"
        );
        assert!(histogram.quantile_ns(0.99) >= histogram.mean_ns() as u64);
    }
    assert!(
        queries.virtual_time_ns() > 0,
        "virtual clock must have advanced"
    );

    // The in-process build of the same scenario records no time at all.
    let baseline = golden_network(&golden_collection()).query_service();
    let plain = baseline.snapshot();
    for kind in MsgKind::ALL {
        assert!(plain.latency(kind).is_empty());
    }
}

#[test]
fn golden_scenario_is_pinned_to_the_legacy_codec() {
    // The snapshot's byte meters count the delta + LEB128 layout: every
    // resident block of the golden network must be exactly that encoding
    // of its own postings.
    let network = golden_network(&golden_collection()).query_service();
    let mut blocks = 0u64;
    network.index().for_each_entry(|entry| {
        assert_eq!(
            entry.postings.as_bytes(),
            p2p_hdk::ir::CompressedPostings::from_list(&entry.postings.decode()).as_bytes(),
            "golden block is not the LEB128 layout"
        );
        blocks += 1;
    });
    assert!(blocks > 0, "golden network stored no keys");
}

#[test]
fn golden_report_is_replication_clean() {
    // The golden snapshot excludes the Repair and HotReplicate categories
    // (it predates the replication and read-scaling subsystems); this
    // guards that the exclusion is vacuous — an R=1 build without churn
    // never produces repair traffic, and with popularity replication off
    // (the default `hot_threshold: 0`) no hot copies ever move — so the
    // golden file keeps pinning *all* nonzero counters.
    let network = golden_network(&golden_collection()).query_service();
    let repair = network.snapshot().kind(MsgKind::Repair);
    assert_eq!(repair.messages, 0);
    assert_eq!(repair.postings, 0);
    assert_eq!(repair.bytes, 0);
    let hot = network.snapshot().kind(MsgKind::HotReplicate);
    assert_eq!(hot.messages, 0);
    assert_eq!(hot.postings, 0);
    assert_eq!(hot.bytes, 0);
    // Gossip defaults off (`GossipConfig::fanout == 0`): no membership
    // probes, no failover timeouts — liveness stays on the oracle and
    // the golden scenario's meters are untouched by the subsystem.
    let gossip = network.snapshot().kind(MsgKind::Gossip);
    assert_eq!(gossip.messages, 0);
    assert_eq!(gossip.postings, 0);
    assert_eq!(gossip.bytes, 0);
    assert_eq!(network.snapshot().failover_timeouts, 0);
}

#[test]
fn resident_storage_beats_decoded_baseline_3x() {
    let network = golden_network(&golden_collection()).query_service();
    let storage = network.index().storage_per_peer();
    assert_eq!(storage.len(), 8);
    let mut resident = 0u64;
    let mut baseline = 0u64;
    for (peer, s) in storage.iter().enumerate() {
        assert!(s.postings > 0, "peer {peer} stores nothing");
        assert!(
            s.resident_bytes() * 3 <= s.decoded_baseline_bytes(),
            "peer {peer}: resident {} bytes vs decoded baseline {} — ratio below 3x",
            s.resident_bytes(),
            s.decoded_baseline_bytes()
        );
        resident += s.resident_bytes();
        baseline += s.decoded_baseline_bytes();
    }
    let ratio = baseline as f64 / resident as f64;
    assert!(ratio >= 3.0, "aggregate improvement {ratio:.2}x < 3x");
    // The DHT-level accounting hook agrees with the per-peer sweep.
    assert_eq!(network.index().resident_posting_bytes(), resident);
    // Stored posting counts are unchanged by the accounting path.
    let per_peer: u64 = network.index().stored_postings_per_peer().iter().sum();
    let counted: u64 = storage.iter().map(|s| s.postings).sum();
    assert_eq!(per_peer, counted);
}
