//! Restart-recovery study: kill peers' in-memory state, recover from the
//! per-stripe segment logs plus one repair sweep, and verify the result is
//! bit-identical to a never-restarted build.
//!
//! Two scenarios per sweep point (first `DFmax` value only):
//!
//! * **graceful** — tiered build under a 64 KiB hot budget, `sync`, then
//!   *every* peer restarts at once: log replay alone must reproduce the
//!   index (R = 1, no replica to lean on) and the closing repair sweep
//!   must find nothing to do.
//! * **crash** — R = 2 tiered build, no sync, one peer restarts: its hot
//!   copies are gone, the replay recovers what overflow-sealing had
//!   persisted, and the repair sweep restores the rest from replicas.
//!
//! Every scenario asserts convergence internally (index counts and top-k
//! f64 score bits against an in-memory reference build); the emitted
//! table reports the recovery volumes. CI's bench-smoke job runs
//! `--peers 4 --docs-per-peer 150 --queries 30` as a regression gate.

use hdk_bench::{ExperimentProfile, Table};
use hdk_core::{HdkConfig, HdkNetwork, StoreConfig};
use hdk_corpus::{partition_documents, Collection, CollectionGenerator, QueryLog};
use hdk_p2p::PeerId;

const HOT_BYTES: u64 = 1 << 16;

fn digests(network: &HdkNetwork, log: &QueryLog) -> Vec<Vec<(u32, u64)>> {
    log.queries
        .iter()
        .map(|q| {
            network
                .query(PeerId(0), &q.terms, 20)
                .results
                .iter()
                .map(|r| (r.doc.0, r.score.to_bits()))
                .collect()
        })
        .collect()
}

fn reference(c: &Collection, parts: &[Vec<hdk_corpus::DocId>], config: &HdkConfig) -> HdkNetwork {
    let config = HdkConfig {
        store: StoreConfig::Memory,
        ..config.clone()
    };
    HdkNetwork::build(c, parts, config)
}

fn main() {
    let profile = ExperimentProfile::from_args();
    let dfmax = profile.dfmax_values[0];
    let full = CollectionGenerator::new(profile.generator_config(profile.max_docs())).generate();
    let mut table = Table::new(
        "restart_study",
        &[
            "peers",
            "scenario",
            "frames",
            "replayed_B",
            "discarded",
            "lost_copies",
            "repaired",
            "sealed_B",
        ],
    );

    for &peers in &profile.peers_sweep {
        let docs = peers * profile.docs_per_peer;
        let c = full.prefix(docs);
        let parts = partition_documents(docs, peers, profile.seed ^ peers as u64);
        let log = QueryLog::generate(&c, &profile.querylog_config());

        // Graceful: sync, restart everyone, recover from logs alone.
        let config = HdkConfig {
            store: StoreConfig::segment(HOT_BYTES),
            ..profile.hdk_config(dfmax)
        };
        let baseline = reference(&c, &parts, &config);
        let expected = digests(&baseline, &log);
        let mut tiered = HdkNetwork::build(&c, &parts, config.clone());
        assert!(
            tiered.index().resident_posting_bytes() <= HOT_BYTES,
            "memory budget violated before restart"
        );
        tiered.sync_storage();
        let everyone: Vec<PeerId> = tiered.peers().iter().map(|p| p.id).collect();
        let (recovery, repair) = tiered.restart_peers(&everyone);
        assert_eq!(recovery.copies_lost, 0, "synced logs recover every copy");
        assert_eq!(repair.copies, 0, "graceful recovery left a gap");
        assert_eq!(
            tiered.index().index_counts(),
            baseline.index().index_counts()
        );
        assert_eq!(
            digests(&tiered, &log),
            expected,
            "graceful restart diverged"
        );
        table.row(&[
            peers.to_string(),
            "graceful".to_string(),
            recovery.frames_replayed.to_string(),
            recovery.bytes_replayed.to_string(),
            recovery.frames_discarded.to_string(),
            recovery.copies_lost.to_string(),
            repair.copies.to_string(),
            tiered.index().sealed_segment_bytes().to_string(),
        ]);

        // Crash: R = 2, no sync — one peer loses its hot state and the
        // repair sweep restores it from the surviving replicas.
        let config = HdkConfig {
            replication: 2,
            store: StoreConfig::segment(HOT_BYTES),
            ..profile.hdk_config(dfmax)
        };
        let baseline = reference(&c, &parts, &config);
        let expected = digests(&baseline, &log);
        let mut tiered = HdkNetwork::build(&c, &parts, config);
        let victim = tiered.peers()[0].id;
        let (recovery, repair) = tiered.restart_peers(&[victim]);
        assert_eq!(recovery.keys_lost, 0, "R=2 crash-restart lost content");
        assert_eq!(
            repair.copies, recovery.copies_lost,
            "one repaired copy per lost copy"
        );
        assert_eq!(
            tiered.index().index_counts(),
            baseline.index().index_counts()
        );
        assert_eq!(digests(&tiered, &log), expected, "crash restart diverged");
        table.row(&[
            peers.to_string(),
            "crash".to_string(),
            recovery.frames_replayed.to_string(),
            recovery.bytes_replayed.to_string(),
            recovery.frames_discarded.to_string(),
            recovery.copies_lost.to_string(),
            repair.copies.to_string(),
            tiered.index().sealed_segment_bytes().to_string(),
        ]);
        eprintln!(
            "[restart_study] peers={peers} docs={docs} dfmax={dfmax}: both scenarios bit-identical"
        );
    }
    table.emit();
}
