//! Property test: churn in both directions converges.
//!
//! Any interleaving of `join_peers` (growth), `leave_peers` (graceful
//! departure), `fail_peers` + repair (crash recovery), `restart_peers`
//! (in-place restart: hot state lost, segment logs replayed, one repair),
//! skewed read bursts (which feed the popularity counters) and
//! `rebalance_hot` passes (which promote hot keys to extra replicas and
//! demote cooled ones) over a live `R = 2` network must end bit-identical
//! — index content, query top-k score bits — to a static build over the
//! surviving corpus (which, since graceful leavers hand everything over
//! and single crashes/restarts between repairs destroy no content at
//! `R = 2`, is the full corpus every wave contributed). Both backends run
//! the identical churn program and must agree with each other on every
//! traffic *count* as well — including `MsgKind::Repair`, which pins the
//! deterministic hash-spread choice of each repair copy's source replica,
//! and `MsgKind::HotReplicate`, which pins the promotion pass: if source
//! selection, replica picks or counter snapshots depended on scheduling
//! or backend internals, the per-peer counts would diverge here.

use hdk_core::{BackendConfig, HdkConfig, HdkNetwork, IndexService, OverlayKind, QueryService};
use hdk_corpus::{Collection, DocId, Document};
use hdk_p2p::{MsgKind, PeerId, SimNetConfig};
use hdk_text::{TermId, Vocabulary};
use proptest::prelude::*;

const VOCAB: u32 = 14;

fn make_collection(token_docs: &[Vec<u32>]) -> Collection {
    let mut vocab = Vocabulary::new();
    for t in 0..VOCAB {
        vocab.intern(&format!("term{t:02}"));
    }
    let docs = token_docs
        .iter()
        .enumerate()
        .map(|(i, toks)| Document {
            id: DocId(i as u32),
            tokens: toks.iter().map(|&t| TermId(t)).collect(),
        })
        .collect();
    Collection::new(docs, vocab)
}

fn arb_docs() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0..VOCAB, 3..20), 18..36)
}

/// One churn step, decoded against the current network state.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A join wave of 1–2 fresh peers, each bringing a chunk of documents.
    Join(u8),
    /// One live peer leaves gracefully.
    Leave(u8),
    /// One live peer crashes; the repair sweep runs right after.
    FailRepair(u8),
    /// One live peer restarts in place: hot state gone, segment log
    /// replayed (a plain crash on the in-memory store), one repair.
    Restart(u8),
    /// A skewed read burst: one single-term query repeated as a batch, so
    /// its keys' popularity counters climb toward the promotion threshold
    /// (and the batch salts exercise the replica-spread pick).
    HotRead(u8),
    /// The popularity-driven replication pass: promote keys over the
    /// threshold to extra replicas, demote cooled ones, halve counters.
    Rebalance,
}

/// Ops travel as `(kind, argument)` bytes (the vendored proptest shim has
/// no `prop_oneof`); [`decode`] maps them onto [`Op`]s.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..6, 0u8..8), 2..6)
}

fn decode(raw: &[(u8, u8)]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, arg)| match kind {
            0 => Op::Join(1 + arg % 2),
            1 => Op::Leave(arg),
            2 => Op::FailRepair(arg),
            3 => Op::Restart(arg),
            4 => Op::HotRead(arg),
            _ => Op::Rebalance,
        })
        .collect()
}

/// Applies the churn program. Returns the number of documents indexed.
/// Departure ops are skipped while fewer than 3 peers are live, so the
/// network never empties and an `R = 2` single crash never loses content.
fn run_program(
    indexer: &mut IndexService,
    query: &QueryService,
    collection: &Collection,
    ops: &[Op],
    chunk: usize,
    mut next_doc: usize,
) -> Result<usize, TestCaseError> {
    let mut live: Vec<PeerId> = indexer.peers().iter().map(|p| p.id).collect();
    let mut next_peer = 100u64;
    for &op in ops {
        match op {
            Op::Join(n) => {
                let mut joins = Vec::new();
                for _ in 0..n {
                    let hi = (next_doc + chunk).min(collection.len());
                    let docs: Vec<Document> = (next_doc..hi)
                        .map(|i| collection.docs()[i].clone())
                        .collect();
                    next_doc = hi;
                    joins.push((PeerId(next_peer), docs));
                    live.push(PeerId(next_peer));
                    next_peer += 1;
                }
                indexer.join_peers(joins);
            }
            Op::Leave(pick) => {
                if live.len() < 3 {
                    continue;
                }
                let victim = live.remove(pick as usize % live.len());
                let stats = indexer.leave_peers(vec![victim]);
                prop_assert_eq!(stats.len(), 1);
            }
            Op::FailRepair(pick) => {
                if live.len() < 3 {
                    continue;
                }
                let victim = live.remove(pick as usize % live.len());
                let loss = indexer.fail_peers(vec![victim]);
                prop_assert_eq!(
                    loss.keys_lost,
                    0,
                    "R=2 single crash between repairs lost content"
                );
                indexer.repair();
            }
            Op::Restart(pick) => {
                if live.len() < 2 {
                    continue;
                }
                // The victim stays live: it restarts *in place*. Repair
                // first so every entry is back at full replication before
                // the restart throws the victim's hot copies away —
                // otherwise an unlucky Restart right after another loss
                // could destroy the last copy.
                indexer.repair();
                let victim = live[pick as usize % live.len()];
                indexer.restart_peers(&[victim]);
            }
            Op::HotRead(pick) => {
                // A batch of identical queries from one live peer: the
                // batch salts rotate the replica pick while the repeated
                // key hits climb the popularity counter.
                let from = live[pick as usize % live.len()];
                let terms = vec![TermId(u32::from(pick) % VOCAB)];
                let burst = vec![(from, terms); 4];
                query.query_batch(&burst, 5);
            }
            Op::Rebalance => {
                indexer.rebalance_hot();
            }
        }
    }
    Ok(next_doc)
}

/// One query's digest: `(per-doc (id, score bits), lookups, postings)`.
type QueryDigest = (Vec<(u32, u64)>, u32, u64);

fn digest_queries(service: &QueryService, from: PeerId, queries: &[Vec<u32>]) -> Vec<QueryDigest> {
    queries
        .iter()
        .map(|q| {
            let terms: Vec<TermId> = q.iter().map(|&t| TermId(t)).collect();
            let out = service.query(from, &terms, 10);
            (
                out.results
                    .iter()
                    .map(|r| (r.doc.0, r.score.to_bits()))
                    .collect(),
                out.lookups,
                out.postings_fetched,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn churn_program_converges_to_static_build_on_both_backends(
        token_docs in arb_docs(),
        raw_ops in arb_ops(),
        queries in prop::collection::vec(prop::collection::vec(0..VOCAB, 1..6), 1..8),
        dfmax in 1u32..5,
    ) {
        let collection = make_collection(&token_docs);
        let config = HdkConfig {
            dfmax,
            smax: 3,
            window: 5,
            ff: u64::MAX,
            exact_intrinsic: false,
            redundancy_filtering: true,
            replication: 2,
            // Low threshold so the HotRead bursts actually promote keys
            // and interleaved churn must keep the extended replica sets.
            hot_threshold: 2,
            hot_extra: 1,
            store: hdk_core::StoreConfig::from_env(),
            codec: hdk_core::Codec::Leb128,
            gossip: hdk_p2p::GossipConfig::default(),
        };
        let ops = decode(&raw_ops);
        let boot = collection.len() / 3;
        let chunk = ((collection.len() - boot) / 6).max(1);

        let mut indexed = 0usize;
        let mut digests = Vec::new();
        let mut counts = Vec::new();
        let mut snapshots = Vec::new();
        for backend in [
            BackendConfig::InProc,
            BackendConfig::SimNet(SimNetConfig {
                seed: 5,
                hop_ns: 100_000,
                jitter_ns: 30_000,
                ns_per_byte: 6,
                drop_prob: 0.1,
                timeout_ns: 1_000_000,
            }),
        ] {
            let network = HdkNetwork::build_with(
                &collection.prefix(boot),
                &hdk_corpus::partition_documents(boot, 3, 23),
                config.clone(),
                OverlayKind::PGrid,
                backend,
            );
            let (mut indexer, query) = network.into_services();
            indexed = run_program(&mut indexer, &query, &collection, &ops, chunk, boot)?;
            let from = indexer.peers()[0].id;
            digests.push(digest_queries(&query, from, &queries));
            counts.push(query.index().index_counts());
            snapshots.push(query.snapshot());
        }

        // The two backends ran the identical churn program: identical
        // content, identical query outcomes, identical traffic counts
        // (repair and maintenance included — time is the only difference).
        prop_assert_eq!(&digests[0], &digests[1], "backends diverged under churn");
        prop_assert_eq!(counts[0], counts[1]);
        prop_assert!(
            snapshots[0].same_counts(&snapshots[1]),
            "churn traffic counts diverged across backends"
        );
        for kind in MsgKind::ALL {
            prop_assert_eq!(
                snapshots[1].latency(kind).samples,
                snapshots[1].kind(kind).messages,
                "SimNet must time every {:?} message",
                kind
            );
        }

        // And the churned network matches a static build of the surviving
        // corpus (== everything indexed: leaves hand over, single crashes
        // at R=2 lose nothing) — content and top-k score bits, placement
        // and peer population be damned.
        let reference = HdkNetwork::build(
            &collection.prefix(indexed),
            &hdk_corpus::partition_documents(indexed, 4, 7),
            config.clone(),
        );
        prop_assert_eq!(counts[0], reference.index().index_counts());
        let expected = digest_queries(&reference.query_service(), PeerId(0), &queries);
        let live_results: Vec<Vec<(u32, u64)>> =
            digests[0].iter().map(|(r, _, _)| r.clone()).collect();
        let want_results: Vec<Vec<(u32, u64)>> =
            expected.iter().map(|(r, _, _)| r.clone()).collect();
        prop_assert_eq!(live_results, want_results, "churned network != static build");
    }

    /// Gossip-enabled churn: any interleaving of joins, graceful leaves,
    /// crashes and background gossip rounds must (a) converge every live
    /// view to ground truth within a bounded number of rounds after each
    /// crash — with the repair sweep fired by universal confirmation, not
    /// by an operator — (b) never falsely confirm a live peer dead under
    /// loss-free probing, and (c) replay bit-identically on the simulated
    /// network backend: same per-round gossip reports, same triggered
    /// repair stats, same query digests, same traffic counts. Probe loss
    /// is drawn from the gossip seed, never from the backend, so the
    /// lossy leg must agree across backends too.
    #[test]
    fn gossip_churn_program_converges_on_both_backends(
        token_docs in arb_docs(),
        raw_ops in arb_ops(),
        queries in prop::collection::vec(prop::collection::vec(0..VOCAB, 1..6), 1..8),
        lossy in 0u8..2,
    ) {
        let collection = make_collection(&token_docs);
        let config = HdkConfig {
            dfmax: 4,
            smax: 3,
            window: 5,
            ff: u64::MAX,
            exact_intrinsic: false,
            redundancy_filtering: true,
            replication: 2,
            hot_threshold: 0,
            hot_extra: 1,
            store: hdk_core::StoreConfig::from_env(),
            codec: hdk_core::Codec::Leb128,
            gossip: hdk_p2p::GossipConfig {
                fanout: 2,
                suspicion_rounds: 2,
                loss_prob: if lossy == 1 { 0.2 } else { 0.0 },
                seed: 7,
            },
        };
        let boot = collection.len() / 3;
        let chunk = ((collection.len() - boot) / 6).max(1);
        // Convergence budget per crash: the suspicion window plus
        // dissemination; generous because lossy probes retry.
        const ROUND_CAP: usize = 48;

        let mut digests = Vec::new();
        let mut counts = Vec::new();
        let mut snapshots = Vec::new();
        let mut trajectories = Vec::new();
        for backend in [
            BackendConfig::InProc,
            BackendConfig::SimNet(SimNetConfig {
                seed: 11,
                hop_ns: 100_000,
                jitter_ns: 30_000,
                ns_per_byte: 6,
                drop_prob: 0.1,
                timeout_ns: 1_000_000,
            }),
        ] {
            let network = HdkNetwork::build_with(
                &collection.prefix(boot),
                &hdk_corpus::partition_documents(boot, 4, 23),
                config.clone(),
                OverlayKind::PGrid,
                backend,
            );
            let (mut indexer, query) = network.into_services();
            let mut live: Vec<PeerId> = indexer.peers().iter().map(|p| p.id).collect();
            let mut next_peer = 100u64;
            let mut next_doc = boot;
            let mut trajectory = Vec::new();
            for &(kind, arg) in &raw_ops {
                match kind % 4 {
                    0 => {
                        // A join wave; gossip views gain the joiners at
                        // once (joins are announced, not detected).
                        let mut joins = Vec::new();
                        for _ in 0..(1 + arg % 2) {
                            let hi = (next_doc + chunk).min(collection.len());
                            let docs: Vec<Document> = (next_doc..hi)
                                .map(|i| collection.docs()[i].clone())
                                .collect();
                            next_doc = hi;
                            joins.push((PeerId(next_peer), docs));
                            live.push(PeerId(next_peer));
                            next_peer += 1;
                        }
                        indexer.join_peers(joins);
                    }
                    1 => {
                        // Graceful leave: goodbye is broadcast, views
                        // update without any probing.
                        if live.len() < 3 {
                            continue;
                        }
                        let victim = live.remove(arg as usize % live.len());
                        indexer.leave_peers(vec![victim]);
                    }
                    2 => {
                        // A crash. Nobody calls repair: gossip must
                        // detect it, confirm it everywhere within the
                        // round budget, and fire the repair itself.
                        if live.len() < 3 {
                            continue;
                        }
                        let victim = live.remove(arg as usize % live.len());
                        let loss = indexer.fail_peers(vec![victim]);
                        prop_assert_eq!(loss.keys_lost, 0, "R=2 crash lost content");
                        let mut rounds = 0usize;
                        while indexer.gossip_converged() != Some(true) {
                            prop_assert!(
                                rounds < ROUND_CAP,
                                "views failed to converge within {} rounds",
                                ROUND_CAP
                            );
                            trajectory.push(indexer.gossip_round());
                            rounds += 1;
                            if lossy == 0 {
                                prop_assert!(
                                    indexer.gossip_false_positives().unwrap().is_empty(),
                                    "loss-free probing falsely killed a live peer"
                                );
                            }
                        }
                        prop_assert!(
                            trajectory.iter().any(|o| o.repair.is_some()),
                            "universal confirmation never fired the repair sweep"
                        );
                    }
                    _ => {
                        // Background gossip: steady-state rounds between
                        // membership events must be cheap no-ops on the
                        // views (and still bit-identical across backends).
                        for _ in 0..(1 + arg % 3) {
                            trajectory.push(indexer.gossip_round());
                        }
                    }
                }
            }
            // Converged views never hold a false positive, lossy or not.
            if indexer.gossip_converged() == Some(true) {
                prop_assert!(indexer.gossip_false_positives().unwrap().is_empty());
            }
            let from = indexer.peers()[0].id;
            digests.push(digest_queries(&query, from, &queries));
            counts.push(query.index().index_counts());
            snapshots.push(query.snapshot());
            trajectories.push(trajectory);
        }

        prop_assert_eq!(
            &trajectories[0], &trajectories[1],
            "gossip trajectories diverged across backends"
        );
        prop_assert_eq!(&digests[0], &digests[1], "backends diverged under gossip churn");
        prop_assert_eq!(counts[0], counts[1]);
        prop_assert!(
            snapshots[0].same_counts(&snapshots[1]),
            "gossip churn traffic counts diverged across backends"
        );
        // SimNet timed every gossip message it counted.
        prop_assert_eq!(
            snapshots[1].latency(MsgKind::Gossip).samples,
            snapshots[1].kind(MsgKind::Gossip).messages
        );
    }
}
