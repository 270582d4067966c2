//! The parallel indexing engine must be a pure optimization: thread count
//! changes wall-clock time, never results.
//!
//! The first test flips `RAYON_NUM_THREADS` (which the rayon pool re-reads
//! per fan-out) — process-global state — so every test in this binary
//! serializes on [`ENV_LOCK`] and the flipper restores the variable before
//! releasing it.

use p2p_hdk::prelude::*;
use std::sync::Mutex;

/// Serializes tests that touch (or must not observe changes to)
/// `RAYON_NUM_THREADS`.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn collection(seed: u64) -> Collection {
    CollectionGenerator::new(GeneratorConfig {
        num_docs: 640,
        vocab_size: 4_000,
        avg_doc_len: 50,
        num_topics: 32,
        topic_vocab: 50,
        seed,
        ..GeneratorConfig::default()
    })
    .generate()
}

struct BuildArtifacts {
    report: p2p_hdk::core::BuildReport,
    traffic: TrafficSnapshot,
    topk: Vec<Vec<SearchResult>>,
    fetched: Vec<u64>,
}

/// Builds a 32-peer network and evaluates a query batch, capturing
/// everything the acceptance criteria call out: `BuildReport`, traffic
/// snapshot, and query top-k.
fn build_and_query(c: &Collection) -> BuildArtifacts {
    let partitions = partition_documents(c.len(), 32, 13);
    let network = HdkNetwork::build(
        c,
        &partitions,
        HdkConfig {
            dfmax: 15,
            ff: 3_000,
            ..HdkConfig::default()
        },
    );
    let log = QueryLog::generate(
        c,
        &QueryLogConfig {
            num_queries: 40,
            ..QueryLogConfig::default()
        },
    );
    let batch: Vec<(PeerId, &[TermId])> = log
        .queries
        .iter()
        .map(|q| (PeerId(u64::from(q.id) % 32), q.terms.as_slice()))
        .collect();
    let outcomes = network.query_batch(&batch, 20);
    BuildArtifacts {
        report: network.build_report(),
        traffic: network.snapshot(),
        topk: outcomes.iter().map(|o| o.results.clone()).collect(),
        fetched: outcomes.iter().map(|o| o.postings_fetched).collect(),
    }
}

#[test]
fn one_thread_and_many_threads_are_bit_identical() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let c = collection(2026);
    let prev = std::env::var("RAYON_NUM_THREADS").ok();

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = build_and_query(&c);

    std::env::set_var("RAYON_NUM_THREADS", "8");
    let parallel = build_and_query(&c);

    match prev {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }

    // BuildReport, field by field.
    assert_eq!(serial.report.num_peers, parallel.report.num_peers);
    assert_eq!(serial.report.num_docs, parallel.report.num_docs);
    assert_eq!(serial.report.sample_size, parallel.report.sample_size);
    assert_eq!(serial.report.rounds, parallel.report.rounds);
    assert_eq!(
        serial.report.inserted_by_size,
        parallel.report.inserted_by_size
    );
    assert_eq!(
        serial.report.stored_per_peer,
        parallel.report.stored_per_peer
    );
    assert_eq!(serial.report.counts, parallel.report.counts);
    // Full traffic snapshot: message/posting/byte/hop counters, per-kind
    // and per-peer.
    assert_eq!(serial.traffic, parallel.traffic);
    assert_eq!(serial.report.traffic, parallel.report.traffic);
    // Query top-k: same documents, same scores, same costs.
    assert_eq!(serial.topk, parallel.topk);
    assert_eq!(serial.fetched, parallel.fetched);
}

#[test]
fn churn_interleaved_with_queries_is_thread_invariant() {
    // Peer joins interleaved with (internally parallel) query batches must
    // produce bit-identical reports, traffic and top-k whatever
    // `RAYON_NUM_THREADS` says — the churn-determinism contract from the
    // ROADMAP. Queries run between every join so the lattice walks observe
    // each intermediate index state.
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let c = collection(909);
    let log = QueryLog::generate(
        &c,
        &QueryLogConfig {
            num_queries: 24,
            ..QueryLogConfig::default()
        },
    );
    let run = || {
        let mut network = HdkNetwork::build(
            &c.prefix(400),
            &partition_documents(400, 6, 13),
            HdkConfig {
                dfmax: 14,
                ff: u64::MAX,
                ..HdkConfig::default()
            },
        );
        let mut topk: Vec<Vec<SearchResult>> = Vec::new();
        let mut migrations = Vec::new();
        for (round, join_at) in [(0u64, 400usize), (1, 520), (2, 640)] {
            let ids: Vec<PeerId> = network.peers().iter().map(|p| p.id).collect();
            let batch: Vec<(PeerId, &[TermId])> = log
                .queries
                .iter()
                .map(|q| (ids[q.id as usize % ids.len()], q.terms.as_slice()))
                .collect();
            topk.extend(
                network
                    .query_batch(&batch, 20)
                    .into_iter()
                    .map(|o| o.results),
            );
            if join_at < c.len() {
                let docs: Vec<Document> = (join_at..join_at + 120)
                    .map(|i| c.docs()[i].clone())
                    .collect();
                migrations.push(network.join_peer(PeerId(500 + round), docs));
            }
        }
        (network.build_report(), network.snapshot(), topk, migrations)
    };

    let prev = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = run();
    std::env::remove_var("RAYON_NUM_THREADS"); // default pool size
    let parallel = run();
    if let Some(v) = prev {
        std::env::set_var("RAYON_NUM_THREADS", v);
    }

    assert_eq!(serial.0.inserted_by_size, parallel.0.inserted_by_size);
    assert_eq!(serial.0.stored_per_peer, parallel.0.stored_per_peer);
    assert_eq!(serial.0.counts, parallel.0.counts);
    assert_eq!(serial.0.traffic, parallel.0.traffic);
    assert_eq!(serial.1, parallel.1, "traffic snapshot diverged");
    assert_eq!(serial.2, parallel.2, "query top-k diverged");
    assert_eq!(serial.3, parallel.3, "migration stats diverged");
}

#[test]
fn churn_with_failures_is_thread_invariant() {
    // Churn in BOTH directions interleaved with parallel query batches on
    // a replicated (R=2) network: a join wave, a graceful departure, a
    // crash + repair — every observable (reports, loss/repair stats,
    // traffic counters incl. the Repair category, query top-k) must be
    // bit-identical whatever RAYON_NUM_THREADS says.
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let c = collection(515);
    let log = QueryLog::generate(
        &c,
        &QueryLogConfig {
            num_queries: 20,
            ..QueryLogConfig::default()
        },
    );
    let run = || {
        let mut network = HdkNetwork::build(
            &c.prefix(400),
            &partition_documents(400, 6, 13),
            HdkConfig {
                dfmax: 14,
                ff: u64::MAX,
                replication: 2,
                ..HdkConfig::default()
            },
        );
        let mut topk: Vec<Vec<SearchResult>> = Vec::new();
        let batch_round = |network: &HdkNetwork| {
            let ids: Vec<PeerId> = network.peers().iter().map(|p| p.id).collect();
            let batch: Vec<(PeerId, &[TermId])> = log
                .queries
                .iter()
                .map(|q| (ids[q.id as usize % ids.len()], q.terms.as_slice()))
                .collect();
            network
                .query_batch(&batch, 20)
                .into_iter()
                .map(|o| o.results)
                .collect::<Vec<_>>()
        };
        topk.extend(batch_round(&network));
        // Grow: two peers join with the remaining documents.
        let docs: Vec<Document> = (400..515).map(|i| c.docs()[i].clone()).collect();
        let (a, b) = docs.split_at(60);
        let migrations =
            network.join_peers(vec![(PeerId(700), a.to_vec()), (PeerId(701), b.to_vec())]);
        topk.extend(batch_round(&network));
        // Shrink gracefully, query the degraded-placement network.
        let handovers = network.leave_peers(vec![PeerId(1)]);
        topk.extend(batch_round(&network));
        // Crash + query during degradation + repair + query again.
        let loss = network.fail_peers(vec![PeerId(3)]);
        assert_eq!(loss.keys_lost, 0, "R=2 must survive a single crash");
        topk.extend(batch_round(&network));
        let repair = network.repair();
        assert!(repair.copies > 0);
        topk.extend(batch_round(&network));
        (
            network.build_report(),
            network.snapshot(),
            topk,
            (migrations, handovers, loss, repair),
        )
    };

    let prev = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = run();
    std::env::remove_var("RAYON_NUM_THREADS"); // default pool size
    let parallel = run();
    if let Some(v) = prev {
        std::env::set_var("RAYON_NUM_THREADS", v);
    }

    assert_eq!(serial.0.inserted_by_size, parallel.0.inserted_by_size);
    assert_eq!(serial.0.stored_per_peer, parallel.0.stored_per_peer);
    assert_eq!(serial.0.counts, parallel.0.counts);
    assert_eq!(serial.1, parallel.1, "traffic snapshot diverged");
    assert_eq!(serial.2, parallel.2, "query top-k diverged");
    assert_eq!(serial.3, parallel.3, "churn statistics diverged");
    // Non-vacuity: repair traffic flowed in its own category.
    assert!(serial.1.kind(MsgKind::Repair).messages > 0);
}

#[test]
fn gossip_failure_detection_is_thread_and_backend_invariant() {
    // The gossip membership layer replaces the liveness oracle with
    // per-peer views converged by deterministic SWIM-style rounds. The
    // whole trajectory — probe schedules, suspicion/confirmation
    // transitions, the triggered repair, the failover timeouts queries
    // pay while views are stale, and the round count to convergence —
    // must be bit-identical under RAYON_NUM_THREADS ∈ {1, default} AND
    // across the in-process and simulated-network backends (gossip draws
    // its own probe loss from the config seed, never from the backend's
    // drop model).
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let c = collection(818);
    let log = QueryLog::generate(
        &c,
        &QueryLogConfig {
            num_queries: 48,
            ..QueryLogConfig::default()
        },
    );
    let run = |backend: BackendConfig| {
        let mut network = HdkNetwork::build_with(
            &c.prefix(400),
            &partition_documents(400, 8, 13),
            HdkConfig {
                dfmax: 14,
                ff: u64::MAX,
                replication: 2,
                gossip: GossipConfig {
                    fanout: 2,
                    suspicion_rounds: 2,
                    loss_prob: 0.2,
                    seed: 42,
                },
                ..HdkConfig::default()
            },
            OverlayKind::PGrid,
            backend,
        );
        // Distinct query slices per phase so every phase genuinely runs
        // lookups against the index state of that moment.
        let batch_round = |network: &HdkNetwork, phase: usize| {
            let ids: Vec<PeerId> = network.peers().iter().map(|p| p.id).collect();
            let batch: Vec<(PeerId, &[TermId])> = log.queries[phase * 16..(phase + 1) * 16]
                .iter()
                .map(|q| (ids[q.id as usize % ids.len()], q.terms.as_slice()))
                .collect();
            network
                .query_batch(&batch, 20)
                .into_iter()
                .map(|o| o.results)
                .collect::<Vec<_>>()
        };
        let mut topk = batch_round(&network, 0);
        assert_eq!(network.snapshot().failover_timeouts, 0);

        // One peer crashes. Nobody calls repair: detection, confirmation
        // and the repair trigger all have to come from gossip.
        let loss = network.fail_peers(vec![PeerId(3)]);
        assert_eq!(loss.keys_lost, 0, "R=2 must survive a single crash");
        topk.extend(batch_round(&network, 1));
        let timeouts_during = network.snapshot().failover_timeouts;
        assert!(
            timeouts_during > 0,
            "queries during the detection window must pay timeouts"
        );

        let mut outcomes = Vec::new();
        let mut triggered = None;
        while network.gossip_converged() != Some(true) {
            assert!(outcomes.len() < 64, "gossip failed to converge");
            let out = network.gossip_round();
            if let Some(r) = out.repair {
                triggered = Some(r);
            }
            outcomes.push(out);
        }
        let repair = triggered.expect("universal confirmation must trigger the repair sweep");
        assert!(repair.copies > 0, "triggered repair moved nothing");

        // Converged views route around the corpse for free.
        topk.extend(batch_round(&network, 2));
        assert_eq!(
            network.snapshot().failover_timeouts,
            timeouts_during,
            "post-convergence queries must pay zero failover timeouts"
        );
        (topk, outcomes, network.snapshot())
    };

    let prev = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = run(BackendConfig::InProc);
    std::env::remove_var("RAYON_NUM_THREADS"); // default pool size
    let parallel = run(BackendConfig::InProc);
    let sim = SimNetConfig {
        seed: 7,
        hop_ns: 200_000,
        jitter_ns: 80_000,
        ns_per_byte: 8,
        drop_prob: 0.1,
        timeout_ns: 2_000_000,
    };
    let simnet = run(BackendConfig::SimNet(sim));
    if let Some(v) = prev {
        std::env::set_var("RAYON_NUM_THREADS", v);
    }

    // Thread invariance: the full snapshot (counters AND per-kind
    // histograms) plus every gossip outcome, bit for bit.
    assert_eq!(serial.0, parallel.0, "query top-k diverged across threads");
    assert_eq!(
        serial.1, parallel.1,
        "gossip outcomes diverged across threads"
    );
    assert_eq!(serial.2, parallel.2, "snapshot diverged across threads");
    // Backend invariance: identical results, view trajectories and
    // traffic counts — SimNet only adds time.
    assert_eq!(serial.0, simnet.0, "query top-k diverged across backends");
    assert_eq!(
        serial.1, simnet.1,
        "gossip outcomes diverged across backends"
    );
    assert!(
        serial.2.same_counts(&simnet.2),
        "traffic counts diverged across backends"
    );
    // And SimNet timed every gossip message it counted.
    let g = simnet.2.kind(MsgKind::Gossip);
    assert!(g.messages > 0, "no gossip traffic flowed");
    assert_eq!(
        simnet.2.latency(MsgKind::Gossip).samples,
        g.messages,
        "SimNet must time every gossip message"
    );
}

#[test]
fn long_queries_with_deep_lattice_are_thread_invariant() {
    // The intra-query parallel fan-out (plan/execute pipeline): long
    // queries (>= 6 distinct terms) at the deepest legal smax produce wide
    // multi-level lattices, so each level's probe batch genuinely fans out
    // over the pool. Outcomes — top-k score bits, lookup counts, postings
    // fetched, per-level profiles and the traffic meters — must be
    // bit-identical under RAYON_NUM_THREADS ∈ {1, default}.
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let c = collection(31337);
    // Long queries sampled from document prefixes: 6-8 distinct terms that
    // genuinely co-occur, so the walk reaches deep lattice levels instead
    // of dying at absent singles (same sampler as `bench_query`, so the
    // fan-out this test guards is the shape the bench measures).
    let queries: Vec<Vec<TermId>> = (0..24).map(|i| c.long_query(i * 23, 6 + i % 3)).collect();
    let run = || {
        let network = HdkNetwork::build(
            &c,
            &partition_documents(c.len(), 16, 5),
            HdkConfig {
                dfmax: 12,
                smax: 4, // deepest legal lattice (MAX_KEY_SIZE)
                ff: u64::MAX,
                ..HdkConfig::default()
            },
        );
        let mut outcomes = Vec::new();
        let mut profiles = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let (out, profile) = network.query_profiled(PeerId(i as u64 % 16), q, 20);
            assert!(
                u64::from(out.lookups) <= network.max_lookups(q.len()),
                "lookups exceed the lattice bound"
            );
            outcomes.push((
                out.results
                    .iter()
                    .map(|r| (r.doc, r.score.to_bits()))
                    .collect::<Vec<_>>(),
                out.lookups,
                out.postings_fetched,
            ));
            profiles.push(profile);
        }
        (outcomes, profiles, network.snapshot())
    };

    let prev = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = run();
    std::env::remove_var("RAYON_NUM_THREADS"); // default pool size
    let parallel = run();
    if let Some(v) = prev {
        std::env::set_var("RAYON_NUM_THREADS", v);
    }

    // At least one query must actually exercise a deep multi-level walk,
    // otherwise this test is vacuous.
    assert!(
        serial.1.iter().any(|p| p.levels.len() >= 3),
        "no query reached level 3 — lattice too shallow to test fan-out"
    );
    assert!(
        serial.1.iter().any(|p| p.fanout_at(2) >= 8),
        "level-2 fan-out never widened beyond 8 probes"
    );
    assert_eq!(serial.0, parallel.0, "query outcomes diverged (score bits)");
    assert_eq!(serial.1, parallel.1, "per-level profiles diverged");
    assert_eq!(serial.2, parallel.2, "traffic snapshot diverged");
}

#[test]
fn skewed_batch_reads_with_spread_and_promotion_are_thread_invariant() {
    // The read-scaling path: a Zipf-skewed replay batch at R=3 exercises
    // the replica load spread (each probe's serving holder is picked by
    // `hash(query_id, key)`, where the query id salts on *batch position*
    // — a pure input attribute, never a scheduling artifact), then a
    // hot-key rebalance pass promotes the stream's head keys from the
    // deterministic hit-counter snapshot, then the identical batch runs
    // again over the widened replica sets. Everything observable — top-k
    // score bits, promotion stats, traffic counters including the
    // HotReplicate category and the per-peer served-lookup loads — must
    // be bit-identical under RAYON_NUM_THREADS ∈ {1, default}.
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let c = collection(1212);
    let log = QueryLog::generate(
        &c,
        &QueryLogConfig {
            num_queries: 30,
            ..QueryLogConfig::default()
        },
    );
    // The corpus crate's shared Zipf sampler: a seeded, heavily skewed
    // replay schedule, so identical queries repeat at many batch
    // positions (each repeat salting a different replica pick).
    let replay = log.zipf_replay(1.2, 160, 77);
    let run = || {
        let network = HdkNetwork::build(
            &c,
            &partition_documents(c.len(), 16, 13),
            HdkConfig {
                dfmax: 15,
                ff: 3_000,
                replication: 3,
                hot_threshold: 6,
                hot_extra: 2,
                ..HdkConfig::default()
            },
        );
        let (mut indexer, queries) = network.into_services();
        let batch: Vec<(PeerId, &[TermId])> = replay
            .iter()
            .enumerate()
            .map(|(pos, &qi)| (PeerId(pos as u64 % 16), log.queries[qi].terms.as_slice()))
            .collect();
        let mut topk: Vec<Vec<SearchResult>> = queries
            .query_batch(&batch, 20)
            .into_iter()
            .map(|o| o.results)
            .collect();
        let stats = indexer.rebalance_hot();
        topk.extend(
            queries
                .query_batch(&batch, 20)
                .into_iter()
                .map(|o| o.results),
        );
        (topk, stats, queries.snapshot())
    };

    let prev = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = run();
    std::env::remove_var("RAYON_NUM_THREADS"); // default pool size
    let parallel = run();
    if let Some(v) = prev {
        std::env::set_var("RAYON_NUM_THREADS", v);
    }

    assert_eq!(serial.0, parallel.0, "query top-k diverged");
    assert_eq!(serial.1, parallel.1, "promotion stats diverged");
    assert_eq!(serial.2, parallel.2, "traffic snapshot diverged");
    // Non-vacuity: the skewed stream promoted hot keys, copies moved in
    // the HotReplicate category, and the serve load genuinely spread —
    // several peers shared each hot key's reads.
    assert!(serial.1.promoted > 0, "no keys crossed the hot threshold");
    assert!(serial.2.kind(MsgKind::HotReplicate).messages > 0);
    assert!(
        serial.2.served_by_peer.iter().filter(|&&s| s > 0).count() >= 8,
        "served load concentrated on too few peers"
    );
}

#[test]
fn simnet_query_batch_is_thread_invariant() {
    // The simulated network models time from per-message attributes only —
    // never from scheduling — so a SimNet build + parallel query batch must
    // be bit-identical under RAYON_NUM_THREADS ∈ {1, default}: outcomes,
    // traffic counts, *and* the full latency histograms (samples, totals,
    // maxima, buckets, retries) plus the virtual clock.
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let c = collection(777);
    let sim = SimNetConfig {
        seed: 99,
        hop_ns: 300_000,
        jitter_ns: 100_000,
        ns_per_byte: 10,
        drop_prob: 0.1,
        timeout_ns: 2_000_000,
    };
    let run = || {
        let network = HdkNetwork::build_with(
            &c,
            &partition_documents(c.len(), 16, 13),
            HdkConfig {
                dfmax: 15,
                ff: 3_000,
                ..HdkConfig::default()
            },
            OverlayKind::PGrid,
            BackendConfig::SimNet(sim),
        );
        let log = QueryLog::generate(
            &c,
            &QueryLogConfig {
                num_queries: 40,
                ..QueryLogConfig::default()
            },
        );
        let batch: Vec<(PeerId, &[TermId])> = log
            .queries
            .iter()
            .map(|q| (PeerId(u64::from(q.id) % 16), q.terms.as_slice()))
            .collect();
        let queries = network.query_service();
        let outcomes: Vec<(Vec<SearchResult>, u32, u64)> = queries
            .query_batch(&batch, 20)
            .into_iter()
            .map(|o| (o.results, o.lookups, o.postings_fetched))
            .collect();
        (outcomes, queries.snapshot(), queries.virtual_time_ns())
    };

    let prev = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = run();
    std::env::remove_var("RAYON_NUM_THREADS"); // default pool size
    let parallel = run();
    if let Some(v) = prev {
        std::env::set_var("RAYON_NUM_THREADS", v);
    }

    assert_eq!(serial.0, parallel.0, "query outcomes diverged");
    // Full snapshot equality covers counts AND every latency histogram.
    assert_eq!(serial.1, parallel.1, "traffic/latency snapshot diverged");
    assert_eq!(serial.2, parallel.2, "virtual clock diverged");
    // Non-vacuity: the simulated network actually took time and lost
    // packets.
    let h = serial.1.latency(MsgKind::QueryResponse);
    assert!(h.samples > 0 && h.total_ns > 0);
    assert!(
        serial.1.latency(MsgKind::IndexInsert).retries > 0,
        "10% drop over thousands of inserts must retransmit at least once"
    );
    assert!(serial.2 > 0);
}

#[test]
fn incremental_additions_are_deterministic_run_to_run() {
    // Regression test for the nondeterministic `add_documents` dispatch:
    // grouped additions used to hop through a HashMap, so per-peer insert
    // order (and with it traffic attribution) varied run to run.
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let c = collection(4711);
    let build = || {
        let partitions = partition_documents(500, 6, 3);
        let prefix = c.prefix(500);
        let mut network = HdkNetwork::build(
            &prefix,
            &partitions,
            HdkConfig {
                dfmax: 12,
                ff: u64::MAX,
                ..HdkConfig::default()
            },
        );
        // Late documents arrive interleaved over peers in "arrival" order —
        // deliberately not grouped, exercising the dispatch path.
        let additions: Vec<(PeerId, Document)> = (500..c.len())
            .map(|i| {
                let doc = c.doc(DocId(i as u32)).clone();
                (PeerId((i as u64 * 7 + 3) % 6), doc)
            })
            .collect();
        network.add_documents(additions);
        network
    };
    let a = build();
    let b = build();
    assert_eq!(a.build_report().counts, b.build_report().counts);
    assert_eq!(
        a.build_report().stored_per_peer,
        b.build_report().stored_per_peer
    );
    // The strong property: *traffic* (including per-peer attribution and
    // message counts) is identical, not just the final index.
    assert_eq!(a.snapshot(), b.snapshot());
}
