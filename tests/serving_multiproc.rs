//! End-to-end test of the serving tier: real peer *processes* on
//! loopback sockets, compared bit-for-bit against the in-process build.
//!
//! One test function (the peer fleet and the `HDK_NET_TIMEOUT_MS`
//! override are process-global, so the scenario runs as one sequence):
//!
//! 1. spawn 3 `hdk-peer` processes, build the same corpus through
//!    `BackendConfig::Tcp` and `BackendConfig::InProc`;
//! 2. assert the index counts, per-peer storage, top-k f64 *score bits*
//!    and traffic counts (`TrafficSnapshot::same_counts`) are identical;
//! 3. drive the HTTP front-end over the TCP-backed service: `/health`,
//!    `/query` (results match the direct call), `/metrics` nonzero,
//!    `/health` still ok after the queries;
//! 4. kill one peer process mid-stream and assert queries surface
//!    bounded errors — degraded results plus a ticking transport-error
//!    counter — rather than hanging;
//! 5. spawn a fresh fleet with gossip membership enabled, crash one
//!    *logical* peer, and assert the fleet detects, confirms and
//!    repairs it via `Control::Gossip` frames bit-identically to
//!    the in-process build — with failover timeouts ticking only while
//!    the views are stale.

use hdk_core::{spawn_http, BackendConfig, HdkConfig, HdkNetwork, OverlayKind, QueryService};
use hdk_corpus::{partition_documents, Collection, CollectionGenerator, GeneratorConfig};
use hdk_p2p::{GossipConfig, PeerId};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const NPROCS: usize = 3;
const PEERS: usize = 8;
const DFMAX: u32 = 12;
const DOCS: usize = 240;

/// Kills the peer fleet even when an assertion panics.
struct Fleet(Vec<Child>);

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns one `hdk-peer` process on an ephemeral port and reads the
/// `LISTEN <addr>` line it prints once bound.
fn spawn_peer(proc_index: usize, replication: usize) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hdk-peer"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--nprocs",
            &NPROCS.to_string(),
            "--proc",
            &proc_index.to_string(),
            "--peers",
            &PEERS.to_string(),
            "--dfmax",
            &DFMAX.to_string(),
            "--replication",
            &replication.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn hdk-peer");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read LISTEN line");
    let addr = line
        .trim()
        .strip_prefix("LISTEN ")
        .unwrap_or_else(|| panic!("unexpected peer banner {line:?}"))
        .to_string();
    (child, addr)
}

fn corpus() -> Collection {
    CollectionGenerator::new(GeneratorConfig {
        num_docs: DOCS,
        vocab_size: 3_000,
        seed: 7,
        ..GeneratorConfig::default()
    })
    .generate()
}

fn build(collection: &Collection, backend: BackendConfig) -> HdkNetwork {
    let partitions = partition_documents(collection.len(), PEERS, 42);
    let config = HdkConfig {
        dfmax: DFMAX,
        ..HdkConfig::default()
    };
    HdkNetwork::build_with(collection, &partitions, config, OverlayKind::PGrid, backend)
}

/// A minimal HTTP/1.1 GET, returning `(status, body)`.
fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect HTTP front-end");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The value of one series of a `/metrics` body.
fn metric(metrics: &str, series: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no series {series} in {metrics}"))
}

fn query_target(terms: &[hdk_text::TermId], k: usize) -> String {
    let q: Vec<String> = terms.iter().map(|t| t.0.to_string()).collect();
    format!("/query?q={}&k={k}", q.join(","))
}

fn queries(collection: &Collection) -> Vec<Vec<hdk_text::TermId>> {
    (0..24)
        .map(|i| collection.long_query(i * 37, 3 + i % 3))
        .collect()
}

fn assert_outcomes_identical(tcp: &QueryService, inproc: &QueryService, collection: &Collection) {
    for (i, terms) in queries(collection).iter().enumerate() {
        let from = PeerId((i % PEERS) as u64);
        let remote = tcp.query(from, terms, 10);
        let local = inproc.query(from, terms, 10);
        assert_eq!(remote.lookups, local.lookups, "query {i}: lookups differ");
        assert_eq!(
            remote.postings_fetched, local.postings_fetched,
            "query {i}: postings differ"
        );
        assert_eq!(
            remote.results.len(),
            local.results.len(),
            "query {i}: result count differs"
        );
        for (r, l) in remote.results.iter().zip(&local.results) {
            assert_eq!(r.doc, l.doc, "query {i}: doc order differs");
            assert_eq!(
                r.score.to_bits(),
                l.score.to_bits(),
                "query {i}: score bits differ for doc {:?}",
                r.doc
            );
        }
    }
}

#[test]
fn multiproc_serving_matches_inproc_and_fails_bounded() {
    // Bounded timeouts so the kill-one-peer phase fails fast (read at
    // TcpNet::connect time, hence set before any build).
    std::env::set_var("HDK_NET_TIMEOUT_MS", "2000");

    let mut fleet = Fleet(Vec::new());
    let mut addrs = Vec::new();
    for i in 0..NPROCS {
        let (child, addr) = spawn_peer(i, 1);
        fleet.0.push(child);
        addrs.push(addr);
    }

    let collection = corpus();
    let tcp_net = build(
        &collection,
        BackendConfig::Tcp {
            addrs: addrs.clone(),
        },
    );
    let inproc_net = build(&collection, BackendConfig::InProc);
    let tcp = tcp_net.query_service();
    let inproc = inproc_net.query_service();

    // --- Phase 2: the multi-process build is bit-identical. ---
    let tcp_counts = tcp.index().index_counts();
    let inproc_counts = inproc.index().index_counts();
    assert_eq!(tcp_counts, inproc_counts, "index counts diverge");
    assert!(
        tcp_counts.total_keys() > 0,
        "trivial corpus: nothing indexed"
    );
    assert_eq!(
        tcp.index().stored_postings_per_peer(),
        inproc.index().stored_postings_per_peer(),
        "per-peer stored postings diverge"
    );
    assert_outcomes_identical(&tcp, &inproc, &collection);
    // Traffic counts (messages, postings, bytes, per-peer tallies) sum
    // across the stripe-disjoint processes to exactly the single-process
    // meters; only latency histograms (wall-clock vs none) may differ.
    let tcp_snapshot = tcp.snapshot();
    assert!(
        tcp_snapshot.same_counts(&inproc.snapshot()),
        "traffic counts diverge:\n tcp: {:?}\n inproc: {:?}",
        tcp_snapshot.kinds,
        inproc.snapshot().kinds
    );
    assert_eq!(
        tcp.transport_errors(),
        0,
        "healthy run must not tick errors"
    );

    // --- Phase 3: the HTTP front-end over the TCP-backed service. ---
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = spawn_http(listener, tcp.clone()).expect("spawn http");
    let http_addr = handle.addr();

    let (status, health) = http_get(http_addr, "/health");
    assert_eq!(status, 200, "health: {health}");
    assert!(health.contains("\"status\":\"ok\""), "health: {health}");
    assert!(
        health.contains(&format!("\"peers\":{PEERS}")),
        "health: {health}"
    );

    // `/query` runs through the front-end's key cache: the first ask
    // fetches, the repeat is answered from the cache — no lookup message
    // leaves the front-end — and both carry the uncached call's score
    // bits, in the exact Display form of every score.
    let terms = queries(&collection)[0].clone();
    let direct = inproc.query(PeerId(0), &terms, 5);
    let lookups = "hdk_traffic_messages_total{kind=\"query_lookup\"}";
    let mut seen = Vec::new();
    for ask in 0..2 {
        let (status, body) = http_get(http_addr, &query_target(&terms, 5));
        assert_eq!(status, 200, "query: {body}");
        let results: Vec<String> = direct
            .results
            .iter()
            .map(|r| format!("{{\"doc\":{},\"score\":{}}}", r.doc.0, r.score))
            .collect();
        let fragment = format!("\"results\":[{}]", results.join(","));
        assert!(body.contains(&fragment), "missing {fragment} in {body}");
        let fetched = if ask == 0 { direct.lookups } else { 0 };
        assert!(body.contains(&format!("\"lookups\":{fetched},")), "{body}");
        let (status, metrics) = http_get(http_addr, "/metrics");
        assert_eq!(status, 200);
        seen.push((
            metric(&metrics, "hdk_cache_hits_total"),
            metric(&metrics, "hdk_cache_misses_total"),
            metric(&metrics, "hdk_cache_entries"),
            metric(&metrics, "hdk_cache_evictions_total"),
            metric(&metrics, lookups),
        ));
    }
    let planned = u64::from(direct.lookups);
    let sent = seen[0].4;
    assert_eq!(seen[0], (0, planned, planned, 0, sent));
    assert_eq!(seen[1], (planned, planned, planned, 0, sent));

    let (_, metrics) = http_get(http_addr, "/metrics");
    assert!(
        !metrics.contains("hdk_traffic_messages_total{kind=\"index_insert\"} 0\n"),
        "insert counter must be nonzero after a build"
    );
    assert!(metrics.contains("hdk_http_requests_total{route=\"query\"} 2"));
    let (status, health) = http_get(http_addr, "/health");
    assert_eq!(status, 200, "health after the queries: {health}");
    assert!(health.contains("\"status\":\"ok\""), "health: {health}");

    let (status, _) = http_get(http_addr, "/nope");
    assert_eq!(status, 404);
    let (status, body) = http_get(http_addr, "/query?q=abc");
    assert_eq!(status, 400, "bad q must be a 400: {body}");

    // --- Phase 4: kill one peer process; errors, not hangs. ---
    fleet.0[1].kill().expect("kill peer 1");
    fleet.0[1].wait().expect("reap peer 1");
    let errors_before = tcp.transport_errors();
    let started = Instant::now();
    let mut degraded = 0usize;
    for (i, terms) in queries(&collection).iter().enumerate() {
        let outcome = tcp.query(PeerId((i % PEERS) as u64), terms, 10);
        let reference = inproc.query(PeerId((i % PEERS) as u64), terms, 10);
        if outcome.results.len() != reference.results.len()
            || outcome
                .results
                .iter()
                .zip(&reference.results)
                .any(|(a, b)| a.doc != b.doc)
        {
            degraded += 1;
        }
    }
    let elapsed = started.elapsed();
    assert!(
        tcp.transport_errors() > errors_before,
        "a dead process must tick the transport-error counter"
    );
    assert!(degraded > 0, "a dead process must degrade some queries");
    // 24 queries against a 2s-timeout transport: failed probes surface
    // as fast connect-refused errors, not 24 stacked timeouts. Allow
    // generous slack for slow CI machines while still catching hangs.
    assert!(
        elapsed < Duration::from_secs(60),
        "queries against a dead peer took {elapsed:?} — hanging, not failing"
    );

    // A degraded answer is never cached: the `/query` that came back 502
    // is probed again when repeated — had the unreachable process's keys
    // been cached as absent, the repeat would be a confident, wrong 200.
    let degraded_target = queries(&collection)
        .iter()
        .map(|terms| query_target(terms, 10))
        .find(|target| http_get(http_addr, target).0 == 502)
        .expect("a dead process must turn some /query into a 502");
    let errors_before = tcp.transport_errors();
    let (status, body) = http_get(http_addr, &degraded_target);
    assert_eq!(status, 502, "repeat of a degraded query: {body}");
    assert!(
        tcp.transport_errors() > errors_before,
        "the repeat must reach for the dead process again"
    );

    handle.stop();

    // --- Phase 5: a fresh fleet with gossip enabled. A *logical* peer
    // crashes (every process stays up); with the liveness oracle off,
    // detection, universal confirmation and the triggered repair all
    // travel as `Control::Gossip` frames in lockstep with the
    // front-end mirror — and once the views converge, queries stop
    // paying failover timeouts. The whole trajectory must be
    // bit-identical to the in-process build. ---
    let mut gossip_fleet = Fleet(Vec::new());
    let mut gossip_addrs = Vec::new();
    for i in 0..NPROCS {
        let (child, addr) = spawn_peer(i, 2);
        gossip_fleet.0.push(child);
        gossip_addrs.push(addr);
    }
    let gossip_config = HdkConfig {
        dfmax: DFMAX,
        replication: 2,
        gossip: GossipConfig {
            fanout: 2,
            suspicion_rounds: 2,
            loss_prob: 0.2,
            seed: 42,
        },
        ..HdkConfig::default()
    };
    let partitions = partition_documents(collection.len(), PEERS, 42);
    let (mut fleet_indexer, fleet_net) = HdkNetwork::build_with(
        &collection,
        &partitions,
        gossip_config.clone(),
        OverlayKind::PGrid,
        BackendConfig::Tcp {
            addrs: gossip_addrs,
        },
    )
    .into_services();
    let (mut local_indexer, local_net) = HdkNetwork::build_with(
        &collection,
        &partitions,
        gossip_config,
        OverlayKind::PGrid,
        BackendConfig::InProc,
    )
    .into_services();
    let victim = PeerId((PEERS - 1) as u64);
    let batch = |net: &QueryService| -> Vec<Vec<(u32, u64)>> {
        queries(&collection)
            .iter()
            .enumerate()
            .map(|(i, terms)| {
                // Queriers rotate over the survivors only.
                let from = PeerId((i % (PEERS - 1)) as u64);
                net.query(from, terms, 10)
                    .results
                    .iter()
                    .map(|r| (r.doc.0, r.score.to_bits()))
                    .collect()
            })
            .collect()
    };

    assert_eq!(
        batch(&fleet_net),
        batch(&local_net),
        "healthy gossip fleet diverged"
    );
    assert_eq!(fleet_net.snapshot().failover_timeouts, 0);

    let loss = fleet_indexer.fail_peers(vec![victim]);
    assert_eq!(loss.keys_lost, 0, "R=2 single crash lost content");
    local_indexer.fail_peers(vec![victim]);

    assert_eq!(
        batch(&fleet_net),
        batch(&local_net),
        "stale-view queries diverged"
    );
    let timeouts_stale = fleet_net.snapshot().failover_timeouts;
    assert!(
        timeouts_stale > 0,
        "stale views must pay failover timeouts at the corpse"
    );
    assert_eq!(timeouts_stale, local_net.snapshot().failover_timeouts);

    let mut rounds = 0;
    let mut repaired = false;
    while fleet_indexer.gossip_converged() != Some(true) {
        assert!(rounds < 64, "fleet views failed to converge");
        let fleet_out = fleet_indexer.gossip_round();
        let local_out = local_indexer.gossip_round();
        assert_eq!(
            fleet_out, local_out,
            "gossip round {rounds}: fleet diverged from in-process"
        );
        repaired |= fleet_out.repair.is_some_and(|r| r.copies > 0);
        rounds += 1;
    }
    assert_eq!(local_indexer.gossip_converged(), Some(true));
    assert!(
        repaired,
        "universal confirmation never fired the repair sweep"
    );

    assert_eq!(
        batch(&fleet_net),
        batch(&local_net),
        "post-convergence queries diverged"
    );
    assert_eq!(
        fleet_net.snapshot().failover_timeouts,
        timeouts_stale,
        "converged views must stop paying failover timeouts"
    );
    // The stripe-disjoint process meters (plus the silent mirror) sum to
    // exactly the single-process counters, gossip probes included.
    let fleet_snap = fleet_net.snapshot();
    assert!(fleet_snap.kind(hdk_p2p::MsgKind::Gossip).messages > 0);
    assert!(
        fleet_snap.same_counts(&local_net.snapshot()),
        "gossip-fleet traffic counts diverged from in-process"
    );
}
