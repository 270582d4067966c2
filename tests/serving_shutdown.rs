//! Graceful shutdown and lossless restart of segment-backed peer
//! processes.
//!
//! The scenario the serving tier promises operators: peers hosting
//! durable segment stores receive `Shutdown` (drain + seal the hot
//! tier), exit cleanly, restart over the same directories, and after a
//! `Restart` recovery wave the index answers queries bit-identically to
//! its pre-shutdown self — zero keys, copies, or postings lost.
//!
//! Also: both binaries refuse a malformed environment setting with exit
//! code 2 and their usage, before any work, and `hdk-front` refuses to
//! serve a build that lost inserts with exit code 1.

use hdk_core::{
    BackendConfig, HdkConfig, HdkNetwork, OverlayKind, QueryService, WireRequest, WireResponse,
};
use hdk_corpus::{partition_documents, Collection, CollectionGenerator, GeneratorConfig};
use hdk_p2p::wire::{read_frame, write_frame};
use hdk_p2p::PeerId;
use std::io::{BufReader, Read};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const NPROCS: usize = 3;
const PEERS: usize = 6;
const DFMAX: u32 = 10;
const DOCS: usize = 180;
/// Tiny hot budget: most entries seal to disk *during* the build, so
/// recovery replays real segment logs, not just the shutdown flush.
const HOT_BYTES: &str = "segment:8192";

/// Kills whatever is left of the fleet when an assertion panics.
struct Fleet(Vec<Child>);

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns one durable `hdk-peer` over `dir`, returning the child and
/// the address it actually bound.
fn spawn_peer(proc_index: usize, listen: &str, dir: &std::path::Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hdk-peer"))
        .args([
            "--listen",
            listen,
            "--nprocs",
            &NPROCS.to_string(),
            "--proc",
            &proc_index.to_string(),
            "--peers",
            &PEERS.to_string(),
            "--dfmax",
            &DFMAX.to_string(),
            "--store-dir",
        ])
        .arg(dir)
        .env("HDK_STORE", HOT_BYTES)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn hdk-peer");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    std::io::BufRead::read_line(&mut std::io::BufReader::new(stdout), &mut line)
        .expect("read LISTEN line");
    let addr = line
        .trim()
        .strip_prefix("LISTEN ")
        .unwrap_or_else(|| panic!("unexpected peer banner {line:?}"))
        .to_string();
    (child, addr)
}

/// Asks one peer process to shut down gracefully over a raw socket and
/// expects the acknowledgement frame back before the process exits.
fn request_shutdown(addr: &str) {
    let mut stream = TcpStream::connect(addr).expect("connect for shutdown");
    write_frame(&mut stream, &WireRequest::Shutdown.encode()).expect("send Shutdown");
    let reply = read_frame(&mut stream).expect("read shutdown ack");
    let reply = WireResponse::decode(&reply).expect("decode shutdown ack");
    assert!(
        matches!(reply, WireResponse::ShuttingDown),
        "expected ShuttingDown, got {reply:?}"
    );
}

fn corpus() -> Collection {
    CollectionGenerator::new(GeneratorConfig {
        num_docs: DOCS,
        vocab_size: 2_500,
        seed: 11,
        ..GeneratorConfig::default()
    })
    .generate()
}

/// Every query's full observable outcome: lookup count, postings
/// fetched, and the top-k (doc, f64 score bits) in rank order.
type Outcome = (u32, u64, Vec<(u32, u64)>);

fn outcomes(service: &QueryService, collection: &Collection) -> Vec<Outcome> {
    (0..12)
        .map(|i| {
            let terms = collection.long_query(i * 29, 3 + i % 2);
            let outcome = service.query(PeerId((i % PEERS) as u64), &terms, 10);
            (
                outcome.lookups,
                outcome.postings_fetched,
                outcome
                    .results
                    .iter()
                    .map(|r| (r.doc.0, r.score.to_bits()))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn graceful_shutdown_then_restart_is_lossless() {
    let dirs: Vec<tempfile::TempDir> = (0..NPROCS)
        .map(|_| tempfile::tempdir().expect("create store dir"))
        .collect();

    let mut fleet = Fleet(Vec::new());
    let mut addrs = Vec::new();
    for (i, dir) in dirs.iter().enumerate() {
        let (child, addr) = spawn_peer(i, "127.0.0.1:0", dir.path());
        fleet.0.push(child);
        addrs.push(addr);
    }

    let collection = corpus();
    let partitions = partition_documents(collection.len(), PEERS, 42);
    let config = HdkConfig {
        dfmax: DFMAX,
        ..HdkConfig::default()
    };
    let (mut indexer, service) = HdkNetwork::build_with(
        &collection,
        &partitions,
        config,
        OverlayKind::PGrid,
        BackendConfig::Tcp {
            addrs: addrs.clone(),
        },
    )
    .into_services();

    let counts_before = service.index().index_counts();
    assert!(
        counts_before.total_keys() > 0,
        "trivial corpus: nothing indexed"
    );
    let stored_before = service.index().stored_postings_per_peer();
    let before = outcomes(&service, &collection);
    assert!(
        service.index().sealed_segment_bytes() > 0,
        "hot budget {HOT_BYTES} must have sealed entries to disk during the build"
    );

    // --- Graceful shutdown: ack frame, then exit status 0. ---
    for (child, addr) in fleet.0.iter_mut().zip(&addrs) {
        request_shutdown(addr);
        let status = child.wait().expect("reap peer");
        assert!(
            status.success(),
            "graceful shutdown must exit 0, got {status}"
        );
    }
    fleet.0.clear();

    // --- Restart over the same directories and addresses. ---
    for (i, (dir, addr)) in dirs.iter().zip(&addrs).enumerate() {
        let (child, bound) = spawn_peer(i, addr, dir.path());
        assert_eq!(&bound, addr, "peer {i} must rebind its old address");
        fleet.0.push(child);
    }

    // Fresh processes hold open segment logs but empty in-memory
    // stripes: nothing is resident until the recovery wave replays.
    assert_eq!(
        service.index().index_counts().total_keys(),
        0,
        "recovery must be driven by Restart, not implicit at startup"
    );

    let (recovery, _repair) =
        indexer.restart_peers(&(0..PEERS as u64).map(PeerId).collect::<Vec<_>>());
    assert!(recovery.frames_replayed > 0, "no segment frames replayed");
    assert!(recovery.postings_recovered > 0, "no postings recovered");
    assert_eq!(recovery.keys_lost, 0, "lossless restart lost keys");
    assert_eq!(recovery.copies_lost, 0, "lossless restart lost copies");
    assert_eq!(recovery.postings_lost, 0, "lossless restart lost postings");

    // --- The recovered index is bit-identical to its old self. ---
    assert_eq!(
        service.index().index_counts(),
        counts_before,
        "index counts diverge after restart"
    );
    assert_eq!(
        service.index().stored_postings_per_peer(),
        stored_before,
        "per-peer stored postings diverge after restart"
    );
    let after = outcomes(&service, &collection);
    assert_eq!(before, after, "query outcomes diverge after restart");
}

#[test]
fn a_malformed_hdk_store_exits_2_with_the_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_hdk-peer"))
        .args([
            "--nprocs", "1", "--proc", "0", "--peers", "2", "--dfmax", "4",
        ])
        .env("HDK_STORE", "segment:x")
        .output()
        .expect("run hdk-peer");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("HDK_STORE"), "{stderr}");
    assert!(stderr.contains("usage: hdk-peer"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "it bound a listener");
}

/// Runs `hdk-front` with one environment variable set and asserts it exits
/// 2 with the usage, naming the variable, before building anything.
fn front_refuses(var: &str, value: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_hdk-front"))
        .args(["--http", "127.0.0.1:0", "--docs", "20"])
        .env(var, value)
        .output()
        .expect("run hdk-front");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(var), "{stderr}");
    assert!(stderr.contains("usage: hdk-front"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("building"), "it built an index: {stderr}");
    assert!(out.stdout.is_empty(), "it bound a listener");
}

#[test]
fn a_malformed_hdk_backend_exits_2_with_the_usage() {
    front_refuses("HDK_BACKEND", "tcp:");
}

#[test]
fn a_malformed_hdk_net_timeout_ms_exits_2_with_the_usage() {
    front_refuses("HDK_NET_TIMEOUT_MS", "5s");
}

/// A peer process that passes the handshake and the health probe but
/// refuses every message. Its threads end with the test process.
fn refusing_peer() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            std::thread::spawn(move || {
                let mut stream = BufReader::new(stream);
                while let Ok(payload) = read_frame(&mut stream) {
                    let reply = match WireRequest::decode(&payload) {
                        Ok(WireRequest::Hello { .. }) => WireResponse::HelloOk,
                        Ok(WireRequest::Health) => WireResponse::Healthy { keys: 0 },
                        _ => WireResponse::Err("refused".into()),
                    };
                    if write_frame(stream.get_mut(), &reply.encode()).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn a_front_end_whose_build_lost_inserts_exits_1() {
    let mut front = Fleet(vec![Command::new(env!("CARGO_BIN_EXE_hdk-front"))
        .args(["--http", "127.0.0.1:0", "--docs", "20", "--peers", "2"])
        .env("HDK_BACKEND", format!("tcp:{}", refusing_peer()))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hdk-front")]);
    let child = &mut front.0[0];
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll hdk-front") {
            break status;
        }
        assert!(Instant::now() < deadline, "hdk-front is still running");
        std::thread::sleep(Duration::from_millis(20));
    };
    let (mut stdout, mut stderr) = (String::new(), String::new());
    let pipes = (child.stdout.take(), child.stderr.take());
    pipes
        .0
        .expect("piped")
        .read_to_string(&mut stdout)
        .expect("stdout");
    pipes
        .1
        .expect("piped")
        .read_to_string(&mut stderr)
        .expect("stderr");
    assert_eq!(status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("failed during the build"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stdout.is_empty(), "it served the index: {stdout}");
}
