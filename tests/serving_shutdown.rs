//! Graceful shutdown and lossless restart of segment-backed peer
//! processes.
//!
//! The scenario the serving tier promises operators: peers hosting
//! durable segment stores receive `Shutdown` (drain + seal the hot
//! tier), exit cleanly, restart over the same directories, and after a
//! `Restart` recovery wave the index answers queries bit-identically to
//! its pre-shutdown self — zero keys, copies, or postings lost.

use hdk_core::{
    BackendConfig, HdkConfig, HdkNetwork, OverlayKind, QueryService, WireRequest, WireResponse,
};
use hdk_corpus::{partition_documents, Collection, CollectionGenerator, GeneratorConfig};
use hdk_p2p::wire::{read_frame, write_frame};
use hdk_p2p::PeerId;
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

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
    let mut network = HdkNetwork::build_with(
        &collection,
        &partitions,
        config,
        OverlayKind::PGrid,
        BackendConfig::Tcp {
            addrs: addrs.clone(),
        },
    );
    let service = network.query_service();

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
        network.restart_peers(&(0..PEERS as u64).map(PeerId).collect::<Vec<_>>());
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
