//! The serving tier end to end in one runnable example: three peer
//! hosts behind real TCP sockets (threads here; `hdk-peer` runs the
//! same `PeerHost` as separate processes), an index built through the
//! wire protocol, and the HTTP/JSON front-end queried like an external
//! client would.
//!
//! ```text
//! cargo run --release --example serving_tier
//! ```
//!
//! Prints the top-k JSON for one query and a slice of the Prometheus
//! metrics, then verifies the served scores are bit-identical to the
//! in-process build of the same corpus.

use p2p_hdk::prelude::*;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

const NPROCS: usize = 3;
const PEERS: usize = 8;
const DFMAX: u32 = 12;

fn http_get(addr: std::net::SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect front-end");
    stream.set_nodelay(true).expect("set nodelay");
    let request = format!("GET {target} HTTP/1.1\r\nHost: example\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw.split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or(raw)
}

fn main() {
    // --- Three peer hosts on loopback sockets. ---
    let mut addrs = Vec::new();
    for proc_index in 0..NPROCS {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind peer");
        addrs.push(listener.local_addr().expect("bound").to_string());
        let host = PeerHost::new(PeerConfig {
            nprocs: NPROCS,
            proc_index,
            num_peers: PEERS,
            dfmax: DFMAX,
            replication: 1,
            store: StoreConfig::Memory,
        });
        std::thread::spawn(move || host.serve(listener));
    }

    // --- Build the same corpus through the wire and in-process. ---
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: 240,
        vocab_size: 3_000,
        seed: 7,
        ..GeneratorConfig::default()
    })
    .generate();
    let partitions = partition_documents(collection.len(), PEERS, 42);
    let config = HdkConfig {
        dfmax: DFMAX,
        ..HdkConfig::default()
    };
    let tcp = HdkNetwork::build_with(
        &collection,
        &partitions,
        config.clone(),
        OverlayKind::PGrid,
        BackendConfig::Tcp { addrs },
    );
    let inproc = HdkNetwork::build(&collection, &partitions, config);
    println!(
        "built {} docs over {PEERS} peers in {NPROCS} serving hosts ({} HDK keys)",
        collection.len(),
        tcp.query_service().index().index_counts().total_keys()
    );

    // --- The HTTP front-end, queried like an external client. ---
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind front-end");
    let handle = spawn_http(listener, tcp.query_service()).expect("spawn http");
    let addr = handle.addr();

    let terms = collection.long_query(0, 3);
    let q: Vec<String> = terms.iter().map(|t| t.0.to_string()).collect();
    let body = http_get(addr, &format!("/query?q={}&k=5", q.join(",")));
    println!("\nGET /query?q={}&k=5\n{body}", q.join(","));

    let metrics = http_get(addr, "/metrics");
    let insert_lines: Vec<&str> = metrics
        .lines()
        .filter(|l| l.contains("index_insert") || l.contains("query_lookup"))
        .take(4)
        .collect();
    println!("\nGET /metrics (slice)\n{}", insert_lines.join("\n"));

    // --- Served results are bit-identical to the in-process build. ---
    let reference = inproc.query_service().query(PeerId(0), &terms, 5);
    for r in &reference.results {
        let fragment = format!("{{\"doc\":{},\"score\":{}}}", r.doc.0, r.score);
        assert!(body.contains(&fragment), "served JSON diverged: {fragment}");
    }
    println!(
        "\nserved top-{} matches the in-process build bit-for-bit",
        reference.results.len()
    );
    handle.stop();
}
