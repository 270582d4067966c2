//! `hdk-front` — the serving tier's front-end process.
//!
//! Generates a synthetic collection, builds the HDK index through the
//! backend selected by `HDK_BACKEND` (`inproc` by default,
//! `tcp:host:port,...` to drive already-running `hdk-peer` processes),
//! and serves queries over HTTP:
//!
//! ```text
//! # one process, all in memory
//! hdk-front --http 127.0.0.1:8080
//!
//! # the real tier: 3 peer processes first, then
//! HDK_BACKEND=tcp:127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
//!   hdk-front --http 127.0.0.1:8080 --peers 16 --dfmax 12
//! ```
//!
//! When driving peer processes, their geometry flags must match this
//! front-end's (`--peers`, `--dfmax`, `--replication`, and `--nprocs`
//! = the number of addresses) — the wire handshake
//! verifies and refuses mismatches.
//!
//! Routes: `GET /query?q=1,2,3&k=10&peer=0`, `GET /health`,
//! `GET /metrics` (Prometheus text). Prints `HTTP <addr>` once bound.
//!
//! A malformed `HDK_BACKEND` or `HDK_NET_TIMEOUT_MS` exits 2 with the
//! usage, like a malformed argument. A build during which any exchange
//! with a peer process failed — a refused, unanswered or short reply, so
//! some inserts may be missing — exits 1 instead of serving the index.

use hdk_core::{
    net_timeout_from_env, spawn_http, BackendConfig, HdkConfig, HdkNetwork, OverlayKind,
};
use hdk_corpus::{partition_documents, CollectionGenerator, GeneratorConfig};
use std::net::TcpListener;

fn usage() -> ! {
    eprintln!(
        "usage: hdk-front [--http HOST:PORT] [--docs N] [--vocab V] [--peers P] \
         [--dfmax D] [--replication R] [--seed S]"
    );
    std::process::exit(2);
}

fn main() {
    let mut http = "127.0.0.1:0".to_string();
    let mut docs = 400usize;
    let mut vocab = 4_000u32;
    let mut peers = 8usize;
    let mut dfmax = 12u32;
    let mut replication = 1usize;
    let mut seed = 42u64;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--http" => http = value(),
            "--docs" => docs = value().parse().unwrap_or_else(|_| usage()),
            "--vocab" => vocab = value().parse().unwrap_or_else(|_| usage()),
            "--peers" => peers = value().parse().unwrap_or_else(|_| usage()),
            "--dfmax" => dfmax = value().parse().unwrap_or_else(|_| usage()),
            "--replication" => replication = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }

    // Both are read before any work; the transport reads the deadline
    // again when it connects.
    let backend = BackendConfig::from_env()
        .and_then(|backend| net_timeout_from_env().map(|_| backend))
        .unwrap_or_else(|e| {
            eprintln!("hdk-front: {e}");
            usage()
        });

    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: docs,
        vocab_size: vocab as usize,
        seed,
        ..GeneratorConfig::default()
    })
    .generate();
    let partitions = partition_documents(collection.len(), peers, seed);
    let config = HdkConfig {
        dfmax,
        replication,
        ..HdkConfig::default()
    };
    eprintln!("hdk-front: building {docs} docs over {peers} peers via {backend:?}");
    let network = HdkNetwork::build_with(
        &collection,
        &partitions,
        config,
        OverlayKind::PGrid,
        backend,
    );
    let lost = network.query_service().transport_errors();
    if lost > 0 {
        eprintln!("hdk-front: {lost} exchanges with the peer processes failed during the build");
        std::process::exit(1);
    }

    let listener =
        TcpListener::bind(&http).unwrap_or_else(|e| panic!("hdk-front: cannot bind {http}: {e}"));
    let handle =
        spawn_http(listener, network.query_service()).expect("cannot spawn the HTTP front-end");
    println!("HTTP {}", handle.addr());
    // Serve until killed.
    loop {
        std::thread::park();
    }
}
