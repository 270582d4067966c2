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

use hdk_core::{spawn_http, BackendConfig, HdkConfig, HdkNetwork, OverlayKind};
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
    let backend = BackendConfig::from_env();
    eprintln!("hdk-front: building {docs} docs over {peers} peers via {backend:?}");
    let network = HdkNetwork::build_with(
        &collection,
        &partitions,
        config,
        OverlayKind::PGrid,
        backend,
    );

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
