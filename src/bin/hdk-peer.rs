//! `hdk-peer` — one peer process of the serving tier.
//!
//! Hosts this process's share of the DHT stripes (`stripe % nprocs ==
//! proc`) behind a length-framed TCP server, and serves until the
//! front-end sends a `Shutdown` (graceful: drains in-flight requests and
//! seals the hot tier to the segment logs before exiting).
//!
//! ```text
//! hdk-peer --listen 127.0.0.1:0 --nprocs 3 --proc 0 \
//!          --peers 16 --dfmax 12 [--replication 1] [--store-dir DIR]
//! ```
//!
//! With `--store-dir`, entries live in a durable segment store at that
//! directory (hot budget from `HDK_STORE=segment:<bytes>`, or the
//! default budget); without it, `HDK_STORE` alone decides (an ephemeral
//! scratch store for `segment`, in-memory otherwise). A malformed
//! `HDK_STORE` exits 2 with the usage, like a malformed argument.
//!
//! Prints `LISTEN <addr>` on stdout once bound, so a parent process
//! using port 0 can discover the actual address.

use hdk_core::{PeerConfig, PeerHost, StoreConfig, DEFAULT_SEGMENT_HOT_BYTES};
use std::net::TcpListener;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: hdk-peer --listen HOST:PORT --nprocs N --proc I --peers P --dfmax D \
         [--replication R] [--store-dir DIR]"
    );
    std::process::exit(2);
}

fn main() {
    let mut listen = "127.0.0.1:0".to_string();
    let mut nprocs: Option<usize> = None;
    let mut proc_index: Option<usize> = None;
    let mut num_peers: Option<usize> = None;
    let mut dfmax: Option<u32> = None;
    let mut replication = 1usize;
    let mut store_dir: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--listen" => listen = value(),
            "--nprocs" => nprocs = value().parse().ok(),
            "--proc" => proc_index = value().parse().ok(),
            "--peers" => num_peers = value().parse().ok(),
            "--dfmax" => dfmax = value().parse().ok(),
            "--replication" => replication = value().parse().unwrap_or_else(|_| usage()),
            "--store-dir" => store_dir = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }
    let (Some(nprocs), Some(proc_index), Some(num_peers), Some(dfmax)) =
        (nprocs, proc_index, num_peers, dfmax)
    else {
        usage()
    };

    let from_env = match std::env::var("HDK_STORE") {
        Err(_) => StoreConfig::Memory,
        Ok(v) => StoreConfig::parse(&v).unwrap_or_else(|e| {
            eprintln!("hdk-peer: {e}");
            usage()
        }),
    };
    // A durable directory overrides the env store's ephemeral location
    // but keeps its hot budget (so `HDK_STORE=segment:<bytes>` still
    // sizes the hot tier).
    let store = match (store_dir, from_env) {
        (Some(dir), StoreConfig::Segment { hot_bytes, .. }) => StoreConfig::Segment {
            dir: Some(dir),
            hot_bytes,
        },
        (Some(dir), StoreConfig::Memory) => StoreConfig::Segment {
            dir: Some(dir),
            hot_bytes: DEFAULT_SEGMENT_HOT_BYTES,
        },
        (None, from_env) => from_env,
    };

    let host = PeerHost::new(PeerConfig {
        nprocs,
        proc_index,
        num_peers,
        dfmax,
        replication,
        store,
    });
    let listener = TcpListener::bind(&listen)
        .unwrap_or_else(|e| panic!("hdk-peer: cannot bind {listen}: {e}"));
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    // The parent discovers the actual port (for `--listen host:0`).
    println!("LISTEN {addr}");
    host.serve(listener).expect("accept loop failed");
}
