//! The HTTP front-end's request-head limit holds *before* allocation.
//!
//! A client that streams bytes with no newline used to grow the head's
//! line buffer for as long as it kept sending. This file pins the limit
//! with a counting allocator, like `alloc_budget.rs` — but process-wide
//! (the server's connection thread is not the test's) and by *live* bytes
//! (what a hostile client can pin), so it is alone in its test binary:
//! nothing else may allocate beside it.

use hdk_core::{spawn_http, HdkConfig, HdkNetwork, OverlayKind};
use hdk_corpus::{partition_documents, CollectionGenerator, GeneratorConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes allocated and not yet freed, and the most that ever was.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the caller's; counting touches only two atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new block coexist while the contents move.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_newline_free_megabyte_head_is_refused_within_the_limit() {
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: 40,
        ..GeneratorConfig::default()
    })
    .generate();
    let partitions = partition_documents(collection.len(), 2, 7);
    let network = HdkNetwork::build(
        &collection,
        &partitions,
        HdkConfig::default(),
        OverlayKind::PGrid,
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let http = spawn_http(listener, network.query_service()).expect("spawn the front-end");
    let head = vec![b'a'; 1 << 20];
    let mut reply = Vec::with_capacity(1 << 10);

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let mut client = TcpStream::connect(http.addr()).expect("connect");
    // A server still waiting for the newline must fail this test, not
    // hang it.
    let patience = std::time::Duration::from_secs(10);
    client
        .set_read_timeout(Some(patience))
        .expect("set timeout");
    // The server answers and hangs up at its limit; what is unsent by
    // then fails to write, and the read ends in a reset, not a close.
    let _ = client.write_all(&head);
    let mut chunk = [0u8; 512];
    while let Ok(n @ 1..) = client.read(&mut chunk) {
        reply.extend_from_slice(&chunk[..n]);
    }
    let pinned = PEAK.load(Ordering::SeqCst) - before;

    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 404"), "got {reply:?}");
    assert!(reply.contains("Connection: close"), "got {reply:?}");
    assert!(
        pinned < 64 << 10,
        "{pinned} bytes held for a 16 KiB head limit"
    );
    http.stop();
}
