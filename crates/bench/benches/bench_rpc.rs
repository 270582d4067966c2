//! The RPC layer's two costs, measured:
//!
//! 1. **InProc dispatch overhead** — the same key-lookup workload through
//!    the typed message layer (`GlobalIndex::lookup_many` → `Request` →
//!    `InProc` → DHT) vs. raw `Dht::lookup_many` calls. The message layer
//!    adds one enum construction + a vtable call + per-key `Addressed`
//!    wrapping per level; this bench pins that to "within noise" of the
//!    direct call (the two are printed side by side for the CI log).
//!
//! 2. **SimNet smoke** — the identical query workload over the simulated
//!    network at LAN and WAN settings: wall-clock overhead of the timing
//!    model itself (the virtual latencies cost arithmetic, not sleeping),
//!    with per-kind histogram means logged.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hdk_core::{
    BackendConfig, GlobalIndex, HdkConfig, HdkNetwork, Key, KeyLookup, OverlayKind, QueryService,
};
use hdk_corpus::{partition_documents, Collection, CollectionGenerator, DocId, GeneratorConfig};
use hdk_ir::{CompressedPostings, Posting, PostingList};
use hdk_p2p::{Dht, KeyHash, MsgKind, PGrid, PeerId, SimNetConfig};
use hdk_text::TermId;
use std::hint::black_box;

const PEERS: usize = 16;

fn collection() -> Collection {
    CollectionGenerator::new(GeneratorConfig {
        num_docs: 1_000,
        vocab_size: 7_000,
        avg_doc_len: 60,
        num_topics: 40,
        topic_vocab: 60,
        ..GeneratorConfig::default()
    })
    .generate()
}

fn build(backend: BackendConfig) -> (QueryService, Vec<Vec<TermId>>) {
    let coll = collection();
    let parts = partition_documents(coll.len(), PEERS, 7);
    let network = HdkNetwork::build_with(
        &coll,
        &parts,
        HdkConfig {
            dfmax: 12,
            smax: 3,
            ff: u64::MAX,
            ..HdkConfig::default()
        },
        OverlayKind::PGrid,
        backend,
    );
    let queries: Vec<Vec<TermId>> = (0..32)
        .map(|i| coll.long_query(i * 37, 5 + i % 3))
        .collect();
    (network.query_service(), queries)
}

/// A posting block shared by every benchmark entry (the refcounted clone
/// is what a lookup response hands back, on both paths).
fn block() -> CompressedPostings {
    CompressedPostings::from_list(&PostingList::from_unsorted(
        (0..12u32)
            .map(|d| Posting {
                doc: DocId(d * 7),
                tf: 1 + d % 4,
                doc_len: 80,
            })
            .collect(),
    ))
}

/// InProc dispatch overhead, isolated: the *identical* batched key-lookup
/// workload — same keys, same resident entries, same metering, same
/// stripe-grouped parallel reads — once through the typed message layer
/// (`GlobalIndex::lookup_many` → `Request::LookupMany` → `InProc`) and
/// once as raw `Dht::lookup_many` calls. The delta is the message layer
/// itself: per-level enum construction, per-key `Addressed` wrapping, one
/// boxed-trait dispatch.
fn bench_dispatch_overhead(c: &mut Criterion) {
    const KEYS: u32 = 20_000;
    let overlay =
        || -> Box<PGrid> { Box::new(PGrid::new((0..PEERS as u64).map(PeerId).collect())) };
    let payload = block();

    // The RPC side: a GlobalIndex over the in-process backend.
    let index = GlobalIndex::new(overlay(), 64);
    for t in 0..KEYS {
        index.insert_block(
            PeerId(u64::from(t) % PEERS as u64),
            Key::single(TermId(t)),
            &payload,
        );
    }
    // The direct side: a raw Dht holding the same blocks under the same
    // hashes, read with the same response shape.
    let dht: Dht<CompressedPostings> = Dht::new(overlay());
    for t in 0..KEYS {
        let key = Key::single(TermId(t)).dht_hash();
        let b = payload.clone();
        dht.upsert(
            PeerId(u64::from(t) % PEERS as u64),
            key,
            b.len() as u64,
            b.encoded_len() as u64,
            || b.clone(),
            |_| {},
        );
    }

    // 256 levels of 8 keys each — the fan-out width a deep lattice level
    // resolves per message set (every 16th key probes a miss).
    let levels: Vec<Vec<Key>> = (0..256u32)
        .map(|l| {
            (0..8u32)
                .map(|i| Key::single(TermId((l * 97 + i * 16 + i) % (KEYS + KEYS / 16))))
                .collect()
        })
        .collect();
    let hash_levels: Vec<Vec<KeyHash>> = levels
        .iter()
        .map(|level| level.iter().map(Key::dht_hash).collect())
        .collect();

    let mut g = c.benchmark_group("rpc/dispatch");
    g.throughput(Throughput::Elements((levels.len() * 8) as u64));
    g.bench_function("direct/dht_lookup_many", |b| {
        b.iter(|| {
            for (i, level) in hash_levels.iter().enumerate() {
                black_box(dht.lookup_many(
                    PeerId(i as u64 % PEERS as u64),
                    i as u64,
                    level,
                    |_, v| match v {
                        Some(block) => (
                            Some(KeyLookup {
                                postings: block.clone(),
                                df: block.len() as u32,
                                is_ndk: false,
                            }),
                            block.len() as u64,
                            block.encoded_len() as u64,
                        ),
                        None => (None, 0, 8),
                    },
                ));
            }
        })
    });
    g.bench_function("rpc/global_index_lookup_many", |b| {
        b.iter(|| {
            for (i, level) in levels.iter().enumerate() {
                black_box(index.lookup_many(PeerId(i as u64 % PEERS as u64), i as u64, level));
            }
        })
    });
    g.finish();
}

/// The same query workload over the simulated network: the timing model is
/// pure arithmetic on the virtual clock, so SimNet wall-clock should sit
/// within a small factor of InProc while producing full latency
/// histograms.
fn bench_simnet_smoke(c: &mut Criterion) {
    // The network models come from the latency sweep's canonical table, so
    // this smoke and `latency_sweep` always benchmark the same networks.
    let configs = hdk_bench::latency::sweep_configs();
    let model = |label: &str| -> SimNetConfig {
        configs
            .iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("no {label:?} in sweep_configs"))
            .1
    };
    let mut g = c.benchmark_group("rpc/simnet");
    for (label, backend) in [
        ("inproc", BackendConfig::InProc),
        ("lan", BackendConfig::SimNet(model("lan"))),
        ("lossy-wan", BackendConfig::SimNet(model("lossy-wan"))),
    ] {
        let (service, queries) = build(backend);
        g.throughput(Throughput::Elements(queries.len() as u64));
        g.bench_function(format!("backend/{label}"), |b| {
            b.iter(|| {
                for (i, q) in queries.iter().enumerate() {
                    black_box(service.query(PeerId(i as u64 % PEERS as u64), q, 20));
                }
            })
        });
        let snap = service.snapshot();
        let h = snap.latency(MsgKind::QueryResponse);
        eprintln!(
            "[bench_rpc] backend={label}: {} responses, mean latency {:.3} ms, retries {}, virtual {:.1} ms",
            h.samples,
            h.mean_ns() / 1e6,
            h.retries,
            service.virtual_time_ns() as f64 / 1e6,
        );
    }
    g.finish();
}

criterion_group!(benches, bench_dispatch_overhead, bench_simnet_smoke);
criterion_main!(benches);
