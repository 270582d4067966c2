//! Single-query latency through the plan/execute pipeline: the per-level
//! parallel probe fan-out at 1 thread vs. the full pool, plus the cached
//! path where partial hits skip their probes.
//!
//! `parallel/query_batch` (in `bench_parallel`) measures cross-query
//! parallelism; this bench measures *intra*-query parallelism — one long
//! query whose lattice levels fan out over the DHT stripes. On a
//! single-CPU container both thread counts time alike by construction;
//! CI's multi-core runners show the spread. Determinism across thread
//! counts is pinned by `tests/thread_invariance.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hdk_core::{HdkConfig, HdkNetwork, OverlayKind, QueryCache};
use hdk_corpus::{partition_documents, CollectionGenerator, GeneratorConfig};
use hdk_p2p::PeerId;
use hdk_text::TermId;
use std::hint::black_box;

const PEERS: usize = 16;

fn setup() -> (HdkNetwork, Vec<Vec<TermId>>) {
    let coll = CollectionGenerator::new(GeneratorConfig {
        num_docs: 1_200,
        vocab_size: 8_000,
        avg_doc_len: 60,
        num_topics: 40,
        topic_vocab: 60,
        ..GeneratorConfig::default()
    })
    .generate();
    let parts = partition_documents(coll.len(), PEERS, 7);
    let network = HdkNetwork::build(
        &coll,
        &parts,
        HdkConfig {
            dfmax: 12,
            smax: 4,
            ff: u64::MAX,
            ..HdkConfig::default()
        },
        OverlayKind::PGrid,
    );
    // Long queries (6-8 distinct co-occurring terms) produce the deep,
    // wide lattices where per-level fan-out matters — sampled with the
    // same `Collection::long_query` the thread-invariance test uses, so
    // measured and guarded fan-out stay in lockstep.
    let queries: Vec<Vec<TermId>> = (0..32)
        .map(|i| coll.long_query(i * 37, 6 + i % 3))
        .collect();
    (network, queries)
}

fn with_threads<R>(threads: Option<usize>, f: impl FnOnce() -> R) -> R {
    let prev = std::env::var("RAYON_NUM_THREADS").ok();
    match threads {
        Some(n) => std::env::set_var("RAYON_NUM_THREADS", n.to_string()),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    let out = f();
    match prev {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    out
}

fn bench_single_query(c: &mut Criterion) {
    let (network, queries) = setup();
    // Report the measured lattice shape once so the runner log records the
    // fan-out the bench actually exercised.
    let mut widths = [0u64; 4];
    for q in &queries {
        let (_, profile) = network.query_profiled(PeerId(0), q, 20);
        for l in &profile.levels {
            widths[l.level - 1] += u64::from(l.planned);
        }
    }
    eprintln!(
        "[bench_query] avg fan-out per level over {} queries: {:?}",
        queries.len(),
        widths
            .iter()
            .map(|&w| w as f64 / queries.len() as f64)
            .collect::<Vec<_>>()
    );

    let mut g = c.benchmark_group("query/single");
    g.throughput(Throughput::Elements(queries.len() as u64));
    for threads in [Some(1), None] {
        let label = threads.map_or("default".to_string(), |n| n.to_string());
        g.bench_with_input(BenchmarkId::new("threads", label), &threads, |b, &t| {
            b.iter(|| {
                with_threads(t, || {
                    for (i, q) in queries.iter().enumerate() {
                        black_box(network.query(PeerId(i as u64 % PEERS as u64), q, 20));
                    }
                })
            })
        });
    }
    g.finish();
}

fn bench_cached_query(c: &mut Criterion) {
    let (network, queries) = setup();
    let mut g = c.benchmark_group("query/cached");
    g.throughput(Throughput::Elements(queries.len() as u64));
    g.bench_function("warm_cache", |b| {
        let cache = QueryCache::new(4_096);
        // Warm it once; every timed pass is all hits (probes all skipped).
        for (i, q) in queries.iter().enumerate() {
            network.query_cached(PeerId(i as u64 % PEERS as u64), q, 20, &cache);
        }
        b.iter(|| {
            for (i, q) in queries.iter().enumerate() {
                black_box(network.query_cached(PeerId(i as u64 % PEERS as u64), q, 20, &cache));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_single_query, bench_cached_query);
criterion_main!(benches);
