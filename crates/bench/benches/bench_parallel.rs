//! Parallel-indexing scaling: the bulk-synchronous round loop and the
//! batched query path at 1 thread vs. the full pool, on a 32-peer
//! collection. The 1-thread numbers are the single-threaded baseline; the
//! determinism tests (`tests/thread_invariance.rs`) prove both configs
//! produce bit-identical results, so any speedup is free.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hdk_core::{HdkConfig, HdkNetwork};
use hdk_corpus::{
    partition_documents, CollectionGenerator, GeneratorConfig, QueryLog, QueryLogConfig,
};
use hdk_p2p::PeerId;
use hdk_text::TermId;
use std::hint::black_box;

const PEERS: usize = 32;

fn collection() -> hdk_corpus::Collection {
    CollectionGenerator::new(GeneratorConfig {
        num_docs: 1_600,
        vocab_size: 8_000,
        avg_doc_len: 60,
        num_topics: 40,
        topic_vocab: 60,
        ..GeneratorConfig::default()
    })
    .generate()
}

fn hdk_config() -> HdkConfig {
    HdkConfig {
        dfmax: 20,
        ff: 8_000,
        ..HdkConfig::default()
    }
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

fn bench_build(c: &mut Criterion) {
    let coll = collection();
    let parts = partition_documents(coll.len(), PEERS, 11);
    let mut g = c.benchmark_group("parallel/build_32peers");
    g.sample_size(10);
    g.throughput(Throughput::Elements(coll.len() as u64));
    for threads in [Some(1), None] {
        let label = threads.map_or("default".to_string(), |n| n.to_string());
        g.bench_with_input(BenchmarkId::new("threads", label), &threads, |b, &t| {
            b.iter(|| {
                with_threads(t, || {
                    HdkNetwork::build(black_box(&coll), &parts, hdk_config())
                })
            })
        });
    }
    g.finish();
}

fn bench_query_batch(c: &mut Criterion) {
    let coll = collection();
    let parts = partition_documents(coll.len(), PEERS, 11);
    let network = HdkNetwork::build(&coll, &parts, hdk_config());
    let log = QueryLog::generate(
        &coll,
        &QueryLogConfig {
            num_queries: 400,
            ..QueryLogConfig::default()
        },
    );
    let batch: Vec<(PeerId, &[TermId])> = log
        .queries
        .iter()
        .map(|q| (PeerId(u64::from(q.id) % PEERS as u64), q.terms.as_slice()))
        .collect();
    let mut g = c.benchmark_group("parallel/query_batch");
    g.throughput(Throughput::Elements(batch.len() as u64));
    for threads in [Some(1), None] {
        let label = threads.map_or("default".to_string(), |n| n.to_string());
        g.bench_with_input(BenchmarkId::new("threads", label), &threads, |b, &t| {
            b.iter(|| with_threads(t, || network.query_batch(black_box(&batch), 20)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_build, bench_query_batch);
criterion_main!(benches);
