//! End-to-end benchmarks: building the distributed index (ST vs HDK) and
//! query throughput on both — the computational cost behind the traffic
//! numbers of Figures 3–6.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hdk_core::{HdkConfig, HdkNetwork, SingleTermNetwork};
use hdk_corpus::{
    partition_documents, Collection, CollectionGenerator, GeneratorConfig, QueryLog, QueryLogConfig,
};
use hdk_p2p::PeerId;
use std::hint::black_box;

fn setup() -> (Collection, Vec<Vec<hdk_corpus::DocId>>) {
    let coll = CollectionGenerator::new(GeneratorConfig {
        num_docs: 1_200,
        vocab_size: 10_000,
        avg_doc_len: 80,
        ..GeneratorConfig::default()
    })
    .generate();
    let parts = partition_documents(coll.len(), 8, 5);
    (coll, parts)
}

fn hdk_config() -> HdkConfig {
    HdkConfig {
        dfmax: 25,
        ff: 3_000,
        ..HdkConfig::default()
    }
}

fn bench_build(c: &mut Criterion) {
    let (coll, parts) = setup();
    let mut g = c.benchmark_group("e2e/build");
    g.sample_size(10);
    g.throughput(Throughput::Elements(coll.len() as u64));
    g.bench_function("st_1200_docs_8_peers", |b| {
        b.iter(|| SingleTermNetwork::build(black_box(&coll), &parts))
    });
    g.bench_function("hdk_1200_docs_8_peers", |b| {
        b.iter(|| HdkNetwork::build(black_box(&coll), &parts, hdk_config()))
    });
    g.finish();
}

fn bench_query(c: &mut Criterion) {
    let (coll, parts) = setup();
    let st = SingleTermNetwork::build(&coll, &parts);
    let hdk = HdkNetwork::build(&coll, &parts, hdk_config());
    let log = QueryLog::generate(
        &coll,
        &QueryLogConfig {
            num_queries: 100,
            ..QueryLogConfig::default()
        },
    );
    let mut g = c.benchmark_group("e2e/query");
    g.throughput(Throughput::Elements(log.len() as u64));
    g.bench_function("st_top20_batch", |b| {
        b.iter(|| {
            for q in &log.queries {
                black_box(st.query(PeerId(u64::from(q.id) % 8), &q.terms, 20));
            }
        })
    });
    g.bench_function("hdk_top20_batch", |b| {
        b.iter(|| {
            for q in &log.queries {
                black_box(hdk.query(PeerId(u64::from(q.id) % 8), &q.terms, 20));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_build, bench_query);
criterion_main!(benches);
