//! Micro-benchmarks: P-Grid routing and DHT operations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hdk_p2p::{hash_u64s, Dht, KeyHash, PGrid, PeerId};
use std::hint::black_box;

fn peers(n: u64) -> Vec<PeerId> {
    (0..n).map(PeerId).collect()
}

fn bench_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("dht/route");
    g.throughput(Throughput::Elements(1_000));
    for n in [16u64, 128] {
        let grid = PGrid::new(peers(n));
        let keys: Vec<KeyHash> = (0..1_000u64).map(|k| KeyHash(hash_u64s(&[k]))).collect();
        g.bench_with_input(BenchmarkId::new("pgrid", n), &n, |b, _| {
            b.iter(|| {
                let mut hops = 0u64;
                for (i, &k) in keys.iter().enumerate() {
                    hops += u64::from(grid.route(PeerId(i as u64 % n), black_box(k)).hops);
                }
                hops
            })
        });
    }
    g.finish();
}

fn bench_storage(c: &mut Criterion) {
    let mut g = c.benchmark_group("dht/storage");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("upsert_1k", |b| {
        b.iter_with_setup(
            || Dht::<u64>::new(Box::new(PGrid::new(peers(32)))),
            |dht| {
                for k in 0..1_000u64 {
                    dht.upsert(
                        PeerId(k % 32),
                        KeyHash(hash_u64s(&[k])),
                        1,
                        8,
                        || 0,
                        |v| *v += 1,
                    );
                }
                dht
            },
        )
    });
    let dht = Dht::<u64>::new(Box::new(PGrid::new(peers(32))));
    for k in 0..1_000u64 {
        dht.upsert(PeerId(0), KeyHash(hash_u64s(&[k])), 1, 8, || 0, |v| *v += 1);
    }
    g.bench_function("lookup_1k", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for k in 0..1_000u64 {
                sum += dht.lookup(PeerId(k % 32), KeyHash(hash_u64s(&[k])), |v| {
                    (v.copied().unwrap_or(0), 0, 0)
                });
            }
            sum
        })
    });
    g.finish();
}

criterion_group!(benches, bench_routing, bench_storage);
criterion_main!(benches);
