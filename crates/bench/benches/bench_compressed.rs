//! Decoded-vs-block storage on the three hot paths the compressed-posting
//! refactor touched: insert (merge an incoming batch into the resident
//! list), lookup (hand the stored postings to a querying peer), and rank
//! (stream the retrieved postings through the scorer).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hdk_corpus::DocId;
use hdk_ir::{Bm25, CompressedPostings, Posting, PostingList};
use std::hint::black_box;

fn list(n: u32, start: u32, stride: u32) -> PostingList {
    PostingList::from_sorted(
        (0..n)
            .map(|i| Posting {
                doc: DocId(start + i * stride),
                tf: 1 + i % 7,
                doc_len: 80 + i % 40,
            })
            .collect(),
    )
}

/// Insert path: merge a 64-posting batch into a 4k-posting resident list.
fn bench_insert(c: &mut Criterion) {
    let resident_list = list(4_000, 0, 3);
    let batch_list = list(64, 1, 200);
    let resident_block = CompressedPostings::from_list(&resident_list);
    let batch_block = CompressedPostings::from_list(&batch_list);
    let mut g = c.benchmark_group("compressed/insert");
    g.throughput(Throughput::Elements(4_064));
    g.bench_function("decoded_union", |b| {
        b.iter(|| {
            let merged = black_box(&resident_list).union(black_box(&batch_list));
            let new_docs = batch_list
                .docs()
                .filter(|&d| !resident_list.contains_doc(d))
                .count();
            (merged, new_docs)
        })
    });
    g.bench_function("block_merge_counting", |b| {
        b.iter(|| black_box(&resident_block).merge_counting(black_box(&batch_block)))
    });
    g.finish();
}

/// Lookup path: the response payload handed to a querying peer. The block
/// clone is a refcount bump; the decoded clone copies every posting.
fn bench_lookup(c: &mut Criterion) {
    let stored_list = list(4_000, 0, 3);
    let stored_block = CompressedPostings::from_list(&stored_list);
    let mut g = c.benchmark_group("compressed/lookup");
    g.throughput(Throughput::Elements(4_000));
    g.bench_function("decoded_clone", |b| {
        b.iter(|| black_box(&stored_list).clone())
    });
    g.bench_function("block_clone", |b| {
        b.iter(|| black_box(&stored_block).clone())
    });
    g.finish();
}

/// Rank path: BM25 over the retrieved postings — decode-then-scan vs
/// streaming straight off the block.
fn bench_rank(c: &mut Criterion) {
    let stored_block = CompressedPostings::from_list(&list(4_000, 0, 3));
    let bm25 = Bm25::default();
    let score = |p: &Posting| bm25.score(p.tf, p.doc_len, 100.0, 500, 100_000);
    let mut g = c.benchmark_group("compressed/rank");
    g.throughput(Throughput::Elements(4_000));
    g.bench_function("decode_then_rank", |b| {
        b.iter(|| {
            let decoded = black_box(&stored_block).decode();
            decoded.postings().iter().map(score).sum::<f64>()
        })
    });
    g.bench_function("stream_block", |b| {
        b.iter(|| {
            black_box(&stored_block)
                .iter()
                .map(|p| score(&p))
                .sum::<f64>()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_insert, bench_lookup, bench_rank);
criterion_main!(benches);
