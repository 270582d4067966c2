//! Micro-benchmarks: local HDK computation — the per-peer cost of the
//! iterative key generation (Section 3.1).
//!
//! `keygen` times a from-scratch pass (every document new). `keygen_growth`
//! times what an incremental session adds to it: the same documents as
//! *old* ones, re-examined at rounds 2 and 3 for a small novelty set — the
//! pass whose cost the generator's window early-out decides.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hdk_core::window_keys::{candidate_postings, single_term_postings, RunBuilder};
use hdk_core::Key;
use hdk_corpus::{CollectionGenerator, DocId, GeneratorConfig};
use hdk_text::TermId;
use std::collections::HashSet;
use std::hint::black_box;

/// NDK single terms assumed known (the most frequent ones).
const NDK_TERMS: usize = 200;
/// How many of them (the least frequent) count as newly non-discriminative.
const NEW_TERMS: usize = 8;
/// NDK pairs assumed known at round 3 (the highest-df ones), and how many of
/// them (the lowest-df) count as newly non-discriminative.
const NDK_PAIRS: usize = 2_000;
const NEW_PAIRS: usize = 40;

struct Setup {
    docs: Vec<(DocId, Vec<TermId>)>,
    ndk1: HashSet<TermId>,
    new1: HashSet<TermId>,
    ndk_singles: HashSet<Key>,
    new_singles: HashSet<Key>,
    ndk_pairs: HashSet<Key>,
    new_pairs: HashSet<Key>,
}

impl Setup {
    fn docs(&self) -> impl Iterator<Item = (DocId, &[TermId])> {
        self.docs.iter().map(|(d, t)| (*d, t.as_slice()))
    }
}

fn setup() -> Setup {
    let coll = CollectionGenerator::new(GeneratorConfig {
        num_docs: 500,
        vocab_size: 8_000,
        avg_doc_len: 80,
        ..GeneratorConfig::default()
    })
    .generate();
    let docs: Vec<(DocId, Vec<TermId>)> = coll.iter().map(|(d, t)| (d, t.to_vec())).collect();
    // Treat the most frequent terms as NDK singles (realistic shape).
    let stats = hdk_corpus::FrequencyStats::compute(&coll);
    let mut by_freq: Vec<(u64, TermId)> = stats.iter().map(|(t, cf, _)| (cf, t)).collect();
    by_freq.sort_unstable_by_key(|&(cf, t)| (std::cmp::Reverse(cf), t));
    let frequent: Vec<TermId> = by_freq.iter().take(NDK_TERMS).map(|&(_, t)| t).collect();
    let ndk1: HashSet<TermId> = frequent.iter().copied().collect();
    let new1: HashSet<TermId> = frequent.iter().rev().take(NEW_TERMS).copied().collect();
    let ndk_singles: HashSet<Key> = ndk1.iter().map(|&t| Key::single(t)).collect();
    let new_singles: HashSet<Key> = new1.iter().map(|&t| Key::single(t)).collect();
    // Likewise the pairs with the longest posting lists as NDK pairs.
    let mut pairs: Vec<(usize, Key)> = candidate_postings(
        docs.iter().map(|(d, t)| (*d, t.as_slice())),
        20,
        2,
        &ndk1,
        &ndk_singles,
        false,
    )
    .into_iter()
    .map(|(key, list)| (list.len(), key))
    .collect();
    pairs.sort_unstable_by_key(|&(df, key)| (std::cmp::Reverse(df), key));
    pairs.truncate(NDK_PAIRS);
    let ndk_pairs: HashSet<Key> = pairs.iter().map(|&(_, key)| key).collect();
    let new_pairs: HashSet<Key> = pairs.iter().rev().take(NEW_PAIRS).map(|p| p.1).collect();
    Setup {
        docs,
        ndk1,
        new1,
        ndk_singles,
        new_singles,
        ndk_pairs,
        new_pairs,
    }
}

fn bench_keygen(c: &mut Criterion) {
    let s = setup();
    let tokens: u64 = s.docs.iter().map(|(_, t)| t.len() as u64).sum();
    let mut g = c.benchmark_group("keygen");
    g.sample_size(10);
    g.throughput(Throughput::Elements(tokens));

    g.bench_function("single_terms_500_docs", |b| {
        b.iter(|| single_term_postings(s.docs(), black_box(&HashSet::new())))
    });
    g.bench_function("pairs_w20_500_docs", |b| {
        b.iter(|| {
            candidate_postings(
                s.docs(),
                20,
                2,
                black_box(&s.ndk1),
                black_box(&s.ndk_singles),
                false,
            )
        })
    });
    g.bench_function("triples_w20_500_docs", |b| {
        b.iter(|| {
            candidate_postings(
                s.docs(),
                20,
                3,
                black_box(&s.ndk1),
                black_box(&s.ndk_pairs),
                false,
            )
        })
    });
    g.finish();

    let mut g = c.benchmark_group("keygen_growth");
    g.sample_size(10);
    g.throughput(Throughput::Elements(tokens));
    for (name, size, ndk_prev, new_prev) in [
        ("old_docs_round2", 2, &s.ndk_singles, &s.new_singles),
        ("old_docs_round3", 3, &s.ndk_pairs, &s.new_pairs),
    ] {
        g.bench_function(format!("{name}_w20_500_docs"), |b| {
            b.iter(|| {
                let mut runs = RunBuilder::default();
                runs.add_candidates(
                    s.docs(),
                    20,
                    size,
                    black_box(&s.ndk1),
                    black_box(ndk_prev),
                    false,
                    Some((&s.new1, new_prev)),
                );
                runs.finish()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_keygen);
criterion_main!(benches);
