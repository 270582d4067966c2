//! Property test: the key cache is never stale and never wrong, at any
//! capacity.
//!
//! A random Zipf-skewed query sequence over a small random network runs
//! through `query_cached` on four caches at once — capacities 1, 3, 16
//! and 4 096, so replacement is anywhere from constant to never — with
//! `add_documents` sessions interleaved. Whatever was hit, missed, evicted
//! or expired on the way, every outcome must carry the `(doc, score
//! bits)` of the uncached `query` on the same index state, issue no more
//! lookups than it, and leave no cache above its capacity. The same
//! contract one level up: a `/query` answered from the front-end's cache
//! reflects a document the `IndexService` added since.

use hdk_core::{spawn_http, HdkConfig, HdkNetwork, QueryCache, QueryOutcome};
use hdk_corpus::{Collection, DocId, Document};
use hdk_p2p::PeerId;
use hdk_text::{TermId, Vocabulary};
use proptest::prelude::*;
use std::io::{Read, Write};

const VOCAB: u32 = 12;
const CAPACITIES: [usize; 4] = [1, 3, 16, 4_096];

fn document(id: usize, tokens: &[u32]) -> Document {
    Document {
        id: DocId(id as u32),
        tokens: tokens.iter().map(|&t| TermId(t)).collect(),
    }
}

fn make_collection(token_docs: &[Vec<u32>]) -> Collection {
    let mut vocab = Vocabulary::new();
    for t in 0..VOCAB {
        vocab.intern(&format!("term{t:02}"));
    }
    let docs = token_docs.iter().enumerate();
    Collection::new(docs.map(|(i, toks)| document(i, toks)).collect(), vocab)
}

fn arb_docs(count: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0..VOCAB, 3..24), count)
}

/// Rank `r` of `n` with probability ∝ `1 / (r + 1)`, from a uniform draw.
fn zipf_rank(draw: u64, n: usize) -> usize {
    let weights = (0..n).map(|r| 1.0 / (r + 1) as f64);
    let mut left = draw as f64 / u64::MAX as f64 * weights.clone().sum::<f64>();
    for (rank, weight) in weights.enumerate() {
        left -= weight;
        if left <= 0.0 {
            return rank;
        }
    }
    n - 1
}

fn digest(outcome: &QueryOutcome) -> Vec<(u32, u64)> {
    let scored = outcome.results.iter();
    scored.map(|r| (r.doc.0, r.score.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_outcomes_equal_uncached_ones_at_every_capacity(
        token_docs in arb_docs(6..16),
        sessions in prop::collection::vec(arb_docs(1..4), 0..3),
        pool in prop::collection::vec(prop::collection::vec(0..VOCAB, 1..6), 2..8),
        draws in prop::collection::vec(0u64..u64::MAX, 12..48),
        dfmax in 1u32..5,
        smax in 1usize..4,
        peers in 1usize..4,
    ) {
        let collection = make_collection(&token_docs);
        let partitions = hdk_corpus::partition_documents(collection.len(), peers, 23);
        let config = HdkConfig { dfmax, smax, window: 5, ff: u64::MAX, ..HdkConfig::default() };
        let (mut indexer, network) = HdkNetwork::build(&collection, &partitions, config).into_services();
        let caches = CAPACITIES.map(QueryCache::new);
        let mut num_docs = collection.len();
        let mut sessions = sessions.into_iter();
        // One growth session after each equal share of the queries.
        let share = draws.len() / (sessions.len() + 1);
        let (mut hits, mut evictions) = (0, 0);
        for (i, draw) in draws.iter().enumerate() {
            if i > 0 && i % share == 0 {
                if let Some(session) = sessions.next() {
                    let docs = session.iter().enumerate().map(|(j, tokens)| {
                        (PeerId((i + j) as u64 % peers as u64), document(num_docs + j, tokens))
                    });
                    indexer.add_documents(docs.collect());
                    num_docs += session.len();
                }
            }
            let terms: Vec<TermId> =
                pool[zipf_rank(*draw, pool.len())].iter().map(|&t| TermId(t)).collect();
            let from = PeerId(i as u64 % peers as u64);
            let uncached = network.query(from, &terms, 10);
            for (cache, capacity) in caches.iter().zip(CAPACITIES) {
                let cached = network.query_cached(from, &terms, 10, cache);
                prop_assert_eq!(
                    digest(&cached), digest(&uncached),
                    "capacity {}, query {} diverged from the uncached call", capacity, i
                );
                prop_assert!(cached.lookups <= uncached.lookups);
                prop_assert!(cached.postings_fetched <= uncached.postings_fetched);
                prop_assert!(cache.len() <= capacity, "{} > {}", cache.len(), capacity);
            }
        }
        for cache in &caches {
            hits += cache.stats().hits;
            evictions += cache.stats().evictions;
        }
        // Not vacuous: a Zipf stream repeats, a one-key cache replaces.
        prop_assert!(hits > 0 && evictions > 0, "hits {}, evictions {}", hits, evictions);
    }
}

/// A minimal HTTP/1.1 GET, returning the body.
fn http_get(addr: std::net::SocketAddr, target: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n").expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    raw.split_once("\r\n\r\n").expect("a body").1.to_string()
}

#[test]
fn a_cached_http_query_reflects_documents_added_since() {
    let token_docs: Vec<Vec<u32>> = (0..12u32)
        .map(|i| (0..9).map(|j| (i + j * j) % VOCAB).collect())
        .collect();
    let collection = make_collection(&token_docs);
    let partitions = hdk_corpus::partition_documents(collection.len(), 3, 23);
    let config = HdkConfig {
        dfmax: 4,
        ff: u64::MAX,
        ..HdkConfig::default()
    };
    let network = HdkNetwork::build(&collection, &partitions, config);
    let (mut indexer, queries) = network.into_services();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let front = spawn_http(listener, queries.clone()).expect("spawn front-end");

    let body_of = |outcome: &QueryOutcome| -> String {
        let results = outcome.results.iter();
        let results: Vec<String> = results
            .map(|r| format!("{{\"doc\":{},\"score\":{}}}", r.doc.0, r.score))
            .collect();
        format!("\"results\":[{}]", results.join(","))
    };
    let terms = [TermId(1), TermId(5)];
    let target = "/query?q=1,5&k=20&peer=1";
    // Warm the cache: the repeat is answered by it.
    for lookups in [Some(()), None] {
        let body = http_get(front.addr(), target);
        assert_eq!(lookups.is_none(), body.contains("\"lookups\":0,"), "{body}");
        assert!(body.contains(&body_of(&queries.query(PeerId(1), &terms, 20))));
        assert!(!body.contains("{\"doc\":12,"));
    }
    // The index grows through the one writer: the epoch moves, the cached
    // keys die, and the very next `/query` ranks the new document.
    indexer.add_documents(vec![(PeerId(0), document(12, &[1, 5, 1, 5, 1, 5, 1, 5]))]);
    for _ in 0..2 {
        let body = http_get(front.addr(), target);
        assert!(body.contains("{\"doc\":12,"), "{body}");
        assert!(body.contains(&body_of(&queries.query(PeerId(1), &terms, 20))));
    }
    front.stop();
}
