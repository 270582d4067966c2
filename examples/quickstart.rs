//! Quickstart: build an HDK P2P index over a generated collection, run a
//! few queries, and inspect the costs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use p2p_hdk::prelude::*;

fn main() {
    // 1. A synthetic Wikipedia-like collection (deterministic: same seed,
    //    same collection) distributed randomly over 8 peers.
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: 2_000,
        vocab_size: 12_000,
        avg_doc_len: 80,
        ..GeneratorConfig::default()
    })
    .generate();
    let stats = collection.stats();
    println!(
        "collection: {} docs, {} tokens, |T| = {}, avg len {:.1}",
        stats.num_documents, stats.sample_size, stats.vocab_size, stats.avg_doc_len
    );

    let peers = 8;
    let partitions = partition_documents(collection.len(), peers, 42);

    // 2. Build the distributed HDK index (paper parameters scaled to this
    //    collection size — see HdkConfig::scaled_for).
    let config = HdkConfig::scaled_for(stats.sample_size as u64, stats.num_documents);
    println!(
        "HDK config: DFmax = {}, smax = {}, w = {}, Ff = {}",
        config.dfmax, config.smax, config.window, config.ff
    );
    let network = HdkNetwork::build(&collection, &partitions, config);
    // The read path is a clonable service handle: share it across as many
    // query threads as you like (to simulate network latency instead,
    // build with `HdkNetwork::build_with(..., BackendConfig::SimNet(..))`).
    let queries = network.query_service();
    let report = queries.build_report();
    println!(
        "index built in {} rounds: {} keys, {:.0} postings stored per peer ({:.0} inserted)",
        report.rounds,
        report.counts.total_keys(),
        report.avg_stored_per_peer(),
        report.avg_inserted_per_peer(),
    );

    // 3. A query log sampled from the collection (multi-term queries with
    //    co-occurring terms, like the paper's Wikipedia log).
    let central = CentralizedEngine::build(&collection);
    let log = QueryLog::generate_filtered(
        &collection,
        &QueryLogConfig {
            num_queries: 10,
            ..QueryLogConfig::default()
        },
        |terms| central.count_hits(terms),
    );

    // 4. Query the P2P network from different peers and compare with the
    //    centralized BM25 engine.
    for q in &log.queries {
        let from = PeerId(u64::from(q.id) % peers as u64);
        let outcome = queries.query(from, &q.terms, 20);
        let reference = central.search(&q.terms, 20);
        let overlap = top_k_overlap(&outcome.results, &reference, 20);
        let words: Vec<&str> = q
            .terms
            .iter()
            .map(|&t| collection.vocab().term(t))
            .collect();
        println!(
            "query {:<30} -> {:>2} results, {:>3} lookups, {:>5} postings fetched, {:>5.1}% top-20 overlap",
            words.join(" "),
            outcome.results.len(),
            outcome.lookups,
            outcome.postings_fetched,
            overlap,
        );
    }

    // 5. The headline property: retrieval traffic is bounded by nk * DFmax
    //    per query, no matter how large the collection grows.
    let bound = queries.max_lookups(3) * u64::from(queries.config().dfmax);
    println!("\nper-query traffic bound for a 3-term query: nk * DFmax = {bound} postings");
}
