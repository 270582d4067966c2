//! Scalability study: grow the network peer by peer (constant documents
//! per peer, as in the paper's use-case assumption) and watch the two
//! quantities the paper's argument hinges on:
//!
//! * ST retrieval traffic per query **grows linearly** with the collection;
//! * HDK retrieval traffic per query **stays bounded** by `nk · DFmax`.
//!
//! Finishes with the analytic extrapolation to web scale (Figure 8 logic).
//!
//! ```text
//! cargo run --release --example scalability_study
//! ```

use p2p_hdk::prelude::*;

fn main() {
    let docs_per_peer = 300;
    let sweep = [2usize, 4, 8, 12];
    let max_docs = docs_per_peer * sweep.last().unwrap();

    // One collection, indexed in growing prefixes so points are comparable.
    let full = CollectionGenerator::new(GeneratorConfig {
        num_docs: max_docs,
        vocab_size: 15_000,
        avg_doc_len: 80,
        ..GeneratorConfig::default()
    })
    .generate();

    let dfmax = 25;
    println!("DFmax = {dfmax}, {docs_per_peer} docs/peer\n");
    println!(
        "{:>6} {:>6}  {:>14} {:>14}  {:>12} {:>12}",
        "peers", "docs", "ST store/peer", "HDK store/peer", "ST retr/q", "HDK retr/q"
    );

    let mut last = None;
    for &peers in &sweep {
        let docs = peers * docs_per_peer;
        let collection = full.prefix(docs);
        let partitions = partition_documents(docs, peers, 9);

        let st =
            HdkNetwork::build(&collection, &partitions, HdkConfig::single_term()).query_service();
        let hdk = HdkNetwork::build(
            &collection,
            &partitions,
            HdkConfig {
                dfmax,
                ff: 2_500,
                ..HdkConfig::default()
            },
        )
        .query_service();

        let central = CentralizedEngine::build(&collection);
        let log = QueryLog::generate_filtered(
            &collection,
            &QueryLogConfig {
                num_queries: 60,
                min_hits: 5,
                ..QueryLogConfig::default()
            },
            |terms| central.count_hits(terms),
        );

        let mut st_fetch = 0u64;
        let mut hdk_fetch = 0u64;
        for q in &log.queries {
            let from = PeerId(u64::from(q.id) % peers as u64);
            st_fetch += st.query(from, &q.terms, 20).postings_fetched;
            hdk_fetch += hdk.query(from, &q.terms, 20).postings_fetched;
        }
        let nq = log.len().max(1) as u64;
        let st_r = st.build_report();
        let hdk_r = hdk.build_report();
        println!(
            "{:>6} {:>6}  {:>14.0} {:>14.0}  {:>12.1} {:>12.1}",
            peers,
            docs,
            st_r.avg_stored_per_peer(),
            hdk_r.avg_stored_per_peer(),
            st_fetch as f64 / nq as f64,
            hdk_fetch as f64 / nq as f64,
        );
        last = Some((st_r, hdk_r, st_fetch / nq, hdk_fetch / nq, docs));
    }

    // Extrapolate to web scale with the measured coefficients.
    let (st_r, hdk_r, st_q, hdk_q, docs) = last.unwrap();
    let model = TrafficModel {
        st_postings_per_doc: st_r.postings_per_doc(),
        hdk_postings_per_doc: hdk_r.postings_per_doc(),
        st_retrieval_per_query_per_doc: st_q as f64 / docs as f64,
        hdk_retrieval_per_query: hdk_q as f64,
        queries_per_period: 1.5e6,
    };
    println!("\nextrapolated monthly traffic (postings), measured coefficients:");
    for m in [1e6, 1e8, 1e9] {
        println!(
            "  M = {m:>6.0e}: ST {:>10.3e}  HDK {:>10.3e}  ratio {:>6.1}",
            model.st_total(m),
            model.hdk_total(m),
            model.ratio(m)
        );
    }
    println!(
        "  HDK generates less total traffic above {:.0} documents",
        model.crossover_docs()
    );
}
