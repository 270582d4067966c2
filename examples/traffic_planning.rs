//! Capacity planning: choosing `DFmax` from network constraints.
//!
//! The paper's conclusion: the model "makes it possible to take into
//! account [...] the network related capacity constraints, and can
//! adequately adapt the various parameters of the model in order to meet
//! desired indexing and retrieval traffic requirements". This example does
//! that concretely: given a per-query posting budget and an expected query
//! size mix, derive the admissible `DFmax`, then verify the bound
//! empirically on a live network.
//!
//! ```text
//! cargo run --release --example traffic_planning
//! ```

use p2p_hdk::model::retrieval_cost::{keys_for_query, retrieval_traffic_bound};
use p2p_hdk::prelude::*;

fn main() {
    // Requirement: a query may move at most this many postings end-to-end
    // (e.g. derived from link capacity and target latency).
    let budget_postings_per_query = 2_000u64;
    // Expected workload: mostly 2–3 term queries (the paper's log averages
    // 2.3 terms; sizes above smax share the truncated lattice).
    let smax = 3;
    let design_query_size = 3; // plan for the worst common case

    let nk = keys_for_query(design_query_size, smax);
    let dfmax = (budget_postings_per_query / nk) as u32;
    println!(
        "budget {budget_postings_per_query} postings/query, design |q| = {design_query_size} \
         (nk = {nk}) -> DFmax <= {dfmax}"
    );
    for q in 2..=8 {
        println!(
            "  worst-case |q| = {q}: nk = {:>2}, bound = {:>6} postings",
            keys_for_query(q, smax),
            retrieval_traffic_bound(q, smax, dfmax)
        );
    }

    // Verify on a live network: no query may exceed its bound.
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: 1_500,
        vocab_size: 10_000,
        avg_doc_len: 80,
        ..GeneratorConfig::default()
    })
    .generate();
    let partitions = partition_documents(collection.len(), 6, 3);
    // Only retrieval is measured, so a bare read-path handle suffices.
    let network = HdkNetwork::build(
        &collection,
        &partitions,
        HdkConfig {
            dfmax,
            smax,
            ff: 3_000,
            ..HdkConfig::default()
        },
    )
    .query_service();
    let central = CentralizedEngine::build(&collection);
    let log = QueryLog::generate_filtered(
        &collection,
        &QueryLogConfig {
            num_queries: 100,
            min_hits: 5,
            ..QueryLogConfig::default()
        },
        |terms| central.count_hits(terms),
    );

    let mut worst = 0u64;
    let mut total = 0u64;
    let mut violations = 0usize;
    for q in &log.queries {
        let out = network.query(PeerId(0), &q.terms, 20);
        worst = worst.max(out.postings_fetched);
        total += out.postings_fetched;
        if out.postings_fetched > retrieval_traffic_bound(q.terms.len(), smax, dfmax) {
            violations += 1;
        }
    }
    println!(
        "\nmeasured over {} queries: mean {:.0}, worst {} postings/query, {} bound violations",
        log.len(),
        total as f64 / log.len().max(1) as f64,
        worst,
        violations
    );
    assert_eq!(violations, 0, "the nk*DFmax bound must hold");
    println!("the nk * DFmax bound holds for every query — capacity plan is safe");
}
