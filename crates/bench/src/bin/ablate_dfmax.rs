//! Ablation: the `DFmax` trade-off.
//!
//! Section 5: "There is obviously a trade-off between retrieval quality
//! and bandwidth consumption [...] an increased value of DFmax results in
//! an increased bandwidth consumption during retrieval, while on the
//! contrary, offers retrieval performance that better mimics centralized
//! engines." This sweep quantifies both sides at a fixed collection.

use hdk_bench::report::{fnum, Table};
use hdk_bench::{figures, runner, ExperimentProfile};
use hdk_core::HdkNetwork;
use hdk_corpus::{partition_documents, CollectionGenerator};

fn main() {
    let profile = ExperimentProfile::from_args();
    let docs = profile.docs_per_peer * 8;
    let collection = CollectionGenerator::new(profile.generator_config(docs)).generate();
    let partitions = partition_documents(docs, 8, profile.seed);
    let (central, log) = figures::centralized_and_log(&profile, &collection);

    let base = profile.dfmax_values[0];
    let sweep: Vec<u32> = [base / 4, base / 2, base, base * 2, base * 4]
        .into_iter()
        .filter(|&d| d >= 2)
        .collect();

    let mut t = Table::new(
        "ablate_dfmax",
        &[
            "DFmax",
            "stored_per_peer",
            "inserted_per_peer",
            "retr_per_query",
            "lookups_per_query",
            "overlap_top20",
        ],
    );
    for dfmax in sweep {
        let net = HdkNetwork::build(&collection, &partitions, profile.hdk_config(dfmax));
        let m = runner::measure_system(&net.query_service(), &central, &log);
        t.row(&[
            dfmax.to_string(),
            fnum(m.stored_per_peer),
            fnum(m.inserted_per_peer),
            fnum(m.retrieval_per_query),
            fnum(m.lookups_per_query),
            fnum(m.overlap_top20),
        ]);
        eprintln!("[ablate_dfmax] DFmax={dfmax} done");
    }
    println!("Ablation — DFmax trade-off (fixed {docs}-doc collection)\n");
    t.emit();
}
