//! Ablation: proximity-window size `w`.
//!
//! Section 3.1 motivates proximity filtering as the lever that keeps the
//! key vocabulary manageable; Theorem 3 predicts the index growing with
//! `C(w-1, s-1)`. This sweep varies `w` at a fixed collection and reports
//! key counts, index size, indexing traffic and retrieval quality.

use hdk_bench::report::{fnum, Table};
use hdk_bench::{figures, runner, ExperimentProfile};
use hdk_core::HdkNetwork;
use hdk_corpus::{partition_documents, CollectionGenerator};

fn main() {
    let profile = ExperimentProfile::from_args();
    let docs = (profile.docs_per_peer * 4).min(2_000);
    let collection = CollectionGenerator::new(profile.generator_config(docs)).generate();
    let partitions = partition_documents(docs, 4, profile.seed);
    let (central, log) = figures::centralized_and_log(&profile, &collection);

    let mut t = Table::new(
        "ablate_window",
        &[
            "w",
            "keys_total",
            "keys_size2",
            "keys_size3",
            "stored_per_peer",
            "inserted_per_peer",
            "overlap_top20",
        ],
    );
    for w in [5, 10, 20, 40] {
        let mut config = profile.hdk_config(profile.dfmax_values[0]);
        config.window = w;
        let net = HdkNetwork::build(&collection, &partitions, config);
        let m = runner::measure_system(&net.query_service(), &central, &log);
        let counts = net.index().index_counts();
        t.row(&[
            w.to_string(),
            counts.total_keys().to_string(),
            (counts.hdk_keys[1] + counts.ndk_keys[1]).to_string(),
            (counts.hdk_keys[2] + counts.ndk_keys[2]).to_string(),
            fnum(m.stored_per_peer),
            fnum(m.inserted_per_peer),
            fnum(m.overlap_top20),
        ]);
        eprintln!("[ablate_window] w={w} done");
    }
    println!("Ablation — proximity window w (fixed {docs}-doc collection)\n");
    t.emit();
}
