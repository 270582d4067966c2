//! Ablation: redundancy filtering (Definition 5).
//!
//! Compares three generator variants at a small fixed collection:
//!
//! * `intrinsic` — the paper's practical generator (extend NDKs only),
//! * `exact` — Definition 5 enforced verbatim (all sub-keys NDK),
//! * `no-filter` — index *every* discriminative key; the configuration
//!   redundancy filtering exists to avoid (key-count explosion).

use hdk_bench::report::{fnum, Table};
use hdk_bench::{figures, runner, ExperimentProfile};
use hdk_core::{HdkConfig, HdkNetwork};
use hdk_corpus::{partition_documents, CollectionGenerator};

fn main() {
    let profile = ExperimentProfile::from_args();
    // Deliberately small: the no-filter variant is exponential in spirit.
    let docs = profile.docs_per_peer.min(500) * 2;
    let collection = CollectionGenerator::new(profile.generator_config(docs)).generate();
    let partitions = partition_documents(docs, 2, profile.seed);
    let (central, log) = figures::centralized_and_log(&profile, &collection);
    let base = profile.hdk_config(profile.dfmax_values[0]);

    let variants: [(&str, HdkConfig); 3] = [
        ("intrinsic (paper)", base.clone()),
        (
            "exact Definition 5",
            HdkConfig {
                exact_intrinsic: true,
                ..base.clone()
            },
        ),
        (
            "no redundancy filter",
            HdkConfig {
                redundancy_filtering: false,
                replication: 1,
                ..base
            },
        ),
    ];

    let mut t = Table::new(
        "ablate_redundancy",
        &[
            "variant",
            "keys_total",
            "keys_size2",
            "keys_size3",
            "inserted_per_peer",
            "overlap_top20",
            "retr_per_query",
        ],
    );
    for (name, config) in variants {
        let net = HdkNetwork::build(&collection, &partitions, config);
        let m = runner::measure_system(&net.query_service(), &central, &log);
        let counts = net.index().index_counts();
        t.row(&[
            name.to_owned(),
            counts.total_keys().to_string(),
            (counts.hdk_keys[1] + counts.ndk_keys[1]).to_string(),
            (counts.hdk_keys[2] + counts.ndk_keys[2]).to_string(),
            fnum(m.inserted_per_peer),
            fnum(m.overlap_top20),
            fnum(m.retrieval_per_query),
        ]);
        eprintln!("[ablate_redundancy] {name} done");
    }
    println!("Ablation — redundancy filtering (fixed {docs}-doc collection)\n");
    t.emit();
}
