//! The read-scaling study: replica load spreading, popularity-driven
//! hot-key replication and the query cache under a Zipf-skewed
//! query stream — measured over `R ∈ {1,2,3}` × `s ∈ {0, 0.8, 1.2}`, with
//! the three read-scaling invariants asserted by the run itself (spread
//! `max ≤ 1.3 × mean` at `R=3, s=1.2`; ≥ 5× head lookup-message drop
//! with the warm cache; hot promotion unloads the hottest peer).
//!
//! ```text
//! cargo run -p hdk-bench --release --bin read_scaling [peers docs queries samples]
//! ```
//!
//! Emits the machine-readable artifact `BENCH_read_scaling.json` in the
//! working directory alongside the stdout tables.

use hdk_bench::read_scaling::{print_read_scaling, read_scaling_json, run_read_scaling};

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("numeric args: peers docs queries samples"))
        .collect();
    let peers = args.first().copied().unwrap_or(8);
    let docs = args.get(1).copied().unwrap_or(240);
    let queries = args.get(2).copied().unwrap_or(24);
    let samples = args.get(3).copied().unwrap_or(400);
    eprintln!("[read_scaling] peers={peers} docs={docs} queries={queries} samples={samples}");
    let report = run_read_scaling(peers, docs, queries, samples);
    print_read_scaling(&report);
    let json = read_scaling_json(&report);
    let path = "BENCH_read_scaling.json";
    match std::fs::write(path, format!("{json}\n")) {
        Ok(()) => eprintln!("[read_scaling] wrote {path}"),
        Err(e) => eprintln!("note: could not write {path}: {e}"),
    }
}
