//! Experiment harness reproducing the evaluation of Podnar et al.
//! (ICDE 2007): every table and figure of its Section 5 (`PAPER.md`),
//! plus the ablations and contract studies listed in the README.
//!
//! Structure:
//!
//! * [`profile`] — the experiment configuration (scaled-down defaults plus
//!   CLI overrides; `hdk-bench <subcommand> --help` prints the knobs) and
//!   the studies' positional arguments,
//! * [`report`] — aligned-TSV table output (stdout + `target/experiments/`),
//! * [`json`] — the machine-readable `BENCH_*.json` artifacts,
//! * [`runner`] — the shared network-growth sweep that measures everything
//!   Figures 3–7 plot,
//! * [`figures`] — the tables and figures built from that sweep,
//! * [`memory`] — the resident posting-storage footprint report
//!   (compressed blocks vs the decoded baseline, hot vs sealed tiers),
//! * [`latency`] — the `SimNet` latency sweep (one scenario over
//!   LAN / WAN / lossy-WAN network models),
//! * [`availability`] — the replication/churn study (vary `R`, kill
//!   peers, measure content loss, repair traffic and degraded-query
//!   latency),
//! * [`read_scaling`] — replica load spreading, hot-key replication and
//!   the query cache under a Zipf-skewed query stream,
//! * [`gossip`] — the failure-detection study (sweep gossip fanout ×
//!   suspicion window × probe loss, crash a peer, measure convergence
//!   rounds, probe traffic and stale-view failover timeouts),
//! * [`scenario`] — the collection, partition and query log the last four
//!   studies share.
//!
//! One binary, `hdk-bench`, runs each as a subcommand (`src/main.rs`;
//! `cargo run -p hdk-bench --release -- --help` lists them).

pub mod availability;
pub mod figures;
pub mod gossip;
pub mod json;
pub mod latency;
pub mod memory;
pub mod profile;
pub mod read_scaling;
pub mod report;
pub mod runner;
pub mod scenario;
