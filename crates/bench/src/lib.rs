//! Experiment harness reproducing the evaluation of Podnar et al.
//! (ICDE 2007): every table and figure, plus the ablations listed in
//! `DESIGN.md`.
//!
//! Structure:
//!
//! * [`profile`] — the experiment configuration (scaled-down defaults plus
//!   CLI overrides; `--help` on any binary prints the knobs),
//! * [`report`] — aligned-TSV table output (stdout + `target/experiments/`),
//! * [`runner`] — the shared network-growth sweep that measures everything
//!   Figures 3–7 plot,
//! * [`memory`] — the resident posting-storage footprint report
//!   (compressed blocks vs the decoded baseline, hot vs sealed tiers),
//! * [`latency`] — the `SimNet` latency sweep (one scenario over
//!   LAN / WAN / lossy-WAN network models),
//! * [`availability`] — the replication/churn study (vary `R`, kill
//!   peers, measure content loss, repair traffic and degraded-query
//!   latency),
//! * [`gossip`] — the failure-detection study (sweep gossip fanout ×
//!   suspicion window × probe loss, crash a peer, measure convergence
//!   rounds, probe traffic and stale-view failover timeouts).
//!
//! Binaries (`cargo run -p hdk-bench --release --bin <name>`): `table1`,
//! `table2`, `fig8`, `theory`, `experiments` (Tables 1–2 and Figures 3–8
//! from one growth sweep), `memfoot`, `latency_sweep`, `availability`, `restart_study`
//! (segment-log crash-restart recovery, asserted bit-identical),
//! `serving_study` ([`serving`]: real peer processes + HTTP front-end
//! under closed-loop load, asserted bit-identical to in-process),
//! `gossip_study` ([`gossip`]: SWIM-style failure detection without the
//! liveness oracle, asserted against the detection contract),
//! `read_scaling`, `ablate_window`, `ablate_redundancy`, `ablate_dfmax`.

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
pub mod serving;

pub use availability::{print_availability_study, run_availability_study, AvailabilityPoint};
pub use json::Json;
pub use latency::{run_latency_sweep, LatencyPoint};
pub use profile::ExperimentProfile;
pub use read_scaling::{run_read_scaling, ReadScalingReport};
pub use report::Table;
pub use runner::{run_growth_sweep, PointMeasurement, SystemMeasurement};
pub use serving::{run_serving_study, ServingParams, ServingReport};
