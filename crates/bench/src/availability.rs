//! The availability study: what structural replication buys under peer
//! failure, and what it costs.
//!
//! For each replication factor `R ∈ {1, 2, 3}` the study builds the same
//! collection over the same peers on the simulated network, then walks one
//! failure episode end to end:
//!
//! 1. **healthy** — a query batch against the intact network (baseline
//!    latency);
//! 2. **crash** — `kill` peers fail at once (no handover); the damage
//!    report counts lost and degraded entries;
//! 3. **degraded** — the same query batch during degradation: per-key
//!    failover serves surviving replicas, dead-primary lookups pay
//!    retransmission timeouts, and any *lost* content surfaces as queries
//!    diverging from the never-failed reference;
//! 4. **repair** — the background sweep re-materializes missing copies
//!    (its traffic is the `Repair` category);
//! 5. **repaired** — the query batch once more: with `R ≥ 2` and a single
//!    crash, answers must be bit-identical to the never-failed network.
//!
//! The headline numbers: at `R = 1` a single crash silently loses index
//! fractions (diverged queries, nonzero loss); at `R = 2` the same crash
//! loses nothing, costs one repair wave, and only shows up as degraded
//! query latency until the sweep runs.

use crate::report::{fnum, Table};
use crate::scenario::{Digest, Scenario};
use hdk_core::{BackendConfig, HdkConfig, HdkNetwork, OverlayKind};
use hdk_p2p::{MsgKind, PeerId, SimNetConfig, TrafficSnapshot};

/// One `(R, kill)` episode's measurements.
#[derive(Debug, Clone)]
pub struct AvailabilityPoint {
    /// Replication factor.
    pub replication: usize,
    /// Peers killed in the crash wave.
    pub killed: usize,
    /// Stored keys before the crash.
    pub keys_total: u64,
    /// Entries destroyed outright (last copy died).
    pub keys_lost: u64,
    /// Postings those entries carried.
    pub postings_lost: u64,
    /// Entries left under-replicated until repair.
    pub keys_degraded: u64,
    /// Repair messages / postings / bytes the sweep moved.
    pub repair_messages: u64,
    /// Postings re-materialized by the repair sweep.
    pub repair_postings: u64,
    /// Bytes re-materialized by the repair sweep.
    pub repair_bytes: u64,
    /// Mean query-response delivery latency, healthy network (ns).
    pub healthy_mean_ns: f64,
    /// Mean during degradation (failover timeouts included), ns.
    pub degraded_mean_ns: f64,
    /// Mean after repair, ns.
    pub repaired_mean_ns: f64,
    /// Failover/drop retransmissions during the degraded batch.
    pub degraded_retries: u64,
    /// Bytes those retransmissions re-sent (separate from logical bytes).
    pub degraded_retransmission_bytes: u64,
    /// Queries whose top-k diverged from the never-failed reference,
    /// during degradation (content loss surfaces here at `R = 1`).
    pub diverged_degraded: usize,
    /// Diverged queries after repair (must be 0 whenever nothing was
    /// lost).
    pub diverged_repaired: usize,
}

fn response_mean(now: &TrafficSnapshot, before: &TrafficSnapshot) -> f64 {
    now.since(before).latency(MsgKind::QueryResponse).mean_ns()
}

/// Runs the study: `docs` documents over `peers` peers, `queries` log
/// queries per phase, killing `kill` peers per episode, for
/// `R ∈ {1, 2, 3}`.
///
/// # Panics
/// Panics unless `peers > kill` (somebody must survive).
pub fn run_availability_study(
    peers: usize,
    docs: usize,
    queries: usize,
    kill: usize,
) -> Vec<AvailabilityPoint> {
    assert!(peers > kill, "the crash wave must leave survivors");
    let scenario = Scenario::new(peers, docs, queries);
    // A WAN with meaningful timeouts, so failover degradation is visible.
    let sim = SimNetConfig {
        seed: 29,
        hop_ns: 400_000,
        jitter_ns: 100_000,
        ns_per_byte: 8,
        drop_prob: 0.0,
        timeout_ns: 25_000_000,
    };
    let survivor = PeerId(kill as u64); // first peer the wave spares

    (1..=3usize)
        .map(|replication| {
            let config = HdkConfig {
                ff: (docs as u64 * 20).max(2_000),
                dfmax: (docs as u32 / 10).max(10),
                replication,
                ..HdkConfig::default()
            };
            // Never-failed reference (outcomes are backend-invariant, so
            // the cheap in-process build provides the expected digests).
            let reference =
                HdkNetwork::build(&scenario.collection, &scenario.partitions, config.clone());
            let expected = scenario.digests(&reference.query_service(), survivor);

            let (mut indexer, queries) = HdkNetwork::build_with(
                &scenario.collection,
                &scenario.partitions,
                config,
                OverlayKind::PGrid,
                BackendConfig::SimNet(sim),
            )
            .into_services();
            let keys_total = queries.index().index_counts().total_keys();

            let t0 = queries.snapshot();
            let healthy = scenario.digests(&queries, survivor);
            assert_eq!(healthy, expected, "healthy network diverged");
            let t1 = queries.snapshot();

            let victims: Vec<PeerId> = (0..kill as u64).map(PeerId).collect();
            let loss = indexer.fail_peers(victims);

            let degraded = scenario.digests(&queries, survivor);
            let t2 = queries.snapshot();
            let degraded_window = t2.since(&t1);
            let repair = indexer.repair();
            let t3 = queries.snapshot();
            let repaired = scenario.digests(&queries, survivor);
            let t4 = queries.snapshot();

            let diverge =
                |got: &[Digest]| got.iter().zip(&expected).filter(|(g, w)| g != w).count();
            AvailabilityPoint {
                replication,
                killed: kill,
                keys_total,
                keys_lost: loss.keys_lost,
                postings_lost: loss.postings_lost,
                keys_degraded: loss.keys_degraded,
                repair_messages: repair.copies,
                repair_postings: repair.postings,
                repair_bytes: repair.bytes,
                healthy_mean_ns: response_mean(&t1, &t0),
                degraded_mean_ns: response_mean(&t2, &t1),
                repaired_mean_ns: response_mean(&t4, &t3),
                degraded_retries: degraded_window.latency(MsgKind::QueryLookup).retries,
                degraded_retransmission_bytes: degraded_window
                    .latency(MsgKind::QueryLookup)
                    .retransmission_bytes,
                diverged_degraded: diverge(&degraded),
                diverged_repaired: diverge(&repaired),
            }
        })
        .collect()
}

/// Renders the study as an aligned table (and TSV).
pub fn print_availability_study(points: &[AvailabilityPoint]) {
    let mut table = Table::new(
        "availability",
        &[
            "R",
            "killed",
            "keys",
            "lost",
            "degraded",
            "repair_msgs",
            "repair_post",
            "q_healthy",
            "q_degraded",
            "q_repaired",
            "retries",
            "retx_bytes",
            "bad_deg",
            "bad_rep",
        ],
    );
    let ms = |ns: f64| format!("{:.2}ms", ns / 1e6);
    for p in points {
        table.row(&[
            p.replication.to_string(),
            p.killed.to_string(),
            p.keys_total.to_string(),
            p.keys_lost.to_string(),
            p.keys_degraded.to_string(),
            p.repair_messages.to_string(),
            p.repair_postings.to_string(),
            ms(p.healthy_mean_ns),
            ms(p.degraded_mean_ns),
            ms(p.repaired_mean_ns),
            p.degraded_retries.to_string(),
            p.degraded_retransmission_bytes.to_string(),
            p.diverged_degraded.to_string(),
            p.diverged_repaired.to_string(),
        ]);
    }
    table.emit();
    let _ = fnum(0.0); // keep the formatting helper linked for TSV users
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_crash_episode_has_the_expected_shape() {
        let points = run_availability_study(6, 150, 12, 1);
        assert_eq!(points.len(), 3);
        let (r1, r2, r3) = (&points[0], &points[1], &points[2]);
        // R=1: real loss, nothing repairable, diverged answers persist.
        assert!(r1.keys_lost > 0, "R=1 must lose the victim's fraction");
        assert_eq!(r1.repair_messages, 0);
        assert!(r1.diverged_repaired > 0, "lost content cannot come back");
        // R=2 and R=3: zero loss, repair traffic flows, answers identical
        // after (and even during) the degradation window.
        for p in [r2, r3] {
            assert_eq!(p.keys_lost, 0, "R={} lost content", p.replication);
            assert!(p.repair_messages > 0);
            assert_eq!(p.diverged_degraded, 0);
            assert_eq!(p.diverged_repaired, 0);
            assert!(
                p.degraded_retries > 0,
                "dead-primary lookups must pay timeouts"
            );
            assert!(p.degraded_retransmission_bytes > 0);
            assert!(p.degraded_mean_ns > p.healthy_mean_ns);
        }
        // Replication multiplies what a crash degrades, and repair moves
        // at least as much at R=3 as at R=2.
        assert!(r3.repair_postings >= r2.repair_postings);
    }
}
