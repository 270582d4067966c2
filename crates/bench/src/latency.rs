//! The simulated-network latency sweep: one scenario (build + query
//! batch), replayed over `SimNet` configurations from LAN-fast to lossy
//! WAN, reporting what the paper's message counts *cost in time* once a
//! network model sits under them.
//!
//! Counts are backend-invariant (the RPC layer's contract), so every sweep
//! point moves the identical messages — the table isolates the pure
//! latency/queueing/loss dimension: per-kind mean / p99 / max delivery
//! latency, retransmissions, and the virtual makespan of the whole
//! scenario.

use crate::json::Json;
use crate::scenario::Scenario;
use hdk_core::{BackendConfig, HdkConfig, HdkNetwork, OverlayKind};
use hdk_p2p::{MsgKind, PeerId, SimNetConfig};
use hdk_text::TermId;

/// One sweep point: the network model and what the scenario cost under it.
#[derive(Debug, Clone)]
pub struct LatencyPoint {
    /// Label for the table (e.g. "lan", "wan", "lossy-wan").
    pub label: &'static str,
    /// The simulated network.
    pub config: SimNetConfig,
    /// Mean / p99 / max query-response latency, nanoseconds.
    pub response_mean_ns: f64,
    /// Coarse p99 bucket bound of the response latency.
    pub response_p99_ns: u64,
    /// Slowest response delivery.
    pub response_max_ns: u64,
    /// Mean insert delivery latency, nanoseconds.
    pub insert_mean_ns: f64,
    /// Retransmissions across all kinds (drop model).
    pub retries: u64,
    /// Payload bytes those retransmissions re-sent — the wire overhead of
    /// loss, kept apart from the logical byte meters (which count each
    /// message once at any loss rate).
    pub retransmission_bytes: u64,
    /// Total virtual network time of the scenario, nanoseconds.
    pub virtual_ns: u64,
}

/// The sweep's network models: an in-rack LAN, a WAN, and a lossy WAN.
pub fn sweep_configs() -> Vec<(&'static str, SimNetConfig)> {
    vec![
        (
            "lan",
            SimNetConfig {
                seed: 7,
                hop_ns: 50_000, // 50 µs per hop
                jitter_ns: 10_000,
                ns_per_byte: 1, // ~8 Gbit/s
                drop_prob: 0.0,
                timeout_ns: 1_000_000,
            },
        ),
        (
            "wan",
            SimNetConfig {
                seed: 7,
                hop_ns: 15_000_000, // 15 ms per hop
                jitter_ns: 5_000_000,
                ns_per_byte: 8, // ~1 Gbit/s
                drop_prob: 0.0,
                timeout_ns: 50_000_000,
            },
        ),
        (
            "lossy-wan",
            SimNetConfig {
                seed: 7,
                hop_ns: 15_000_000,
                jitter_ns: 5_000_000,
                ns_per_byte: 8,
                drop_prob: 0.02,
                timeout_ns: 50_000_000,
            },
        ),
    ]
}

/// Builds the scenario once per configuration and measures it. `docs`
/// documents over `peers` peers, `queries` replayed queries drawn from a
/// log of the same size by the shared corpus-crate Zipf sampler
/// ([`hdk_corpus::QueryLog::zipf_replay`]) — `skew == 0` replays a flat
/// stream, higher skews concentrate the replay on the head of the log.
pub fn run_latency_sweep(
    peers: usize,
    docs: usize,
    queries: usize,
    skew: f64,
) -> Vec<LatencyPoint> {
    let Scenario {
        collection,
        partitions,
        log,
    } = Scenario::new(peers, docs, queries);
    let replay = log.zipf_replay(skew, queries, 0x5EED);

    sweep_configs()
        .into_iter()
        .map(|(label, config)| {
            let network = HdkNetwork::build_with(
                &collection,
                &partitions,
                HdkConfig {
                    dfmax: 20,
                    ff: 3_000,
                    ..HdkConfig::default()
                },
                OverlayKind::PGrid,
                BackendConfig::SimNet(config),
            );
            let service = network.query_service();
            let batch: Vec<(PeerId, &[TermId])> = replay
                .iter()
                .enumerate()
                .map(|(pos, &qi)| {
                    (
                        PeerId(pos as u64 % peers as u64),
                        log.queries[qi].terms.as_slice(),
                    )
                })
                .collect();
            let _ = service.query_batch(&batch, 20);
            let snap = service.snapshot();
            let response = snap.latency(MsgKind::QueryResponse);
            let insert = snap.latency(MsgKind::IndexInsert);
            LatencyPoint {
                label,
                config,
                response_mean_ns: response.mean_ns(),
                response_p99_ns: response.quantile_ns(0.99),
                response_max_ns: response.max_ns,
                insert_mean_ns: insert.mean_ns(),
                retries: MsgKind::ALL.iter().map(|&k| snap.latency(k).retries).sum(),
                retransmission_bytes: MsgKind::ALL
                    .iter()
                    .map(|&k| snap.latency(k).retransmission_bytes)
                    .sum(),
                virtual_ns: service.virtual_time_ns(),
            }
        })
        .collect()
}

/// Renders the sweep as an aligned table on stdout.
pub fn print_latency_sweep(points: &[LatencyPoint]) {
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>9} {:>11} {:>12}",
        "network",
        "resp mean",
        "resp p99",
        "resp max",
        "ins mean",
        "retries",
        "retx bytes",
        "virtual"
    );
    let ms = |ns: f64| format!("{:.3}ms", ns / 1e6);
    for p in points {
        println!(
            "{:>10} {:>12} {:>12} {:>12} {:>12} {:>9} {:>11} {:>12}",
            p.label,
            ms(p.response_mean_ns),
            ms(p.response_p99_ns as f64),
            ms(p.response_max_ns as f64),
            ms(p.insert_mean_ns),
            p.retries,
            p.retransmission_bytes,
            ms(p.virtual_ns as f64),
        );
    }
}

/// Renders the sweep as a JSON document (the `--json` path of the
/// `latency_sweep` subcommand).
pub fn latency_sweep_json(points: &[LatencyPoint]) -> String {
    Json::obj([
        ("bench", "latency_sweep".into()),
        (
            "points",
            Json::arr(points.iter().map(|p| {
                Json::obj([
                    ("network", p.label.into()),
                    ("response_mean_ns", p.response_mean_ns.into()),
                    ("response_p99_ns", p.response_p99_ns.into()),
                    ("response_max_ns", p.response_max_ns.into()),
                    ("insert_mean_ns", p.insert_mean_ns.into()),
                    ("retries", p.retries.into()),
                    ("retransmission_bytes", p.retransmission_bytes.into()),
                    ("virtual_ns", p.virtual_ns.into()),
                ])
            })),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_orders_by_network_speed() {
        let points = run_latency_sweep(4, 150, 20, 0.0);
        assert_eq!(points.len(), 3);
        let (lan, wan, lossy) = (&points[0], &points[1], &points[2]);
        assert!(lan.response_mean_ns > 0.0, "LAN must still take time");
        assert!(
            wan.response_mean_ns > lan.response_mean_ns * 10.0,
            "WAN hops dominate: {} vs {}",
            wan.response_mean_ns,
            lan.response_mean_ns
        );
        assert_eq!(lan.retries + wan.retries, 0, "lossless configs never retry");
        assert_eq!(lan.retransmission_bytes + wan.retransmission_bytes, 0);
        assert!(lossy.retries > 0, "2% drop must force retransmissions");
        assert!(
            lossy.retransmission_bytes > 0,
            "retransmitted payloads must be measurable"
        );
        assert!(
            lossy.response_mean_ns >= wan.response_mean_ns,
            "loss can only slow the same message stream down"
        );
        assert!(lan.virtual_ns < wan.virtual_ns);
    }

    #[test]
    fn json_rendering_covers_every_point() {
        let points = run_latency_sweep(4, 120, 10, 1.2);
        let json = latency_sweep_json(&points);
        assert!(json.starts_with('{') && json.ends_with('}'));
        for p in &points {
            assert!(json.contains(&format!("\"network\":\"{}\"", p.label)));
        }
        assert!(json.contains("\"virtual_ns\":"));
    }
}
