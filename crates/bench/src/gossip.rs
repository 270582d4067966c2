//! The gossip membership study: what failure detection costs across the
//! `fanout × suspicion window` grid, with and without probe loss.
//!
//! Every grid point walks one crash episode end to end with the liveness
//! oracle switched off (`HdkConfig::gossip` with `fanout ≥ 1`):
//!
//! 1. **healthy** — a query batch against the intact network;
//! 2. **crash** — one peer fails; *nobody calls repair*;
//! 3. **detection window** — the same batch again: queries route by the
//!    stale per-peer views and pay failover timeouts at the corpse;
//! 4. **convergence** — gossip rounds run until every live view matches
//!    ground truth; the round that confirms the death in the last view
//!    fires the repair sweep itself;
//! 5. **post-convergence** — the batch once more: converged views route
//!    around the dead peer for free (zero new failover timeouts) and the
//!    answers are bit-identical to a never-failed reference.
//!
//! The study *asserts* the detection contract as it runs — zero false
//! positives under loss-free probing, bounded convergence under loss,
//! zero post-convergence failover timeouts — so the CI smoke run fails
//! loudly when the subsystem regresses.

use crate::json::Json;
use crate::report::Table;
use hdk_core::{HdkConfig, HdkNetwork, QueryService};
use hdk_corpus::{
    partition_documents, CollectionGenerator, GeneratorConfig, QueryLog, QueryLogConfig,
};
use hdk_p2p::{GossipConfig, MsgKind, PeerId};
use hdk_text::TermId;

/// Convergence budget per episode: suspicion window plus dissemination,
/// padded generously because lossy probes retry across rounds.
pub const ROUND_CAP: u32 = 64;

/// One `(fanout, suspicion_rounds, loss_prob)` episode's measurements.
#[derive(Debug, Clone)]
pub struct GossipPoint {
    /// Probe targets per peer per round.
    pub fanout: usize,
    /// Rounds an unrefuted suspicion survives before confirmation.
    pub suspicion_rounds: u32,
    /// Probe-loss probability (drawn from the gossip seed — identical on
    /// every backend).
    pub loss_prob: f64,
    /// Rounds from the crash until every live view matched ground truth.
    pub rounds_to_converge: u32,
    /// Gossip messages those rounds moved (delivered pings + acks).
    pub gossip_messages: u64,
    /// Digest bytes those rounds moved.
    pub gossip_bytes: u64,
    /// Probes that went unanswered during convergence — the corpse never
    /// acks, and under `loss_prob > 0` the loss draw swallows more.
    pub probes_failed: u64,
    /// Live peers transiently (and falsely) confirmed dead at any point
    /// during convergence — must be 0 when `loss_prob == 0`.
    pub false_positive_peak: usize,
    /// Copies the gossip-triggered repair sweep re-materialized.
    pub repair_copies: u64,
    /// Failover timeouts queries paid during the detection window.
    pub timeouts_detection: u64,
    /// Failover timeouts paid *after* convergence — must be 0.
    pub timeouts_post: u64,
    /// Post-convergence queries diverging from the never-failed
    /// reference — must be 0 (the triggered repair restored everything).
    pub diverged_post: usize,
}

type Digest = Vec<(u32, u64)>;

fn digests(service: &QueryService, from: PeerId, queries: &[Vec<TermId>]) -> Vec<Digest> {
    queries
        .iter()
        .map(|terms| {
            service
                .query(from, terms, 20)
                .results
                .iter()
                .map(|r| (r.doc.0, r.score.to_bits()))
                .collect()
        })
        .collect()
}

/// Runs the study: `docs` documents over `peers` peers, `queries` log
/// queries per phase, one crash per episode, over
/// `fanout ∈ {1, 2, 3} × suspicion ∈ {2, 3} × loss ∈ {0, 0.2}`.
///
/// # Panics
/// Panics when any grid point violates the detection contract (see the
/// module docs) — the study is its own smoke check.
pub fn run_gossip_study(peers: usize, docs: usize, queries: usize) -> Vec<GossipPoint> {
    assert!(peers >= 4, "the crash must leave a detectable majority");
    let collection = CollectionGenerator::new(GeneratorConfig {
        num_docs: docs,
        vocab_size: (docs * 12).max(2_000),
        avg_doc_len: 60,
        num_topics: (docs / 12).max(8),
        topic_vocab: 50,
        ..GeneratorConfig::default()
    })
    .generate();
    let partitions = partition_documents(docs, peers, 29);
    let log = QueryLog::generate(
        &collection,
        &QueryLogConfig {
            num_queries: queries,
            ..QueryLogConfig::default()
        },
    );
    let query_set: Vec<Vec<TermId>> = log.queries.iter().map(|q| q.terms.clone()).collect();
    let base = HdkConfig {
        ff: (docs as u64 * 20).max(2_000),
        dfmax: (docs as u32 / 10).max(10),
        replication: 2,
        ..HdkConfig::default()
    };
    let victim = PeerId(0);
    let survivor = PeerId(1);
    // Gossip never changes index content, so one oracle-driven reference
    // provides the expected digests for every grid point.
    let reference = HdkNetwork::build(&collection, &partitions, base.clone());
    let expected = digests(&reference.query_service(), survivor, &query_set);

    let mut points = Vec::new();
    for fanout in [1usize, 2, 3] {
        for suspicion_rounds in [2u32, 3] {
            for loss_prob in [0.0f64, 0.2] {
                let config = HdkConfig {
                    gossip: GossipConfig {
                        fanout,
                        suspicion_rounds,
                        loss_prob,
                        seed: 0x6055,
                    },
                    ..base.clone()
                };
                let mut network = HdkNetwork::build(&collection, &partitions, config);
                let healthy = digests(&network.query_service(), survivor, &query_set);
                assert_eq!(healthy, expected, "healthy network diverged");
                assert_eq!(network.snapshot().failover_timeouts, 0);

                let loss = network.fail_peers(vec![victim]);
                assert_eq!(loss.keys_lost, 0, "R=2 single crash lost content");
                let t0 = network.snapshot();
                let _stale = digests(&network.query_service(), survivor, &query_set);
                let t1 = network.snapshot();
                let timeouts_detection = t1.failover_timeouts - t0.failover_timeouts;
                assert!(
                    timeouts_detection > 0,
                    "fanout={fanout} w={suspicion_rounds}: stale views paid no timeouts — \
                     the detection window is vacuous"
                );

                let mut rounds = 0u32;
                let mut probes_failed = 0u64;
                let mut false_positive_peak = 0usize;
                let mut repair_copies = 0u64;
                while network.gossip_converged() != Some(true) {
                    assert!(
                        rounds < ROUND_CAP,
                        "fanout={fanout} w={suspicion_rounds} loss={loss_prob}: \
                         no convergence within {ROUND_CAP} rounds"
                    );
                    let out = network.gossip_round();
                    rounds += 1;
                    probes_failed += out.report.failed;
                    if let Some(r) = out.repair {
                        repair_copies += r.copies;
                    }
                    let fps = network.index().gossip_false_positives().unwrap().len();
                    false_positive_peak = false_positive_peak.max(fps);
                    if loss_prob == 0.0 {
                        assert_eq!(
                            fps, 0,
                            "loss-free probing falsely confirmed a live peer dead"
                        );
                    }
                }
                assert!(
                    repair_copies > 0,
                    "universal confirmation never fired the repair sweep"
                );
                let t2 = network.snapshot();
                let gossip_window = t2.since(&t1).kind(MsgKind::Gossip);

                let post = digests(&network.query_service(), survivor, &query_set);
                let t3 = network.snapshot();
                let timeouts_post = t3.failover_timeouts - t2.failover_timeouts;
                assert_eq!(
                    timeouts_post, 0,
                    "fanout={fanout} w={suspicion_rounds} loss={loss_prob}: \
                     converged views still paid failover timeouts"
                );
                let diverged_post = post.iter().zip(&expected).filter(|(g, w)| g != w).count();
                assert_eq!(
                    diverged_post, 0,
                    "post-convergence answers diverged from the never-failed reference"
                );

                points.push(GossipPoint {
                    fanout,
                    suspicion_rounds,
                    loss_prob,
                    rounds_to_converge: rounds,
                    gossip_messages: gossip_window.messages,
                    gossip_bytes: gossip_window.bytes,
                    probes_failed,
                    false_positive_peak,
                    repair_copies,
                    timeouts_detection,
                    timeouts_post,
                    diverged_post,
                });
            }
        }
    }
    points
}

/// Renders the study as an aligned table (and TSV).
pub fn print_gossip_study(points: &[GossipPoint]) {
    let mut table = Table::new(
        "gossip",
        &[
            "fanout", "window", "loss", "rounds", "msgs", "bytes", "lost", "fp_peak", "repair",
            "t_detect", "t_post", "bad_post",
        ],
    );
    for p in points {
        table.row(&[
            p.fanout.to_string(),
            p.suspicion_rounds.to_string(),
            format!("{:.2}", p.loss_prob),
            p.rounds_to_converge.to_string(),
            p.gossip_messages.to_string(),
            p.gossip_bytes.to_string(),
            p.probes_failed.to_string(),
            p.false_positive_peak.to_string(),
            p.repair_copies.to_string(),
            p.timeouts_detection.to_string(),
            p.timeouts_post.to_string(),
            p.diverged_post.to_string(),
        ]);
    }
    table.emit();
}

/// Renders the study as the `BENCH_gossip.json` artifact.
pub fn gossip_json(points: &[GossipPoint]) -> String {
    Json::obj([
        ("bench", "gossip".into()),
        ("round_cap", u64::from(ROUND_CAP).into()),
        (
            "grid",
            Json::arr(points.iter().map(|p| {
                Json::obj([
                    ("fanout", p.fanout.into()),
                    ("suspicion_rounds", u64::from(p.suspicion_rounds).into()),
                    ("loss_prob", p.loss_prob.into()),
                    ("rounds_to_converge", u64::from(p.rounds_to_converge).into()),
                    ("gossip_messages", p.gossip_messages.into()),
                    ("gossip_bytes", p.gossip_bytes.into()),
                    ("probes_failed", p.probes_failed.into()),
                    ("false_positive_peak", p.false_positive_peak.into()),
                    ("repair_copies", p.repair_copies.into()),
                    ("timeouts_detection", p.timeouts_detection.into()),
                    ("timeouts_post", p.timeouts_post.into()),
                    ("diverged_post", p.diverged_post.into()),
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
    fn study_asserts_its_own_contract() {
        // The run panics on any contract violation, so reaching the
        // shape checks below already certifies detection + repair.
        let points = run_gossip_study(6, 120, 8);
        assert_eq!(points.len(), 12);
        for p in &points {
            assert!(p.rounds_to_converge >= p.suspicion_rounds);
            assert!(p.rounds_to_converge <= ROUND_CAP);
            assert!(p.gossip_messages > 0);
            assert_eq!(p.timeouts_post, 0);
            assert_eq!(p.diverged_post, 0);
            // The corpse never acks, so probes fail even loss-free —
            // but loss-free probing never falsely kills anyone.
            assert!(p.probes_failed > 0);
            if p.loss_prob == 0.0 {
                assert_eq!(p.false_positive_peak, 0);
            }
        }
        // Loss can only stretch detection, never shorten it, and the
        // artifact renders to valid non-empty JSON.
        let json = gossip_json(&points);
        assert!(json.contains("\"bench\":\"gossip\""));
        assert!(json.contains("rounds_to_converge"));
    }
}
