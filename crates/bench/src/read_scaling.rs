//! The read-scaling study: what a Zipf-skewed query stream costs the
//! replicas that serve it, and what each of the three read-path levers
//! buys back.
//!
//! The paper's retrieval cost model (Section 4.2) counts transmitted
//! postings per query; this study asks the orthogonal throughput
//! question: when the *stream* is skewed — real query logs are Zipf
//! distributed — how unevenly does the serving load land on peers, and
//! how far do (1) replica load spreading over `R` static replicas,
//! (2) popularity-driven hot-key replication, and (3) the query cache
//! flatten it? Three legs, all asserted by [`run_read_scaling`]:
//!
//! * **Spread grid** — `R ∈ {1, 2, 3}` × `s ∈ {0, 0.8, 1.2}` over the
//!   simulated WAN: per-replica served-lookup max/mean, lookup messages,
//!   p50/p99 response latency. Pinned: at `R = 3, s = 1.2` the maximum
//!   per-peer load stays within 1.3× the mean.
//! * **Cache leg** — the stream's top-decile (head) queries replayed
//!   uncached vs through a [`QueryCache`]. Pinned: the cache cuts
//!   the head's lookup messages at least 5×.
//! * **Hot-replication leg** — `R = 1` with popularity replication on:
//!   the same skewed stream before and after one `rebalance_hot` pass.
//!   Pinned: keys get promoted and the hottest peer's served load drops.

use crate::json::Json;
use crate::report::{fnum, Table};
use hdk_core::{
    BackendConfig, HdkConfig, HdkNetwork, OverlayKind, QueryCache, QueryService, StoreConfig,
};
use hdk_corpus::{
    partition_documents, CollectionGenerator, GeneratorConfig, QueryLog, QueryLogConfig,
};
use hdk_p2p::{MsgKind, PeerId, TrafficSnapshot};
use hdk_text::TermId;

/// One cell of the spread grid.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Static replication factor `R`.
    pub replication: usize,
    /// Zipf skew `s` of the replayed stream (0 = uniform).
    pub skew: f64,
    /// Metered `QueryLookup` messages of the replay.
    pub lookup_messages: u64,
    /// Served lookups of the most-loaded peer.
    pub served_max: u64,
    /// Mean served lookups per peer.
    pub served_mean: f64,
    /// Median simulated response latency (log₂ bucket bound), ns.
    pub response_p50_ns: u64,
    /// p99 simulated response latency (log₂ bucket bound), ns.
    pub response_p99_ns: u64,
}

impl GridPoint {
    /// Load-imbalance ratio `max / mean` (the spread invariant's metric).
    pub fn imbalance(&self) -> f64 {
        self.served_max as f64 / self.served_mean.max(f64::MIN_POSITIVE)
    }
}

/// The cache leg: head-of-stream lookup messages, uncached vs cached.
#[derive(Debug, Clone)]
pub struct CacheStudy {
    /// Distinct head (top-decile) queries.
    pub head_queries: usize,
    /// Times the stream replayed one of them.
    pub head_replays: usize,
    /// Lookup messages those replays cost without a cache.
    pub cold_lookups: u64,
    /// Lookup messages with the cache (first occurrence warms it).
    pub warm_lookups: u64,
}

/// The hot-replication leg: one skewed pass, a rebalance, the same pass.
#[derive(Debug, Clone)]
pub struct HotStudy {
    /// Keys promoted by the rebalance pass.
    pub promoted: u64,
    /// Extra copies it materialized.
    pub copies: u64,
    /// Most-loaded peer's served lookups before promotion.
    pub before_max: u64,
    /// Mean served lookups per peer before promotion.
    pub before_mean: f64,
    /// Most-loaded peer's served lookups after promotion.
    pub after_max: u64,
    /// Mean served lookups per peer after promotion.
    pub after_mean: f64,
}

/// The full study.
#[derive(Debug, Clone)]
pub struct ReadScalingReport {
    /// The spread grid, `R`-major.
    pub points: Vec<GridPoint>,
    /// The cache leg (measured at `R = 3`, `s = 1.2`).
    pub cache: CacheStudy,
    /// The hot-replication leg (measured at `R = 1`, `s = 1.2`).
    pub hot: HotStudy,
}

/// `R` values of the grid.
pub const REPLICATIONS: [usize; 3] = [1, 2, 3];
/// Zipf skews of the grid.
pub const SKEWS: [f64; 3] = [0.0, 0.8, 1.2];
/// The spread invariant: at `R = 3, s = 1.2`, `max ≤ 1.3 × mean`.
pub const SPREAD_BOUND: f64 = 1.3;

/// Per-peer served-lookup max and mean of one measured phase.
fn served_stats(delta: &TrafficSnapshot) -> (u64, f64) {
    let served = &delta.served_by_peer;
    let max = served.iter().copied().max().unwrap_or(0);
    let mean = served.iter().sum::<u64>() as f64 / served.len().max(1) as f64;
    (max, mean)
}

/// Replays `schedule` as one batch (batch position salts the replica
/// pick, so identical queries rotate over their holders) and returns the
/// phase's traffic delta.
fn replay_batch(
    service: &QueryService,
    log: &QueryLog,
    schedule: &[usize],
    peers: usize,
) -> TrafficSnapshot {
    let batch: Vec<(PeerId, &[TermId])> = schedule
        .iter()
        .enumerate()
        .map(|(pos, &qi)| {
            (
                PeerId(pos as u64 % peers as u64),
                log.queries[qi].terms.as_slice(),
            )
        })
        .collect();
    let before = service.snapshot();
    let _ = service.query_batch(&batch, 10);
    service.snapshot().since(&before)
}

/// Runs the full study: `docs` documents over `peers` peers, a log of
/// `queries` queries, `samples` Zipf-weighted replays per leg.
///
/// # Panics
/// Panics when any of the three pinned invariants fails — the binary is
/// its own acceptance check, like `availability` and `restart_study`.
pub fn run_read_scaling(
    peers: usize,
    docs: usize,
    queries: usize,
    samples: usize,
) -> ReadScalingReport {
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
    assert!(log.len() >= 10, "need a log to draw a top decile from");
    // A generous DFmax keeps every single-term key discriminative: each
    // query costs exactly its term lookups, all present in the index, so
    // the grid isolates *where the serves land* from the key-expansion
    // machinery (which `prop_query_pipeline` already pins).
    let config = |replication: usize, hot_threshold: u64, hot_extra: usize| HdkConfig {
        dfmax: 1_000_000,
        ff: u64::MAX,
        replication,
        hot_threshold,
        hot_extra,
        store: StoreConfig::from_env(),
        ..HdkConfig::default()
    };
    // The WAN model from the canonical latency sweep: nonzero hop cost
    // makes the p50/p99 columns meaningful.
    let sim = crate::latency::sweep_configs()
        .into_iter()
        .find(|(l, _)| *l == "wan")
        .expect("wan model in sweep_configs")
        .1;
    let build = |cfg: HdkConfig| {
        HdkNetwork::build_with(
            &collection,
            &partitions,
            cfg,
            OverlayKind::PGrid,
            BackendConfig::SimNet(sim),
        )
    };

    // Leg 1: the spread grid.
    let mut points = Vec::new();
    for &replication in &REPLICATIONS {
        for &skew in &SKEWS {
            let schedule = log.zipf_replay(skew, samples, 0x5EED);
            let network = build(config(replication, 0, 1));
            let service = network.query_service();
            let delta = replay_batch(&service, &log, &schedule, peers);
            let (served_max, served_mean) = served_stats(&delta);
            let response = delta.latency(MsgKind::QueryResponse);
            points.push(GridPoint {
                replication,
                skew,
                lookup_messages: delta.kind(MsgKind::QueryLookup).messages,
                served_max,
                served_mean,
                response_p50_ns: response.quantile_ns(0.5),
                response_p99_ns: response.quantile_ns(0.99),
            });
        }
    }
    let pinned = points
        .iter()
        .find(|p| p.replication == 3 && p.skew == 1.2)
        .expect("grid covers R=3, s=1.2");
    assert!(
        pinned.imbalance() <= SPREAD_BOUND,
        "spread invariant violated at R=3, s=1.2: max {} vs mean {:.1} \
         (ratio {:.3} > {SPREAD_BOUND})",
        pinned.served_max,
        pinned.served_mean,
        pinned.imbalance(),
    );

    // Leg 2: the cache. Replays of the stream's top-decile queries,
    // uncached vs through the cache (its first occurrence of each
    // query warms it; every later replay is a hit).
    let head_queries = (log.len() / 10).max(1);
    let schedule = log.zipf_replay(1.2, samples, 0x5EED);
    let head_replays: Vec<usize> = schedule
        .iter()
        .copied()
        .filter(|&qi| qi < head_queries)
        .collect();
    assert!(
        head_replays.len() >= 10,
        "a s=1.2 stream must keep revisiting its head"
    );
    let network = build(config(3, 0, 1));
    let service = network.query_service();
    let run_head = |cache: Option<&QueryCache>| -> u64 {
        let before = service.snapshot();
        for (pos, &qi) in head_replays.iter().enumerate() {
            let from = PeerId(pos as u64 % peers as u64);
            let terms = &log.queries[qi].terms;
            match cache {
                Some(c) => {
                    let _ = service.query_cached(from, terms, 10, c);
                }
                None => {
                    let _ = service.query(from, terms, 10);
                }
            }
        }
        service
            .snapshot()
            .since(&before)
            .kind(MsgKind::QueryLookup)
            .messages
    };
    let cold_lookups = run_head(None);
    let cache = QueryCache::new(4_096);
    let warm_lookups = run_head(Some(&cache));
    assert!(
        warm_lookups * 5 <= cold_lookups,
        "the cache must cut head lookups >= 5x: cold {cold_lookups}, warm {warm_lookups}"
    );

    // Leg 3: hot-key replication at R = 1. One skewed pass accumulates
    // hit counters, one rebalance materializes extra replicas of the
    // promoted keys, and the identical pass afterwards spreads over them.
    let hot_threshold = (samples as u64 / 10).max(2);
    let network = build(config(1, hot_threshold, 2));
    let (mut indexer, service) = network.into_services();
    let before_delta = replay_batch(&service, &log, &schedule, peers);
    let (before_max, before_mean) = served_stats(&before_delta);
    let stats = indexer.rebalance_hot();
    let after_delta = replay_batch(&service, &log, &schedule, peers);
    let (after_max, after_mean) = served_stats(&after_delta);
    assert!(
        stats.promoted > 0 && stats.copies > 0,
        "the skewed stream must promote hot keys (threshold {hot_threshold}): {stats:?}"
    );
    assert!(
        after_max < before_max,
        "promotion must unload the hottest peer: before {before_max}, after {after_max}"
    );

    ReadScalingReport {
        points,
        cache: CacheStudy {
            head_queries,
            head_replays: head_replays.len(),
            cold_lookups,
            warm_lookups,
        },
        hot: HotStudy {
            promoted: stats.promoted,
            copies: stats.copies,
            before_max,
            before_mean,
            after_max,
            after_mean,
        },
    }
}

/// Renders the study as aligned tables (stdout + TSV).
pub fn print_read_scaling(report: &ReadScalingReport) {
    let mut grid = Table::new(
        "read_scaling_grid",
        &[
            "R", "skew", "lookups", "srv max", "srv mean", "max/mean", "p50 ms", "p99 ms",
        ],
    );
    for p in &report.points {
        grid.row(&[
            p.replication.to_string(),
            fnum(p.skew),
            p.lookup_messages.to_string(),
            p.served_max.to_string(),
            fnum(p.served_mean),
            fnum(p.imbalance()),
            fnum(p.response_p50_ns as f64 / 1e6),
            fnum(p.response_p99_ns as f64 / 1e6),
        ]);
    }
    grid.emit();
    let c = &report.cache;
    println!(
        "cache: {} head queries replayed {} times — lookups {} cold vs {} warm ({}x)",
        c.head_queries,
        c.head_replays,
        c.cold_lookups,
        c.warm_lookups,
        fnum(c.cold_lookups as f64 / (c.warm_lookups.max(1)) as f64),
    );
    let h = &report.hot;
    println!(
        "hot-replication (R=1): {} promoted, {} copies — served max {} -> {} \
         (mean {} -> {})",
        h.promoted,
        h.copies,
        h.before_max,
        h.after_max,
        fnum(h.before_mean),
        fnum(h.after_mean),
    );
}

/// Renders the study as the `BENCH_read_scaling.json` artifact.
pub fn read_scaling_json(report: &ReadScalingReport) -> String {
    Json::obj([
        ("bench", "read_scaling".into()),
        ("spread_bound", SPREAD_BOUND.into()),
        (
            "grid",
            Json::arr(report.points.iter().map(|p| {
                Json::obj([
                    ("replication", p.replication.into()),
                    ("skew", p.skew.into()),
                    ("lookup_messages", p.lookup_messages.into()),
                    ("served_max", p.served_max.into()),
                    ("served_mean", p.served_mean.into()),
                    ("imbalance", p.imbalance().into()),
                    ("response_p50_ns", p.response_p50_ns.into()),
                    ("response_p99_ns", p.response_p99_ns.into()),
                ])
            })),
        ),
        (
            "cache",
            Json::obj([
                ("head_queries", report.cache.head_queries.into()),
                ("head_replays", report.cache.head_replays.into()),
                ("cold_lookups", report.cache.cold_lookups.into()),
                ("warm_lookups", report.cache.warm_lookups.into()),
            ]),
        ),
        (
            "hot",
            Json::obj([
                ("promoted", report.hot.promoted.into()),
                ("copies", report.hot.copies.into()),
                ("before_max", report.hot.before_max.into()),
                ("before_mean", report.hot.before_mean.into()),
                ("after_max", report.hot.after_max.into()),
                ("after_mean", report.hot.after_mean.into()),
            ]),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_holds_its_invariants_at_test_scale() {
        // `run_read_scaling` asserts the three pinned invariants itself;
        // this exercises them at a scale CI's unit pass can afford.
        let report = run_read_scaling(4, 150, 20, 200);
        assert_eq!(report.points.len(), 9);
        // Spread monotonicity at the steepest skew: more replicas, less
        // imbalance.
        let imbalance = |r: usize| {
            report
                .points
                .iter()
                .find(|p| p.replication == r && p.skew == 1.2)
                .expect("grid point")
                .imbalance()
        };
        assert!(
            imbalance(3) < imbalance(1),
            "R=3 must beat R=1 on the skewed stream: {} vs {}",
            imbalance(3),
            imbalance(1)
        );
        let json = read_scaling_json(&report);
        assert!(json.contains("\"bench\":\"read_scaling\""));
        assert!(json.contains("\"hot\""));
    }
}
