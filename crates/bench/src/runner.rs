//! The shared network-growth sweep behind Figures 3–7.
//!
//! The paper "started the experiment with 4 peers, and added additional 4
//! peers at each new experimental run", each peer contributing a constant
//! number of documents. We reproduce that: one collection is generated at
//! the final size and every sweep point indexes a prefix of it, so curves
//! are comparable point-to-point. At every point three systems are built
//! over identical partitions and overlays — distributed single-term (ST)
//! and HDK at each configured `DFmax` — and measured for storage, indexing
//! traffic, retrieval traffic, and top-20 overlap against the centralized
//! BM25 engine.

use crate::profile::ExperimentProfile;
use hdk_core::{HdkConfig, HdkNetwork, QueryService, MAX_KEY_SIZE};
use hdk_corpus::{partition_documents, CollectionGenerator, QueryLog};
use hdk_ir::{top_k_overlap, CentralizedEngine};
use hdk_p2p::PeerId;

/// Measurements of one system at one sweep point.
#[derive(Debug, Clone)]
pub struct SystemMeasurement {
    /// Mean stored postings per peer (Figure 3).
    pub stored_per_peer: f64,
    /// Mean inserted postings per peer (Figure 4).
    pub inserted_per_peer: f64,
    /// `IS_s / D` for s = 1..=MAX_KEY_SIZE (Figure 5; slot s-1).
    pub is_ratios: [f64; MAX_KEY_SIZE],
    /// `IS / D` — total inserted over sample size (Figure 5).
    pub is_ratio_total: f64,
    /// Inserted postings per document.
    pub postings_per_doc: f64,
    /// Mean postings retrieved per query (Figure 6).
    pub retrieval_per_query: f64,
    /// Mean key lookups per query (`nk`).
    pub lookups_per_query: f64,
    /// Mean per-level fan-out width: candidate keys the query planner
    /// enumerated at lattice level `s` (slot `s-1`), averaged over the
    /// query batch — the width the executor resolves in parallel.
    pub fanout_per_level: [f64; MAX_KEY_SIZE],
    /// Mean top-20 overlap with centralized BM25, percent (Figure 7).
    pub overlap_top20: f64,
    /// Queries evaluated.
    pub queries: usize,
}

/// All systems at one sweep point.
#[derive(Debug, Clone)]
pub struct PointMeasurement {
    /// Peers in the network.
    pub peers: usize,
    /// Documents indexed (`M`).
    pub docs: usize,
    /// Sample size (`D`).
    pub sample_size: u64,
    /// The ST baseline.
    pub st: SystemMeasurement,
    /// `(DFmax, measurement)` per configured threshold.
    pub hdk: Vec<(u32, SystemMeasurement)>,
}

/// Runs the full sweep. Progress goes to stderr; measurements are
/// returned for the figure binaries to tabulate.
pub fn run_growth_sweep(profile: &ExperimentProfile) -> Vec<PointMeasurement> {
    let full = CollectionGenerator::new(profile.generator_config(profile.max_docs())).generate();
    let mut points = Vec::with_capacity(profile.peers_sweep.len());
    for &peers in &profile.peers_sweep {
        let docs = peers * profile.docs_per_peer;
        let collection = full.prefix(docs);
        let partitions = partition_documents(docs, peers, profile.seed ^ peers as u64);
        let central = CentralizedEngine::build(&collection);
        let log = QueryLog::generate_filtered(&collection, &profile.querylog_config(), |terms| {
            central.count_hits(terms)
        });
        eprintln!(
            "[sweep] peers={peers} docs={docs} queries={} (avg {:.2} terms)",
            log.len(),
            log.avg_terms()
        );

        let st_net = HdkNetwork::build(&collection, &partitions, HdkConfig::single_term());
        let st = measure_system(&st_net.query_service(), &central, &log);
        eprintln!(
            "[sweep]   ST: stored/peer={:.0} retr/query={:.0}",
            st.stored_per_peer, st.retrieval_per_query
        );

        let mut hdk = Vec::with_capacity(profile.dfmax_values.len());
        for &dfmax in &profile.dfmax_values {
            let net = HdkNetwork::build(&collection, &partitions, profile.hdk_config(dfmax));
            let m = measure_system(&net.query_service(), &central, &log);
            eprintln!(
                "[sweep]   HDK(DFmax={dfmax}): stored/peer={:.0} retr/query={:.0} overlap={:.1}% \
                 fan-out/level={:?}",
                m.stored_per_peer,
                m.retrieval_per_query,
                m.overlap_top20,
                m.fanout_per_level
                    .iter()
                    .map(|w| (w * 10.0).round() / 10.0)
                    .collect::<Vec<_>>()
            );
            hdk.push((dfmax, m));
        }
        points.push(PointMeasurement {
            peers,
            docs,
            sample_size: collection.stats().sample_size as u64,
            st,
            hdk,
        });
    }
    points
}

/// Builds the per-system measurement over the system's read-path handle:
/// build statistics plus a query batch (evaluated in parallel via
/// [`QueryService::query_batch_profiled`]; outcomes are identical to the
/// sequential loop and come back in log order, with each query's per-level
/// execution profile alongside).
pub fn measure_system(
    network: &QueryService,
    central: &CentralizedEngine,
    log: &QueryLog,
) -> SystemMeasurement {
    let report = network.build_report();
    let batch: Vec<(PeerId, &[hdk_text::TermId])> = log
        .queries
        .iter()
        .map(|q| {
            (
                PeerId(u64::from(q.id) % report.num_peers as u64),
                q.terms.as_slice(),
            )
        })
        .collect();
    let outcomes = network.query_batch_profiled(&batch, 20);
    let mut postings = 0u64;
    let mut lookups = 0u64;
    let mut overlap = 0.0f64;
    let mut fanout = [0u64; MAX_KEY_SIZE];
    for (q, (out, profile)) in log.queries.iter().zip(&outcomes) {
        let reference = central.search(&q.terms, 20);
        overlap += top_k_overlap(&out.results, &reference, 20);
        postings += out.postings_fetched;
        lookups += u64::from(out.lookups);
        for level in &profile.levels {
            fanout[level.level - 1] += u64::from(level.planned);
        }
    }
    let nq = log.len().max(1) as f64;
    let mut is_ratios = [0.0; MAX_KEY_SIZE];
    for (s, slot) in is_ratios.iter_mut().enumerate() {
        *slot = report.is_ratio(s + 1);
    }
    let mut fanout_per_level = [0.0; MAX_KEY_SIZE];
    for (slot, &total) in fanout_per_level.iter_mut().zip(&fanout) {
        *slot = total as f64 / nq;
    }
    SystemMeasurement {
        stored_per_peer: report.avg_stored_per_peer(),
        inserted_per_peer: report.avg_inserted_per_peer(),
        is_ratios,
        is_ratio_total: report.is_ratio_total(),
        postings_per_doc: report.postings_per_doc(),
        retrieval_per_query: postings as f64 / nq,
        lookups_per_query: lookups as f64 / nq,
        fanout_per_level,
        overlap_top20: if log.is_empty() { 0.0 } else { overlap / nq },
        queries: log.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature end-to-end sweep validating the paper's headline
    /// orderings at toy scale. This is the harness's own integration test;
    /// the real figures run via the binaries.
    #[test]
    fn tiny_sweep_has_paper_shape() {
        let profile = ExperimentProfile {
            peers_sweep: vec![2, 4],
            docs_per_peer: 150,
            avg_doc_len: 50,
            vocab_size: 6_000,
            dfmax_values: vec![15],
            ff: 1_500,
            num_queries: 30,
            min_hits: 5,
            ..ExperimentProfile::default()
        };
        let points = run_growth_sweep(&profile);
        assert_eq!(points.len(), 2);
        for p in &points {
            let (_, hdk) = &p.hdk[0];
            // HDK stores more than ST (indexing cost)...
            assert!(
                hdk.stored_per_peer > p.st.stored_per_peer,
                "HDK {} <= ST {}",
                hdk.stored_per_peer,
                p.st.stored_per_peer
            );
            // ...and inserted >= stored for HDK (NDK truncation).
            assert!(hdk.inserted_per_peer >= hdk.stored_per_peer - 1e-9);
            // ST is exact BM25: overlap 100%.
            assert!(
                p.st.overlap_top20 > 99.9,
                "ST overlap {}",
                p.st.overlap_top20
            );
            // HDK overlap is meaningful.
            assert!(
                hdk.overlap_top20 > 20.0,
                "HDK overlap {}",
                hdk.overlap_top20
            );
            // IS1/D <= 1 (Section 4.1).
            assert!(hdk.is_ratios[0] <= 1.0 + 1e-9);
        }
        // ST retrieval traffic grows with the collection; HDK's stays
        // bounded by nk*DFmax per query (and thus grows much slower).
        let (st0, st1) = (
            points[0].st.retrieval_per_query,
            points[1].st.retrieval_per_query,
        );
        assert!(st1 > st0, "ST retrieval must grow: {st0} -> {st1}");
    }
}
