//! The distributed single-term (ST) baseline — the paper's comparator.
//!
//! "The naïve approach" of Figure 1: the classic global single-term index
//! distributed over the same structured overlay. Every peer inserts its
//! full local single-term posting lists; a query fetches the *complete*
//! posting list of every query term, so retrieval traffic grows linearly
//! with the collection (the effect Figures 6 and 8 quantify).
//!
//! Implemented as the degenerate HDK configuration — `smax = 1`,
//! `DFmax = ∞`, no very-frequent-term exclusion — which makes the
//! equivalence between the two models explicit (the paper: "In case when
//! DFmax would be equal to the maximum posting list size of a single-term
//! index, the two indexing models would produce equal indexes"). Ranking
//! over full single-term lists with global statistics *is* exact BM25, so
//! the ST baseline reproduces the centralized engine's ranking.

use crate::config::HdkConfig;
use crate::engine::{HdkNetwork, OverlayKind, QueryService};
use crate::exec::QueryOutcome;
use crate::stats::BuildReport;
use hdk_corpus::{Collection, DocId};
use hdk_p2p::{PeerId, TrafficSnapshot};
use hdk_text::TermId;

/// A distributed single-term retrieval network.
#[derive(Debug)]
pub struct SingleTermNetwork {
    inner: HdkNetwork,
}

impl SingleTermNetwork {
    /// Builds the ST index over the same collection/partitioning/overlay
    /// as an HDK network would use.
    pub fn build(collection: &Collection, partitions: &[Vec<DocId>], overlay: OverlayKind) -> Self {
        let config = HdkConfig {
            dfmax: u32::MAX,
            smax: 1,
            window: 2,    // irrelevant at smax = 1
            ff: u64::MAX, // no very-frequent exclusion: full vocabulary
            exact_intrinsic: false,
            redundancy_filtering: true,
            replication: 1,
            hot_threshold: 0,
            hot_extra: 1,
            store: crate::config::StoreConfig::from_env(),
            codec: hdk_ir::Codec::Leb128,
            gossip: hdk_p2p::GossipConfig::default(),
        };
        Self {
            inner: HdkNetwork::build(collection, partitions, config, overlay),
        }
    }

    /// Executes a query: fetches the full posting list of every query term
    /// and ranks with exact BM25.
    pub fn query(&self, from: PeerId, query: &[TermId], k: usize) -> QueryOutcome {
        self.inner.query(from, query, k)
    }

    /// Build statistics (stored/inserted postings etc.).
    pub fn build_report(&self) -> BuildReport {
        self.inner.build_report()
    }

    /// Traffic counters.
    pub fn snapshot(&self) -> TrafficSnapshot {
        self.inner.snapshot()
    }

    /// Number of peers.
    pub fn num_peers(&self) -> usize {
        self.inner.num_peers()
    }

    /// Read-path handle of the wrapped network (uniform measurement code
    /// drives every system through [`QueryService`]).
    pub fn query_service(&self) -> QueryService {
        self.inner.query_service()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdk_corpus::{
        partition_documents, CollectionGenerator, GeneratorConfig, QueryLog, QueryLogConfig,
    };
    use hdk_ir::CentralizedEngine;

    fn collection() -> Collection {
        CollectionGenerator::new(GeneratorConfig {
            num_docs: 300,
            vocab_size: 2_500,
            avg_doc_len: 50,
            num_topics: 30,
            topic_vocab: 50,
            ..GeneratorConfig::default()
        })
        .generate()
    }

    #[test]
    fn matches_centralized_bm25_exactly() {
        let c = collection();
        let parts = partition_documents(c.len(), 4, 7);
        let st = SingleTermNetwork::build(&c, &parts, OverlayKind::PGrid);
        let central = CentralizedEngine::build(&c);
        let log = QueryLog::generate(
            &c,
            &QueryLogConfig {
                num_queries: 30,
                ..QueryLogConfig::default()
            },
        );
        for q in &log.queries {
            let dist = st.query(PeerId(0), &q.terms, 20);
            let cent = central.search(&q.terms, 20);
            let dist_docs: Vec<_> = dist.results.iter().map(|r| r.doc).collect();
            let cent_docs: Vec<_> = cent.iter().map(|r| r.doc).collect();
            assert_eq!(dist_docs, cent_docs, "ranking diverged for {:?}", q.terms);
            for (d, c) in dist.results.iter().zip(cent.iter()) {
                assert!((d.score - c.score).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn query_traffic_equals_sum_of_dfs() {
        let c = collection();
        let parts = partition_documents(c.len(), 4, 7);
        let st = SingleTermNetwork::build(&c, &parts, OverlayKind::PGrid);
        let central = CentralizedEngine::build(&c);
        let log = QueryLog::generate(
            &c,
            &QueryLogConfig {
                num_queries: 20,
                ..QueryLogConfig::default()
            },
        );
        for q in &log.queries {
            let out = st.query(PeerId(1), &q.terms, 20);
            assert_eq!(
                out.postings_fetched,
                central.query_posting_volume(&q.terms) as u64
            );
        }
    }

    #[test]
    fn stored_equals_inserted_no_truncation() {
        let c = collection();
        let parts = partition_documents(c.len(), 4, 7);
        let st = SingleTermNetwork::build(&c, &parts, OverlayKind::PGrid);
        let r = st.build_report();
        let stored: u64 = r.stored_per_peer.iter().sum();
        let inserted: u64 = r.inserted_by_size.iter().sum();
        assert_eq!(stored, inserted, "ST index never truncates");
        // And matches the centralized index posting count.
        let central = CentralizedEngine::build(&c);
        assert_eq!(stored, central.index().num_postings() as u64);
    }

    #[test]
    fn only_single_term_keys() {
        let c = collection();
        let parts = partition_documents(c.len(), 2, 7);
        let st = SingleTermNetwork::build(&c, &parts, OverlayKind::Chord);
        let counts = st.build_report().counts;
        assert!(counts.hdk_keys[0] > 0);
        for s in 1..4 {
            assert_eq!(counts.hdk_keys[s] + counts.ndk_keys[s], 0);
        }
        assert_eq!(counts.ndk_keys[0], 0, "DFmax = MAX means no NDKs");
    }
}
