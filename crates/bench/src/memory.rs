//! Memory-footprint report: resident posting-storage bytes per peer.
//!
//! The paper counts *postings* because they dominate both traffic and
//! peer-side storage; this report echoes Figure 3's per-peer volumes in
//! *bytes*, comparing what each peer actually keeps resident (the
//! compressed blocks plus `df` doc-sets) against what the same state would
//! occupy decoded (`Vec<Posting>` at 12 B/posting plus 4 B per tracked doc
//! id — the representation before the one-format-everywhere refactor).
//!
//! Under the tiered store the report also splits hot from cold: the
//! `sealed_B` column counts each peer's live sealed segment frames on
//! disk, so `resident_B + sealed_B` is the peer's full storage volume and
//! `resident_B` alone is what the hot-tier budget bounds.

use crate::report::{fnum, Table};
use hdk_core::{HdkNetwork, PeerStorage};

/// The measured footprint of one network.
#[derive(Debug, Clone)]
pub struct MemoryFootprint {
    /// Per-peer storage composition (exact encoded bytes).
    pub per_peer: Vec<PeerStorage>,
}

impl MemoryFootprint {
    /// Measures a built network.
    pub fn measure(network: &HdkNetwork) -> Self {
        Self {
            per_peer: network.index().storage_per_peer(),
        }
    }

    /// Total resident bytes across peers.
    pub fn resident_total(&self) -> u64 {
        self.per_peer.iter().map(PeerStorage::resident_bytes).sum()
    }

    /// Total sealed segment-frame bytes on disk across peers (0 on the
    /// in-memory store, where every entry stays hot).
    pub fn sealed_total(&self) -> u64 {
        self.per_peer.iter().map(|s| s.sealed_bytes).sum()
    }

    /// Total decoded-baseline bytes across peers.
    pub fn baseline_total(&self) -> u64 {
        self.per_peer
            .iter()
            .map(PeerStorage::decoded_baseline_bytes)
            .sum()
    }

    /// Aggregate improvement factor (baseline / resident).
    pub fn improvement(&self) -> f64 {
        self.baseline_total() as f64 / self.resident_total().max(1) as f64
    }

    /// Renders the per-peer table (one row per peer plus a total row).
    pub fn table(&self, name: &str) -> Table {
        let mut t = Table::new(
            name,
            &[
                "peer",
                "postings",
                "resident_B",
                "docset_B",
                "sealed_B",
                "decoded_B",
                "ratio",
            ],
        );
        for (peer, s) in self.per_peer.iter().enumerate() {
            t.row(&[
                peer.to_string(),
                s.postings.to_string(),
                s.resident_bytes().to_string(),
                s.docset_bytes.to_string(),
                s.sealed_bytes.to_string(),
                s.decoded_baseline_bytes().to_string(),
                fnum(s.decoded_baseline_bytes() as f64 / s.resident_bytes().max(1) as f64),
            ]);
        }
        t.row(&[
            "total".to_string(),
            self.per_peer
                .iter()
                .map(|s| s.postings)
                .sum::<u64>()
                .to_string(),
            self.resident_total().to_string(),
            self.per_peer
                .iter()
                .map(|s| s.docset_bytes)
                .sum::<u64>()
                .to_string(),
            self.sealed_total().to_string(),
            self.baseline_total().to_string(),
            fnum(self.improvement()),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdk_core::{HdkConfig, OverlayKind};
    use hdk_corpus::{partition_documents, CollectionGenerator, GeneratorConfig};

    #[test]
    fn footprint_measures_and_improves() {
        let c = CollectionGenerator::new(GeneratorConfig {
            num_docs: 240,
            vocab_size: 2_000,
            avg_doc_len: 50,
            num_topics: 20,
            topic_vocab: 50,
            ..GeneratorConfig::default()
        })
        .generate();
        let parts = partition_documents(c.len(), 4, 5);
        let n = HdkNetwork::build(
            &c,
            &parts,
            HdkConfig {
                dfmax: 15,
                ff: 2_000,
                // Not the default, which reads `HDK_STORE`.
                store: hdk_core::StoreConfig::Memory,
                ..HdkConfig::default()
            },
            OverlayKind::PGrid,
        );
        let f = MemoryFootprint::measure(&n);
        assert_eq!(f.per_peer.len(), 4);
        assert!(f.resident_total() > 0);
        assert!(
            f.improvement() >= 2.0,
            "compressed residency should clearly beat 12 B/posting, got {:.2}x",
            f.improvement()
        );
        // Matches the index's own accounting hook; nothing is sealed in
        // the in-memory store.
        assert_eq!(f.resident_total(), n.index().resident_posting_bytes());
        assert_eq!(f.sealed_total(), 0);
        let table = f.table("unit_memfoot");
        assert_eq!(table.len(), 5, "4 peers + total row");
    }

    #[test]
    fn tiered_footprint_splits_hot_from_sealed_and_obeys_the_budget() {
        let c = CollectionGenerator::new(GeneratorConfig {
            num_docs: 240,
            vocab_size: 2_000,
            avg_doc_len: 50,
            num_topics: 20,
            topic_vocab: 50,
            ..GeneratorConfig::default()
        })
        .generate();
        let parts = partition_documents(c.len(), 4, 5);
        let hot_bytes = 1 << 15;
        let n = HdkNetwork::build(
            &c,
            &parts,
            HdkConfig {
                dfmax: 15,
                ff: 2_000,
                store: hdk_core::StoreConfig::segment(hot_bytes),
                ..HdkConfig::default()
            },
            OverlayKind::PGrid,
        );
        let f = MemoryFootprint::measure(&n);
        assert!(f.resident_total() <= hot_bytes, "hot tier over budget");
        assert!(
            f.sealed_total() > 0,
            "nothing spilled under a 32 KiB budget"
        );
        assert_eq!(f.sealed_total(), n.index().sealed_segment_bytes());
    }
}
