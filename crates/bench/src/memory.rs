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
//!
//! Encoded bytes are only part of what an index costs in memory. The
//! breakdown table ([`MemoryFootprint::breakdown`]) follows every byte the
//! index structure holds — store tables (rows, indexes and record arenas,
//! with the arenas' live and dead record bytes shown apart), shared
//! blocks, shared doc-sets, and under the tiered store its sealed index —
//! per stored key, next to the process's live heap (when the binary
//! installs [`LiveHeap`]) and resident set. [`LiveHeap`] also keeps the
//! live heap's high-water mark, so a caller can read what a build held at
//! its peak ([`MemoryFootprint::build_peak_heap`]).

use crate::report::{fnum, Table};
use hdk_core::{IndexFootprint, PeerStorage, QueryService};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes currently allocated through [`LiveHeap`].
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// The most [`LIVE_BYTES`] has been since [`reset_live_heap_peak`].
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting live bytes and their high-water mark. A
/// binary opts in with `#[global_allocator] static HEAP: LiveHeap =
/// LiveHeap;`, after which [`live_heap_bytes`] reports what the process
/// holds on the heap and [`live_heap_peak_bytes`] the most it has held.
pub struct LiveHeap;

/// Counts `bytes` more live, raising the high-water mark with them.
fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the caller's; counting touches only atomics.
unsafe impl GlobalAlloc for LiveHeap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Live heap bytes of this process — `None` unless the binary installed
/// [`LiveHeap`] as its global allocator (nothing was ever counted).
pub fn live_heap_bytes() -> Option<u64> {
    Some(LIVE_BYTES.load(Ordering::Relaxed)).filter(|&n| n > 0)
}

/// The most live heap this process has held since the last
/// [`reset_live_heap_peak`] (since it started, before any) — `None`
/// unless the binary installed [`LiveHeap`].
pub fn live_heap_peak_bytes() -> Option<u64> {
    Some(PEAK_BYTES.load(Ordering::Relaxed)).filter(|&n| n > 0)
}

/// Restarts the high-water mark from the live heap as it is now.
pub fn reset_live_heap_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// This process's resident set and its high-water mark, in bytes, from
/// `/proc/self/status` (`None` where that file does not exist).
pub fn resident_set_bytes() -> Option<(u64, u64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |name: &str| -> Option<u64> {
        let line = status.lines().find_map(|l| l.strip_prefix(name))?;
        let kib: u64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
        Some(kib * 1024)
    };
    Some((field("VmRSS:")?, field("VmHWM:")?))
}

/// The measured footprint of one network.
#[derive(Debug, Clone)]
pub struct MemoryFootprint {
    /// Per-peer storage composition (exact encoded bytes).
    pub per_peer: Vec<PeerStorage>,
    /// Where the index structure's in-memory bytes go.
    pub index: IndexFootprint,
    /// The live heap the build held at its peak above what was live before
    /// it started, where the caller measured it (see
    /// [`reset_live_heap_peak`]).
    pub build_peak_heap: Option<u64>,
}

impl MemoryFootprint {
    /// Measures a built network through its read path.
    pub fn measure(network: &QueryService) -> Self {
        let index = network.index();
        Self {
            per_peer: index.storage_per_peer(),
            index: index.footprint(),
            build_peak_heap: None,
        }
    }

    /// In-memory bytes of the index structure per stored key.
    pub fn bytes_per_key(&self) -> f64 {
        self.index.bytes_per_key()
    }

    /// Renders where the index's bytes go: one row per component with its
    /// bytes and bytes per stored key, then the total, and — as far as
    /// they can be read — the build's peak live heap and the process's
    /// live heap and resident set (whole process: corpus and query state
    /// included).
    pub fn breakdown(&self, name: &str) -> Table {
        let f = &self.index;
        let keys = f.keys.max(1) as f64;
        let mut t = Table::new(name, &["component", "bytes", "per_key"]);
        let mut row = |component: &str, bytes: u64| {
            t.row(&[
                component.to_string(),
                bytes.to_string(),
                fnum(bytes as f64 / keys),
            ]);
        };
        row("tables", f.table_bytes);
        row("sealed_index", f.sealed_table_bytes);
        row("tables.records", f.record_bytes);
        row("tables.dead", f.dead_record_bytes);
        row("blocks", f.block_bytes);
        row("docsets", f.docset_bytes);
        row("index_total", f.total_bytes());
        if let Some(peak) = self.build_peak_heap {
            row("build_peak_heap", peak);
        }
        if let Some(live) = live_heap_bytes() {
            row("process_live_heap", live);
        }
        if let Some((rss, peak)) = resident_set_bytes() {
            row("process_rss", rss);
            row("process_peak_rss", peak);
        }
        t
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
    use hdk_core::{HdkConfig, HdkNetwork};
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
        )
        .query_service();
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
        )
        .query_service();
        let f = MemoryFootprint::measure(&n);
        assert!(f.resident_total() <= hot_bytes, "hot tier over budget");
        assert!(
            f.sealed_total() > 0,
            "nothing spilled under a 32 KiB budget"
        );
    }
}
