//! Memory-footprint report: resident posting-storage bytes per peer,
//! compressed blocks vs the decoded `Vec<Posting>` baseline, plus the
//! hot/on-disk split when the tiered segment store is selected
//! (`HDK_STORE=segment[:<hot bytes>]`).
//!
//! Two tables per sweep point and `DFmax`: the per-peer encoded storage,
//! and where the index's in-memory bytes go — store tables, spilled holder
//! and contributor lists, blocks, doc-sets — per stored key, next to the
//! process's live heap and resident set. CI's bench-smoke job runs
//! `--peers 4 --docs-per-peer 150 --queries 0` as a fast regression check;
//! defaults reproduce the full growth sweep. Under a memory-budgeted
//! tiered build the run *asserts* the budget — resident bytes must stay
//! under the configured hot-tier limit, with the remainder sealed to disk
//! — and what the tier tables cost: hot-tier table bytes per hot key and
//! sealed-index bytes per sealed key. On the in-memory store it asserts
//! the bytes-per-key bound and, on one thread, what the build held at its
//! peak per byte of the index it left. Both stores print that peak next
//! to `index_total`.

use hdk_bench::memory::{
    live_heap_bytes, live_heap_peak_bytes, reset_live_heap_peak, LiveHeap, MemoryFootprint,
};
use hdk_bench::ExperimentProfile;
use hdk_core::{HdkNetwork, StoreConfig};
use hdk_corpus::{partition_documents, CollectionGenerator};

#[global_allocator]
static HEAP: LiveHeap = LiveHeap;

/// In-memory bytes per stored key the in-memory store may cost: its
/// slot (the key entry and holder set, 144 B with the key), its share of
/// the index table, a block and the rare spilled lists and doc-sets.
const MAX_BYTES_PER_KEY: f64 = 240.0;

/// The live heap a one-thread in-memory build may hold at its peak, above
/// what was live before it started, per byte of the index it leaves: the
/// index, the peers' own state and one peer's round in flight (its key
/// generation's scratch is the largest part). Measured at the CI smoke
/// (`RAYON_NUM_THREADS=1 ... --peers 4 --docs-per-peer 150`): 1.23 / 1.32
/// at `DFmax` 30 / 40. Shipping a round as one message read 1.68 / 1.69.
/// With more threads a wave of peers computes side by side and the peak
/// depends on their schedule (1.35–1.48 at `DFmax` 40 over 2–8 threads),
/// so it is printed, not asserted.
const MAX_BUILD_PEAK_PER_INDEX_BYTE: f64 = 1.4;

/// Hot-tier table bytes per hot key the tiered store may cost: its packed
/// slot with the key (144 B), its share of the index and of the seal
/// queue, which keep the size of the tier's peak, and a chunk's slack.
/// 299.5 B measured at the CI smoke (`HDK_STORE=segment:65536 --peers 4
/// --docs-per-peer 150`, 31 hot keys a stripe), plus 5 %.
const MAX_HOT_TABLE_BYTES_PER_HOT_KEY: f64 = 314.5;

/// Sealed-index bytes per sealed key: its packed entry — version, frame
/// size and one inline frame location, 48 B with the key — its share of
/// the index and the locations of multi-replica entries. 70.4 B measured
/// at the same smoke, plus 5 %.
const MAX_SEALED_INDEX_BYTES_PER_SEALED_KEY: f64 = 73.9;

fn main() {
    let profile = ExperimentProfile::from_args();
    let full = CollectionGenerator::new(profile.generator_config(profile.max_docs())).generate();
    for &peers in &profile.peers_sweep {
        let docs = peers * profile.docs_per_peer;
        let collection = full.prefix(docs);
        let partitions = partition_documents(docs, peers, profile.seed ^ peers as u64);
        for &dfmax in &profile.dfmax_values {
            let config = profile.hdk_config(dfmax);
            let store = config.store.clone();
            let before = live_heap_bytes().unwrap_or(0);
            reset_live_heap_peak();
            let network = HdkNetwork::build(&collection, &partitions, config);
            let peak = live_heap_peak_bytes().unwrap_or(0) - before;
            let mut footprint = MemoryFootprint::measure(&network);
            footprint.build_peak_heap = Some(peak);
            eprintln!(
                "[memfoot] peers={peers} docs={docs} dfmax={dfmax}: resident {} B + sealed {} B vs decoded {} B ({:.2}x)",
                footprint.resident_total(),
                footprint.sealed_total(),
                footprint.baseline_total(),
                footprint.improvement()
            );
            footprint
                .table(&format!("memfoot_p{peers}_df{dfmax}"))
                .emit();
            eprintln!(
                "[memfoot] {} keys, {:.1} in-memory index bytes per key",
                footprint.index.keys,
                footprint.bytes_per_key()
            );
            footprint
                .breakdown(&format!("memfoot_bytes_p{peers}_df{dfmax}"))
                .emit();
            assert!(
                footprint.improvement() >= 3.0,
                "resident storage regression: only {:.2}x better than decoded baseline (bound 3x)",
                footprint.improvement()
            );
            match store {
                StoreConfig::Memory => {
                    assert_eq!(
                        footprint.sealed_total(),
                        0,
                        "the in-memory store sealed frames to disk?"
                    );
                    assert!(
                        footprint.bytes_per_key() <= MAX_BYTES_PER_KEY,
                        "index memory regression: {:.1} B per key (bound {MAX_BYTES_PER_KEY})",
                        footprint.bytes_per_key()
                    );
                    let build_peak = peak as f64 / footprint.index.total_bytes() as f64;
                    assert!(
                        rayon::current_num_threads() > 1
                            || build_peak <= MAX_BUILD_PEAK_PER_INDEX_BYTE,
                        "build memory regression: the build peaked at {build_peak:.2}x its index \
                         (bound {MAX_BUILD_PEAK_PER_INDEX_BYTE})"
                    );
                }
                StoreConfig::Segment { hot_bytes, .. } => {
                    let index = &footprint.index;
                    let (hot, sealed) = (
                        index.hot_table_bytes_per_key(),
                        index.sealed_table_bytes_per_key(),
                    );
                    eprintln!(
                        "[memfoot] {} hot keys, {hot:.1} hot-tier table bytes each; \
                         {} sealed keys, {sealed:.1} sealed-index bytes each",
                        index.hot_keys,
                        index.keys - index.hot_keys,
                    );
                    assert!(
                        footprint.resident_total() <= hot_bytes,
                        "memory budget violated: {} resident bytes > {hot_bytes}",
                        footprint.resident_total()
                    );
                    assert!(
                        hot <= MAX_HOT_TABLE_BYTES_PER_HOT_KEY,
                        "hot-tier regression: {hot:.1} B per hot key \
                         (bound {MAX_HOT_TABLE_BYTES_PER_HOT_KEY:.1})"
                    );
                    assert!(
                        sealed <= MAX_SEALED_INDEX_BYTES_PER_SEALED_KEY,
                        "sealed-index regression: {sealed:.1} B per sealed key \
                         (bound {MAX_SEALED_INDEX_BYTES_PER_SEALED_KEY:.1})"
                    );
                }
            }
        }
    }
}
