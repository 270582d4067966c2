//! `hdk-bench`: every table, figure, ablation and contract study of the
//! harness, one subcommand each.
//!
//! ```text
//! cargo run -p hdk-bench --release -- <subcommand> [args]
//! cargo run -p hdk-bench --release -- --help   # the subcommands and their arguments
//! ```
//!
//! A malformed or surplus argument, an unknown flag or an unknown
//! subcommand is refused with its reason and the usage, exit code 2,
//! before any work. The contract studies (`availability`, `gossip_study`,
//! `read_scaling`, `memfoot`) assert their contracts as they run and exit
//! nonzero when one breaks.

use hdk_bench::availability::{print_availability_study, run_availability_study};
use hdk_bench::figures;
use hdk_bench::gossip::{gossip_json, print_gossip_study, run_gossip_study};
use hdk_bench::latency::{latency_sweep_json, print_latency_sweep, run_latency_sweep};
use hdk_bench::memory::{
    live_heap_bytes, live_heap_peak_bytes, reset_live_heap_peak, LiveHeap, MemoryFootprint,
};
use hdk_bench::profile::{ExperimentProfile, Positional};
use hdk_bench::read_scaling::{print_read_scaling, read_scaling_json, run_read_scaling};
use hdk_bench::report::{fnum, Table};
use hdk_bench::runner::{self, run_growth_sweep};
use hdk_core::window_keys::candidate_postings;
use hdk_core::{HdkConfig, HdkNetwork, Key, StoreConfig};
use hdk_corpus::{partition_documents, Collection, CollectionGenerator, FrequencyStats};
use hdk_model::{
    expected_keys_for_avg_size, fit_rank_frequency, index_size_ratio, keys_for_query, p_frequent,
    p_very_frequent, retrieval_traffic_bound, FitOptions,
};
use hdk_text::TermId;
use std::collections::HashSet;
use std::process::ExitCode;

/// Every subcommand counts its live heap; `memfoot` reads it.
#[global_allocator]
static HEAP: LiveHeap = LiveHeap;

const USAGE: &str = "\
usage: hdk-bench <subcommand> [args]

  experiments [flags]        Tables 1–2 and Figures 3–8 from one growth sweep
  table1 [flags]             Table 1 — collection statistics
  table2 [flags]             Table 2 — experiment parameters vs the paper's
  fig8 [flags]               Figure 8 — traffic, extrapolated to 1e9 documents
  theory [flags]             Section 4 — Zipf fit, Theorems 1–3, cost bounds
  ablate_dfmax [flags]       ablation: the DFmax trade-off
  ablate_window [flags]      ablation: proximity window w
  ablate_redundancy [flags]  ablation: redundancy filtering (Definition 5)
  memfoot [flags]            memory per peer and per stored key (asserted)
  latency_sweep [--json] [peers docs queries skew]   LAN / WAN / lossy-WAN SimNet
  availability [peers docs queries kill]             R x killed peers (asserted)
  read_scaling [peers docs queries samples]          replica and cache reads (asserted)
  gossip_study [peers docs queries]                  failure detection (asserted)

flags: [--scale F] [--peers a,b,c] [--docs-per-peer N] [--dfmax a,b]
       [--queries N] [--seed N] [--window N] [--smax N] [--ff N]
       [--doc-len N] [--vocab N] [--min-hits N]
Defaults reproduce the paper's setup scaled to laptop size; use
--scale 12.5 --dfmax 400,500 --ff 100000 --doc-len 225 for Table 2 scale.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    let rest = args.get(1..).unwrap_or_default();
    let run: fn(&[String]) -> Result<(), String> = match name {
        "experiments" => experiments,
        "table1" => table1,
        "table2" => table2,
        "fig8" => fig8,
        "theory" => theory,
        "ablate_dfmax" => ablate_dfmax,
        "ablate_window" => ablate_window,
        "ablate_redundancy" => ablate_redundancy,
        "memfoot" => memfoot,
        "latency_sweep" => latency_sweep,
        "availability" => availability,
        "read_scaling" => read_scaling,
        "gossip_study" => gossip_study,
        "--help" | "-h" => return help(),
        "" => return refuse("no subcommand"),
        _ => return refuse(&format!("unknown subcommand {name:?}")),
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        return help();
    }
    // Each body parses its arguments before any work and returns their error.
    match run(rest) {
        Ok(()) => ExitCode::SUCCESS,
        Err(reason) => refuse(&format!("{name}: {reason}")),
    }
}

fn help() -> ExitCode {
    println!("{USAGE}");
    ExitCode::SUCCESS
}

fn refuse(reason: &str) -> ExitCode {
    eprintln!("hdk-bench: {reason}\n{USAGE}");
    ExitCode::from(2)
}

/// Writes a study's machine-readable artifact to the working directory.
fn write_artifact(study: &str, path: &str, json: &str) {
    match std::fs::write(path, format!("{json}\n")) {
        Ok(()) => eprintln!("[{study}] wrote {path}"),
        Err(e) => eprintln!("note: could not write {path}: {e}"),
    }
}

/// The complete evaluation: one growth sweep feeding every figure, plus
/// both tables — the full Section 5 of the paper in one command.
fn experiments(args: &[String]) -> Result<(), String> {
    let profile = ExperimentProfile::from_args(args)?;

    println!("Table 1 — collection statistics\n");
    figures::table1(&profile).emit();
    println!("Table 2 — parameters used in experiments\n");
    figures::table2(&profile).emit();

    let points = run_growth_sweep(&profile);

    println!("Figure 3 — stored postings per peer (index size)\n");
    figures::fig3(&points).emit();
    println!("Figure 4 — inserted postings per peer (indexing costs)\n");
    figures::fig4(&points).emit();
    println!("Figure 5 — ratio between inserted IS and D\n");
    figures::fig5(&points).emit();
    println!("Figure 6 — number of retrieved postings per query\n");
    figures::fig6(&points).emit();
    println!("Figure 7 — top-20 overlap with BM25 relevance scheme [%]\n");
    figures::fig7(&points).emit();

    println!("Figure 8 — estimated total generated traffic (postings/month)\n");
    let (table, model) = figures::fig8(&points, 1.5e6);
    table.emit();
    println!(
        "traffic ratio ST/HDK at 653,546 docs (paper: ~20): {:.1}",
        model.ratio(653_546.0)
    );
    println!(
        "traffic ratio ST/HDK at 1e9 docs (paper: ~42): {:.1}",
        model.ratio(1e9)
    );
    Ok(())
}

/// Table 1 — collection statistics (synthetic Wikipedia substitute).
fn table1(args: &[String]) -> Result<(), String> {
    let profile = ExperimentProfile::from_args(args)?;
    println!("Table 1 — collection statistics\n");
    figures::table1(&profile).emit();
    Ok(())
}

/// Table 2 — experiment parameters (this run vs the paper).
fn table2(args: &[String]) -> Result<(), String> {
    let profile = ExperimentProfile::from_args(args)?;
    println!("Table 2 — parameters used in experiments\n");
    figures::table2(&profile).emit();
    Ok(())
}

/// Figure 8 — estimated total generated traffic (indexing monthly plus
/// 1.5e6 queries/month), extrapolated to 1e9 documents.
///
/// Runs a reduced growth sweep to *measure* the model coefficients
/// (postings per document for ST/HDK, per-query retrieval volumes), then
/// evaluates the analytic model of `hdk_model::traffic` — exactly the
/// paper's procedure, which extrapolates from its measured prototype runs.
fn fig8(args: &[String]) -> Result<(), String> {
    let mut profile = ExperimentProfile::from_args(args)?;
    // The calibration needs only the largest point plus one smaller one
    // (to confirm the ST slope); trim the sweep accordingly.
    let sweep = &mut profile.peers_sweep;
    if sweep.len() > 2 {
        *sweep = vec![sweep[0], sweep[sweep.len() - 1]];
    }
    let points = run_growth_sweep(&profile);
    println!("Figure 8 — estimated total generated traffic (postings/month)\n");
    let (table, model) = figures::fig8(&points, 1.5e6);
    table.emit();
    println!("calibrated coefficients (measured on this run):");
    println!(
        "  ST postings/doc            = {:.1} (paper: ~130)",
        model.st_postings_per_doc
    );
    println!(
        "  HDK postings/doc           = {:.1} (paper: ~5290)",
        model.hdk_postings_per_doc
    );
    println!(
        "  ST retrieval/query/doc     = {:.5}",
        model.st_retrieval_per_query_per_doc
    );
    println!(
        "  HDK retrieval/query        = {:.1} (bounded by nk*DFmax)",
        model.hdk_retrieval_per_query
    );
    println!(
        "  crossover (HDK wins above) = {:.0} documents",
        model.crossover_docs()
    );
    println!("\npaper reference points: ratio ~20 at 653,546 docs; ~42 at 1e9 docs");
    Ok(())
}

/// Fits the Zipf skew of the 2-term-key frequency distribution (the
/// paper's `a2`, fitted "from true frequency distribution" of `K2`): pair
/// occurrences are counted over windows of `w` on a document sample, their
/// collection frequencies ranked, and the power law fitted as for terms.
fn fit_pair_skew(collection: &Collection, w: usize, sample_docs: usize) -> hdk_model::ZipfFit {
    let all_terms: HashSet<TermId> = (0..collection.vocab().len() as u32).map(TermId).collect();
    let all_singles: HashSet<Key> = all_terms.iter().map(|&t| Key::single(t)).collect();
    let pairs = candidate_postings(
        collection.iter().take(sample_docs),
        w,
        2,
        &all_terms,
        &all_singles,
        false,
    );
    let mut freqs: Vec<u64> = pairs
        .values()
        .map(|pl| pl.postings().iter().map(|p| u64::from(p.tf)).sum())
        .collect();
    freqs.sort_unstable_by(|a, b| b.cmp(a));
    let rf: Vec<(usize, u64)> = freqs
        .into_iter()
        .enumerate()
        .map(|(i, f)| (i + 1, f))
        .collect();
    fit_rank_frequency(&rf, FitOptions::until_hapax(&rf))
}

/// Section 4 numbers — Zipf fit, Theorems 1–3, and the Section 4.2
/// retrieval-cost formulas, evaluated on the generated collection.
///
/// Reproduces the paper's worked example: "the maximal estimated value for
/// IS2/D is 12.16 (a1 = 1.5 is fitted from true frequency distribution,
/// and Pf,1 = 0.8) and the estimated value for IS3/D is 11.35 (a2 = 0.9
/// and Pf,2 = 0.257)".
fn theory(args: &[String]) -> Result<(), String> {
    let profile = ExperimentProfile::from_args(args)?;
    let collection =
        CollectionGenerator::new(profile.generator_config(profile.max_docs())).generate();
    let stats = FrequencyStats::compute(&collection);
    let rf = stats.rank_frequency();
    let d = stats.sample_size() as f64;

    println!("Section 4.1 — Zipf fit and occurrence probabilities\n");
    let fit_full = fit_rank_frequency(&rf, FitOptions::default());
    let fit_hapax = fit_rank_frequency(&rf, FitOptions::until_hapax(&rf));
    let mut t = Table::new(
        "theory_zipf_fit",
        &["fit", "skew_a", "scale_C", "r2", "points"],
    );
    for (name, fit) in [
        ("all ranks", &fit_full),
        ("to hapax T' (as in proofs)", &fit_hapax),
    ] {
        t.row(&[
            name.to_owned(),
            format!("{:.3}", fit.skew),
            format!("{:.1}", fit.scale),
            format!("{:.4}", fit.r_squared),
            fit.points.to_string(),
        ]);
    }
    t.emit();

    // Thresholds: Fr = DFmax (Corollary 1 makes rare keys discriminative),
    // Ff from the profile. Theorems need a > 1; use the hapax-range fit
    // when it qualifies, else the full fit, else the paper's 1.5.
    let a = [fit_hapax.skew, fit_full.skew, 1.5]
        .into_iter()
        .find(|&a| a > 1.01)
        .expect("1.5 qualifies");
    let ff = profile.ff as f64;
    let fr = f64::from(profile.dfmax_values[0]);
    let scale = fit_hapax.scale.max(ff + 1.0);
    println!("with a = {a:.3}, Fr = {fr}, Ff = {ff}:\n");
    let pvf = p_very_frequent(ff, scale, a);
    let pf1 = p_frequent(fr, ff, a);
    println!(
        "  Theorem 1: P_vf = {pvf:.4}   (grows with collection size; these terms are dropped)"
    );
    println!("  Theorem 2: P_f,1 = {pf1:.4}  (constant in collection size; paper example: 0.8)");

    println!(
        "\nTheorem 3 — index-size bounds IS_s/D (w = {}):\n",
        profile.window
    );
    let mut t3 = Table::new(
        "theory_theorem3",
        &["s", "P_f_used", "IS_s/D_bound", "IS_s_bound_postings"],
    );
    // Paper example values alongside this collection's.
    t3.row(&[
        "2 (paper: Pf=0.8 -> 12.16)".to_owned(),
        format!("{pf1:.4}"),
        format!("{:.3}", index_size_ratio(pf1, profile.window, 2)),
        format!("{:.3e}", index_size_ratio(pf1, profile.window, 2) * d),
    ]);
    // For size 3 the paper fits a separate skew a2 on 2-term-key
    // frequencies (a2 = 0.9 -> Pf,2 = 0.257). We measure the K2
    // distribution on a document sample the same way.
    t3.row(&[
        "3 (paper: Pf,2=0.257 -> 11.35)".to_owned(),
        "0.257".to_owned(),
        format!("{:.3}", index_size_ratio(0.257, profile.window, 3)),
        format!("{:.3e}", index_size_ratio(0.257, profile.window, 3) * d),
    ]);
    let pair_fit = fit_pair_skew(&collection, profile.window, 400);
    // Theorem 2 needs a > 1; like the paper (whose a2 = 0.9 also falls
    // below 1, making the zipfian Pf,2 formula inapplicable verbatim),
    // fall back to the published Pf,2 when the fit is sub-unit.
    let pf2 = if pair_fit.skew > 1.01 {
        p_frequent(fr, ff, pair_fit.skew)
    } else {
        0.257
    };
    t3.row(&[
        format!(
            "3 (measured a2={:.3}, r2={:.2})",
            pair_fit.skew, pair_fit.r_squared
        ),
        format!("{pf2:.4}"),
        format!("{:.3}", index_size_ratio(pf2, profile.window, 3)),
        format!("{:.3e}", index_size_ratio(pf2, profile.window, 3) * d),
    ]);
    t3.emit();

    println!("Section 4.2 — retrieval cost\n");
    let mut t4 = Table::new("theory_retrieval_cost", &["|q|", "nk", "bound_nk_x_DFmax"]);
    let dfmax = profile.dfmax_values[0];
    for q in 1..=8 {
        t4.row(&[
            q.to_string(),
            keys_for_query(q, profile.smax).to_string(),
            retrieval_traffic_bound(q, profile.smax, dfmax).to_string(),
        ]);
    }
    t4.emit();
    println!(
        "average web query (paper: 2.3 terms): nk ~ {:.2} (paper: 3.92)",
        expected_keys_for_avg_size(2.3)
    );
    Ok(())
}

/// Ablation: the `DFmax` trade-off.
///
/// Section 5: "There is obviously a trade-off between retrieval quality
/// and bandwidth consumption [...] an increased value of DFmax results in
/// an increased bandwidth consumption during retrieval, while on the
/// contrary, offers retrieval performance that better mimics centralized
/// engines." This sweep quantifies both sides at a fixed collection.
fn ablate_dfmax(args: &[String]) -> Result<(), String> {
    let profile = ExperimentProfile::from_args(args)?;
    let docs = profile.docs_per_peer * 8;
    let collection = CollectionGenerator::new(profile.generator_config(docs)).generate();
    let partitions = partition_documents(docs, 8, profile.seed);
    let (central, log) = figures::centralized_and_log(&profile, &collection);

    let base = profile.dfmax_values[0];
    let sweep: Vec<u32> = [base / 4, base / 2, base, base * 2, base * 4]
        .into_iter()
        .filter(|&d| d >= 2)
        .collect();

    let mut t = Table::new(
        "ablate_dfmax",
        &[
            "DFmax",
            "stored_per_peer",
            "inserted_per_peer",
            "retr_per_query",
            "lookups_per_query",
            "overlap_top20",
        ],
    );
    for dfmax in sweep {
        let net = HdkNetwork::build(&collection, &partitions, profile.hdk_config(dfmax));
        let m = runner::measure_system(&net.query_service(), &central, &log);
        t.row(&[
            dfmax.to_string(),
            fnum(m.stored_per_peer),
            fnum(m.inserted_per_peer),
            fnum(m.retrieval_per_query),
            fnum(m.lookups_per_query),
            fnum(m.overlap_top20),
        ]);
        eprintln!("[ablate_dfmax] DFmax={dfmax} done");
    }
    println!("Ablation — DFmax trade-off (fixed {docs}-doc collection)\n");
    t.emit();
    Ok(())
}

/// Ablation: proximity-window size `w`.
///
/// Section 3.1 motivates proximity filtering as the lever that keeps the
/// key vocabulary manageable; Theorem 3 predicts the index growing with
/// `C(w-1, s-1)`. This sweep varies `w` at a fixed collection and reports
/// key counts, index size, indexing traffic and retrieval quality.
fn ablate_window(args: &[String]) -> Result<(), String> {
    let profile = ExperimentProfile::from_args(args)?;
    let docs = (profile.docs_per_peer * 4).min(2_000);
    let collection = CollectionGenerator::new(profile.generator_config(docs)).generate();
    let partitions = partition_documents(docs, 4, profile.seed);
    let (central, log) = figures::centralized_and_log(&profile, &collection);

    let mut t = Table::new(
        "ablate_window",
        &[
            "w",
            "keys_total",
            "keys_size2",
            "keys_size3",
            "stored_per_peer",
            "inserted_per_peer",
            "overlap_top20",
        ],
    );
    for w in [5, 10, 20, 40] {
        let mut config = profile.hdk_config(profile.dfmax_values[0]);
        config.window = w;
        let net = HdkNetwork::build(&collection, &partitions, config).query_service();
        let m = runner::measure_system(&net, &central, &log);
        let counts = net.index().index_counts();
        t.row(&[
            w.to_string(),
            counts.total_keys().to_string(),
            (counts.hdk_keys[1] + counts.ndk_keys[1]).to_string(),
            (counts.hdk_keys[2] + counts.ndk_keys[2]).to_string(),
            fnum(m.stored_per_peer),
            fnum(m.inserted_per_peer),
            fnum(m.overlap_top20),
        ]);
        eprintln!("[ablate_window] w={w} done");
    }
    println!("Ablation — proximity window w (fixed {docs}-doc collection)\n");
    t.emit();
    Ok(())
}

/// Ablation: redundancy filtering (Definition 5).
///
/// Compares three generator variants at a small fixed collection:
///
/// * `intrinsic` — the paper's practical generator (extend NDKs only),
/// * `exact` — Definition 5 enforced verbatim (all sub-keys NDK),
/// * `no-filter` — index *every* discriminative key; the configuration
///   redundancy filtering exists to avoid (key-count explosion).
fn ablate_redundancy(args: &[String]) -> Result<(), String> {
    let profile = ExperimentProfile::from_args(args)?;
    // Deliberately small: the no-filter variant is exponential in spirit.
    let docs = profile.docs_per_peer.min(500) * 2;
    let collection = CollectionGenerator::new(profile.generator_config(docs)).generate();
    let partitions = partition_documents(docs, 2, profile.seed);
    let (central, log) = figures::centralized_and_log(&profile, &collection);
    let base = profile.hdk_config(profile.dfmax_values[0]);

    let variants: [(&str, HdkConfig); 3] = [
        ("intrinsic (paper)", base.clone()),
        (
            "exact Definition 5",
            HdkConfig {
                exact_intrinsic: true,
                ..base.clone()
            },
        ),
        (
            "no redundancy filter",
            HdkConfig {
                redundancy_filtering: false,
                replication: 1,
                ..base
            },
        ),
    ];

    let mut t = Table::new(
        "ablate_redundancy",
        &[
            "variant",
            "keys_total",
            "keys_size2",
            "keys_size3",
            "inserted_per_peer",
            "overlap_top20",
            "retr_per_query",
        ],
    );
    for (name, config) in variants {
        let net = HdkNetwork::build(&collection, &partitions, config).query_service();
        let m = runner::measure_system(&net, &central, &log);
        let counts = net.index().index_counts();
        t.row(&[
            name.to_owned(),
            counts.total_keys().to_string(),
            (counts.hdk_keys[1] + counts.ndk_keys[1]).to_string(),
            (counts.hdk_keys[2] + counts.ndk_keys[2]).to_string(),
            fnum(m.inserted_per_peer),
            fnum(m.overlap_top20),
            fnum(m.retrieval_per_query),
        ]);
        eprintln!("[ablate_redundancy] {name} done");
    }
    println!("Ablation — redundancy filtering (fixed {docs}-doc collection)\n");
    t.emit();
    Ok(())
}

/// In-memory bytes per stored key the unbounded store may cost: its
/// 16-byte hot row (key hash, record offset and length), its share of the
/// index table — no seal queue, which an unbounded store never fills —
/// its record (≈ 23 B) with the arena's dead and spare bytes, and the
/// blocks and doc-sets too long to sit in their records. Measured at the
/// CI smoke (`RAYON_NUM_THREADS=1 ... --peers 4 --docs-per-peer 150`):
/// 97.7 / 101.3 at `DFmax` 30 / 40, plus 5 %. A 128-byte decoded slot per
/// key read 169.4 / 177.6; every block in its own allocation, in a
/// 144-byte slot, 207.4 / 215.3.
const MAX_BYTES_PER_KEY: f64 = 106.4;

/// The live heap a one-thread build on the unbounded store may hold at its
/// peak beyond the index it leaves (`build_peak_heap - index_total`): the
/// peers' own state and one peer's round in flight (its key generation's
/// scratch is the largest part). A byte count, not a multiple of the
/// index, so a smaller index does not read as a bigger round. Set at what
/// a build of decoded 128-byte slots held at the CI smoke
/// (`RAYON_NUM_THREADS=1 ... --peers 4 --docs-per-peer 150`), 1 996 171 /
/// 2 171 431 B at `DFmax` 30 / 40, plus 5 %; the record arena reads
/// 1 995 466 / 2 254 725 B. Live heap a stripe keeps outside its tables
/// counts here: a spare slot and a record-scratch buffer per stripe read
/// 2 031 290 / 2 290 565 B. Shipping a round as one message adds the
/// other peers' batches (1.68 × the index before). Larger profiles keep
/// larger rounds in flight and read above it; with more threads a wave of
/// peers computes side by side and the peak depends on their schedule,
/// so there it is printed, not asserted.
const MAX_BUILD_TRANSIENT_BYTES: u64 = 2_280_000;

/// Hot-tier table bytes per hot key a budgeted store may cost: its row,
/// record and index share, its share of the seal queue, which keeps the
/// size of the tier's peak, and the arena's dead and spare bytes. 149.9 B
/// measured at the CI smoke (`HDK_STORE=segment:65536 --peers 4
/// --docs-per-peer 150`, 31 hot keys a stripe), plus 5 %; 273.5 B with
/// 128-byte decoded slots, 299.5 B with 144-byte ones.
const MAX_HOT_TABLE_BYTES_PER_HOT_KEY: f64 = 157.4;

/// Sealed-index bytes per sealed key: its packed entry — version, frame
/// size and one inline frame location, 48 B with the key — its share of
/// the index and the locations of multi-replica entries. 70.4 B measured
/// at the same smoke, plus 5 %.
const MAX_SEALED_INDEX_BYTES_PER_SEALED_KEY: f64 = 73.9;

/// Memory-footprint report: resident posting-storage bytes per peer,
/// compressed blocks vs the decoded `Vec<Posting>` baseline, plus the
/// hot/on-disk split when the store has a hot-tier budget
/// (`HDK_STORE=segment[:<hot bytes>]`).
///
/// Two tables per sweep point and `DFmax`: the per-peer encoded storage,
/// and where the index's in-memory bytes go — store tables with their
/// live and dead record bytes, shared blocks and doc-sets — per stored
/// key, next to the
/// process's live heap and resident set. CI's bench-smoke job runs
/// `--peers 4 --docs-per-peer 150 --queries 0` as a fast regression check;
/// defaults reproduce the full growth sweep. Under a budgeted store the
/// run *asserts* the budget — resident bytes must stay
/// under the configured hot-tier limit, with the remainder sealed to disk
/// — and what the tier tables cost: hot-tier table bytes per hot key and
/// sealed-index bytes per sealed key. On the unbounded store it asserts
/// the bytes-per-key bound and, on one thread, what the build held at its
/// peak beyond the index it left. Both stores print that peak next
/// to `index_total`. Every point of the sweep is printed before any bound
/// is judged; a broken bound names its (peers, `DFmax`) point and the run
/// exits 1.
fn memfoot(args: &[String]) -> Result<(), String> {
    let profile = ExperimentProfile::from_args(args)?;
    let full = CollectionGenerator::new(profile.generator_config(profile.max_docs())).generate();
    let mut broken = Vec::new();
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
            let mut footprint = MemoryFootprint::measure(&network.query_service());
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
            let mut bound = |holds: bool, what: String| {
                if !holds {
                    broken.push(format!("peers={peers} dfmax={dfmax}: {what}"));
                }
            };
            bound(
                footprint.improvement() >= 3.0,
                format!(
                    "resident storage regression: only {:.2}x better than decoded baseline (bound 3x)",
                    footprint.improvement()
                ),
            );
            match store {
                StoreConfig::Memory => {
                    bound(
                        footprint.sealed_total() == 0,
                        format!(
                            "the unbounded store sealed {} B to disk (bound 0)",
                            footprint.sealed_total()
                        ),
                    );
                    bound(
                        footprint.bytes_per_key() <= MAX_BYTES_PER_KEY,
                        format!(
                            "index memory regression: {:.1} B per key (bound {MAX_BYTES_PER_KEY})",
                            footprint.bytes_per_key()
                        ),
                    );
                    let transient = peak.saturating_sub(footprint.index.total_bytes());
                    bound(
                        rayon::current_num_threads() > 1 || transient <= MAX_BUILD_TRANSIENT_BYTES,
                        format!(
                            "build memory regression: the build peaked {transient} B above its \
                             index (bound {MAX_BUILD_TRANSIENT_BYTES})"
                        ),
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
                    bound(
                        footprint.resident_total() <= hot_bytes,
                        format!(
                            "memory budget violated: {} resident bytes (bound {hot_bytes})",
                            footprint.resident_total()
                        ),
                    );
                    bound(
                        hot <= MAX_HOT_TABLE_BYTES_PER_HOT_KEY,
                        format!(
                            "hot-tier regression: {hot:.1} B per hot key \
                             (bound {MAX_HOT_TABLE_BYTES_PER_HOT_KEY:.1})"
                        ),
                    );
                    bound(
                        sealed <= MAX_SEALED_INDEX_BYTES_PER_SEALED_KEY,
                        format!(
                            "sealed-index regression: {sealed:.1} B per sealed key \
                             (bound {MAX_SEALED_INDEX_BYTES_PER_SEALED_KEY:.1})"
                        ),
                    );
                }
            }
        }
    }
    if broken.is_empty() {
        return Ok(());
    }
    // A broken bound is a measurement, not a usage error: every point is
    // printed above, then each failing one is named here, exit code 1.
    for b in &broken {
        eprintln!("memfoot: bound broken at {b}");
    }
    std::process::exit(1)
}

/// The simulated-network latency sweep: replay one build + query scenario
/// over LAN / WAN / lossy-WAN `SimNet` models and tabulate per-kind
/// delivery latencies, retransmissions and the virtual makespan.
///
/// `--json` emits the sweep as a single JSON document on stdout instead of
/// the aligned table. `skew` (default 0) Zipf-weights the query replay via
/// the corpus crate's shared sampler.
fn latency_sweep(args: &[String]) -> Result<(), String> {
    let json = args.iter().any(|a| a == "--json");
    let positional: Vec<String> = args.iter().filter(|a| *a != "--json").cloned().collect();
    let mut p = Positional::new(&positional);
    let peers = p.next("peers", 8)?;
    let docs = p.next("docs", 600)?;
    let queries = p.next("queries", 60)?;
    let skew: f64 = p.next("skew", 0.0)?;
    p.end()?;
    eprintln!("[latency] peers={peers} docs={docs} queries={queries} skew={skew}");
    let points = run_latency_sweep(peers, docs, queries, skew);
    if json {
        println!("{}", latency_sweep_json(&points));
    } else {
        print_latency_sweep(&points);
    }
    Ok(())
}

/// Availability under peer failure: vary `R ∈ {1, 2, 3}`, kill `k` peers,
/// measure content loss, repair traffic, and query latency during the
/// degradation window.
///
/// Doubles as the CI smoke check: it *asserts* the replication contract —
/// with `R = 2` a single-peer crash loses zero content (post-repair
/// answers bit-identical to a never-failed network) while the repair
/// counters are nonzero, and with `R = 1` the same crash demonstrably
/// loses index fractions — exiting nonzero when any of that breaks.
fn availability(args: &[String]) -> Result<(), String> {
    let mut p = Positional::new(args);
    let peers = p.next("peers", 8)?;
    let docs = p.next("docs", 240)?;
    let queries = p.next("queries", 24)?;
    let kill = p.next("kill", 1)?;
    p.end()?;
    println!(
        "availability study: {peers} peers, {docs} docs, {queries} queries, kill {kill} — R in {{1, 2, 3}}\n"
    );
    let points = run_availability_study(peers, docs, queries, kill);
    print_availability_study(&points);

    // The contract the CI smoke run enforces.
    let r1 = &points[0];
    let r2 = &points[1];
    assert!(
        r1.keys_lost > 0,
        "R=1 kill={kill} lost nothing — the study is vacuous"
    );
    assert_eq!(
        r2.keys_lost, 0,
        "R=2 kill={kill} lost {} keys — replication is broken",
        r2.keys_lost
    );
    assert!(
        r2.repair_messages > 0,
        "R=2 repaired nothing — the crash never degraded a replica set"
    );
    assert_eq!(
        r2.diverged_repaired, 0,
        "R=2 post-repair answers diverged from the never-failed network"
    );
    println!("availability contract holds: R=2 survives a {kill}-peer crash with zero loss");
    Ok(())
}

/// The read-scaling study: replica load spreading, popularity-driven
/// hot-key replication and the query cache under a Zipf-skewed
/// query stream — measured over `R ∈ {1,2,3}` × `s ∈ {0, 0.8, 1.2}`, with
/// the three read-scaling invariants asserted by the run itself (spread
/// `max ≤ 1.3 × mean` at `R=3, s=1.2`; ≥ 5× head lookup-message drop
/// with the warm cache; hot promotion unloads the hottest peer).
///
/// Emits the machine-readable artifact `BENCH_read_scaling.json` in the
/// working directory alongside the stdout tables.
fn read_scaling(args: &[String]) -> Result<(), String> {
    let mut p = Positional::new(args);
    let peers = p.next("peers", 8)?;
    let docs = p.next("docs", 240)?;
    let queries = p.next("queries", 24)?;
    let samples = p.next("samples", 400)?;
    p.end()?;
    eprintln!("[read_scaling] peers={peers} docs={docs} queries={queries} samples={samples}");
    let report = run_read_scaling(peers, docs, queries, samples);
    print_read_scaling(&report);
    let json = read_scaling_json(&report);
    write_artifact("read_scaling", "BENCH_read_scaling.json", &json);
    Ok(())
}

/// Gossip failure detection: sweep `fanout × suspicion window × probe
/// loss`, crash one peer per episode, measure rounds-to-convergence,
/// probe traffic, false-positive transients and the failover timeouts
/// queries pay while views are stale.
///
/// Doubles as the CI smoke check: the study asserts the detection
/// contract as it runs — loss-free probing never falsely kills a live
/// peer, every grid point converges within the round budget, universal
/// confirmation fires the repair sweep without an operator, and
/// converged views pay zero failover timeouts — exiting nonzero when any
/// of that breaks. Emits the machine-readable artifact
/// `BENCH_gossip.json` in the working directory.
fn gossip_study(args: &[String]) -> Result<(), String> {
    let mut p = Positional::new(args);
    let peers = p.next("peers", 8)?;
    let docs = p.next("docs", 240)?;
    let queries = p.next("queries", 24)?;
    p.end()?;
    println!(
        "gossip study: {peers} peers, {docs} docs, {queries} queries — \
         fanout in {{1,2,3}} x window in {{2,3}} x loss in {{0,0.2}}\n"
    );
    let points = run_gossip_study(peers, docs, queries);
    print_gossip_study(&points);
    let json = gossip_json(&points);
    write_artifact("gossip_study", "BENCH_gossip.json", &json);
    println!(
        "gossip contract holds: {} grid points converged, zero loss-free false \
         positives, zero post-convergence failover timeouts",
        points.len()
    );
    Ok(())
}
