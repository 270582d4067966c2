//! The traced run: per-layer metrics, measured from outside the program.
//!
//! Nothing here instruments the program itself. The benchmark records
//! spans around the calls *it* makes into each layer's public API: it
//! walks a query the way `QueryExecutor::run` does (plan → `lookup_many`
//! → rank → top-k) and an indexing session the way
//! `IndexService::run_session` does (compute → encode → `insert_round` →
//! `classify_round`), and checks both replicas against the real thing.
//! Layers with no call of their own on that path get micro-probes that
//! replay inputs harvested from the workload — its keys, blocks, entries,
//! responses — not synthetic ones.
//!
//! The driver wants every per-layer metric from every traced run and
//! refuses a time that reads the same on every run, so a layer the workload
//! bypasses cannot be reported as 0. The workload's collection is therefore
//! built three ways (in-process/memory, in-process/segment, TCP fleet +
//! HTTP): the one the workload's configuration names is its own system —
//! the overhead loop, the span walk and the session replica run on it —
//! and the other two are the fixtures the bypassed layers are probed on.
//! `benchmark/README.md` says, per layer, on which workload its numbers are
//! the workload's own.
//!
//! A timing is never a single shot: latencies are p50s over thousands of
//! requests, and a micro-probe is the median over [`REPS`] repetitions.

use crate::fleet::HttpClient;
use crate::inputs::{Inputs, Issued, PEERS, TOP_K};
use crate::report::{Better, Metric};
use crate::stats::{median, quantile_sorted};
use crate::trace::Tracer;
use crate::workloads::{
    digest, fixed_pass, out_dir, restart_and_check, scratch_dir, timed_loop, Backend, Ops, Store,
    Stream, System, Workload, DFMAX,
};
use hdk_core::window_keys::{candidate_postings, single_term_postings};
use hdk_core::{
    build_entry_store, derive_query_id, Codec, GlobalIndex, HdkConfig, IndexStore, Key, KeyEntry,
    KeyEntryCodec, KeyLookup, LocalPeer, QueryCache, QueryPlan, QueryService, StoreConfig, TcpNet,
    WireRequest, WireResponse,
};
use hdk_corpus::{DocId, FrequencyStats};
use hdk_ir::{CompressedPostings, PostingList, ScoreAccumulator, SearchResult};
use hdk_p2p::{
    read_wire_frame, stripe_of, write_wire_frame, Addressed, Dht, InProc, MsgKind, PGrid, PeerId,
    Request, Response, SegmentStore, Slot, Store as EntryStore, Tier,
};
use hdk_text::TermId;
use rayon::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use Better::{Higher, Lower};

/// Every per-layer metric a traced run reports: name, unit, direction.
pub const PER_LAYER: [(&str, &str, Better); 52] = [
    ("http.self_us", "us", Lower),
    ("http.health_us", "us", Lower),
    ("http.response_bytes", "B", Lower),
    ("net.self_us", "us", Lower),
    ("net.rpcs_per_query", "count", Lower),
    ("net.connect_us", "us", Lower),
    ("peer.lookup_rtt_us", "us", Lower),
    ("codec.encode_ns", "ns", Lower),
    ("codec.decode_ns", "ns", Lower),
    ("codec.bytes_per_response", "B", Lower),
    ("wire.frame_ns", "ns", Lower),
    ("wire.overhead_bytes", "B", Lower),
    ("plan.ns_per_query", "ns", Lower),
    ("plan.candidates_per_query", "count", Lower),
    ("exec.self_us", "us", Lower),
    ("exec.levels_per_query", "count", Lower),
    ("exec.probes_per_query", "count", Lower),
    ("cache.hit_pct", "%", Higher),
    ("cache.probes_saved_pct", "%", Higher),
    ("cache.peek_commit_ns_per_key", "ns", Lower),
    ("global_index.lookup_many_us", "us", Lower),
    ("global_index.found_pct", "%", Higher),
    ("global_index.insert_round_ms", "ms", Lower),
    ("global_index.classify_round_ms", "ms", Lower),
    ("global_index.ndk_pct", "%", Lower),
    ("dht.lookup_ns_per_key", "ns", Lower),
    ("dht.upsert_ns_per_key", "ns", Lower),
    ("dht.hops_per_lookup", "count", Lower),
    ("store.get_hot_ns", "ns", Lower),
    ("store.get_sealed_ns", "ns", Lower),
    ("store.sealed_read_pct", "%", Lower),
    ("store.upsert_ns", "ns", Lower),
    ("store.seal_bytes_per_doc", "B", Lower),
    ("store.disk_bytes_per_live_byte", "count", Lower),
    ("store.recover_s", "s", Lower),
    ("store.replay_mb_per_s", "MB/s", Higher),
    ("store.frames_replayed", "count", Lower),
    ("ir.rank_ns_per_query", "ns", Lower),
    ("ir.rank_ns_per_posting", "ns", Lower),
    ("ir.decode_ns_per_posting", "ns", Lower),
    ("ir.topk_ns_per_query", "ns", Lower),
    ("ir.encode_ns_per_posting", "ns", Lower),
    ("ir.merge_ns_per_posting", "ns", Lower),
    ("ir.bytes_per_posting", "B", Lower),
    ("window_keys.ns_per_doc", "ns", Lower),
    ("window_keys.candidates_per_doc", "count", Lower),
    ("local_indexer.compute_round_ms", "ms", Lower),
    ("local_indexer.rounds_per_session", "count", Lower),
    ("text.analyze_ns_per_token", "ns", Lower),
    ("model.postings_per_query_bound", "count", Lower),
    ("model.bound_used_pct", "%", Lower),
    ("trace.overhead_pct", "%", Lower),
];

pub struct Layers {
    pub metrics: Vec<Metric>,
    pub ops: Ops,
    pub samples: Vec<(&'static str, usize)>,
}

/// Queries the span walk and the latency probes replay.
const PROBE_QUERIES: usize = 3_000;
/// Stored entries the store and block probes sample.
const ENTRY_SAMPLE: usize = 100_000;
/// Repetitions of every micro-probe and of the restart; their median is
/// what is reported.
const REPS: usize = 5;
/// Repetitions of the indexing-session replica (a whole build each).
const SESSIONS: usize = 3;
/// Hot budget of the segment stack when the workload itself is not tiered.
const PROBE_HOT_BYTES: u64 = 512 << 10;
const PROBE_NPROCS: usize = 2;

/// Collects metric values by name; `finish` checks none is missing.
#[derive(Default)]
struct Out(BTreeMap<&'static str, f64>);

impl Out {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    fn finish(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| Metric {
                name,
                unit,
                value: *self
                    .0
                    .get(name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} was never measured")),
            })
            .collect()
    }
}

fn p50(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// One resolved plan level: the keys probed and what came back.
struct Level {
    from: PeerId,
    keys: Vec<Key>,
    found: Vec<Option<KeyLookup>>,
}

#[derive(Default)]
struct WalkCounts {
    queries: u64,
    levels: u64,
    planned: u64,
    found: u64,
    postings_ranked: u64,
    /// Distinct owning peer processes per level, summed: the round trips
    /// `TcpNet` pays (one per process a level's keys touch).
    rpcs: u64,
}

/// Walks one query exactly as `QueryExecutor::run` does, with a span
/// around every call into a layer. Returns the ranked results.
fn walk_query(
    t: &mut Tracer,
    request: u64,
    qs: &QueryService,
    q: &Issued<'_>,
    counts: &mut WalkCounts,
    harvest: &mut Vec<Level>,
) -> Vec<SearchResult> {
    let smax = qs.config().smax;
    let (num_docs, avg_doc_len) = (qs.num_docs(), qs.avg_doc_len());
    let query_id = derive_query_id(q.from, q.terms, 0);
    t.span("exec.query", request, |t| {
        let index = qs.index();
        let plan = t.span("plan", request, |_| QueryPlan::new(q.terms, smax));
        let mut acc = ScoreAccumulator::new(num_docs, avg_doc_len);
        let mut frontier: Vec<Key> = Vec::new();
        let mut ndk_terms: Vec<TermId> = Vec::new();
        counts.queries += 1;
        for level in 1..=plan.max_level() {
            let nodes = t.span("plan", request, |_| {
                if level == 1 {
                    plan.level_one()
                } else {
                    plan.expand(&frontier, &ndk_terms)
                }
            });
            if nodes.is_empty() {
                break;
            }
            let found = t.span("global_index.lookup_many", request, |_| {
                index.lookup_many(q.from, query_id, &nodes)
            });
            t.span("ir.rank", request, |_| {
                for lookup in found.iter().flatten() {
                    acc.accumulate_block(lookup.df, &lookup.postings);
                }
            });
            counts.levels += 1;
            counts.planned += nodes.len() as u64;
            let owners: HashSet<usize> = nodes
                .iter()
                .map(|k| stripe_of(k.dht_hash()) % PROBE_NPROCS)
                .collect();
            counts.rpcs += owners.len() as u64;
            let mut next = Vec::new();
            for (key, lookup) in nodes.iter().zip(&found) {
                if let Some(l) = lookup {
                    counts.found += 1;
                    counts.postings_ranked += l.postings.len() as u64;
                    if l.is_ndk {
                        next.push(*key);
                        if level == 1 {
                            ndk_terms.push(key.terms().next().expect("singles have one term"));
                        }
                    }
                }
            }
            harvest.push(Level {
                from: q.from,
                keys: nodes,
                found,
            });
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        t.span("ir.topk", request, |_| acc.into_top_k(TOP_K))
    })
}

/// What the replica of one indexing session measured.
struct Session {
    compute_ms: f64,
    insert_ms: f64,
    classify_ms: f64,
    rounds: usize,
    index: GlobalIndex,
    peers: Vec<LocalPeer>,
}

/// Indexes the base collection the way `IndexService::run_session` does,
/// phase by phase, over a fresh index on the workload's kind of store.
fn walk_session(
    t: &mut Tracer,
    inputs: &Inputs,
    config: &HdkConfig,
    excluded: &HashSet<TermId>,
) -> Session {
    let peer_ids: Vec<PeerId> = (0..PEERS as u64).map(PeerId).collect();
    let overlay = Box::new(PGrid::new(peer_ids.clone()));
    let store = IndexStore::new(config.dfmax);
    let index = match build_entry_store(&config.store) {
        None => GlobalIndex::new(overlay, config.dfmax),
        Some(entries) => GlobalIndex::with_backend(
            Box::new(InProc::with_store(overlay, store, 1, entries)),
            config.dfmax,
        ),
    };
    let mut peers: Vec<LocalPeer> = inputs
        .partitions
        .iter()
        .zip(&peer_ids)
        .map(|(docs, &id)| {
            LocalPeer::new(
                id,
                docs.iter()
                    .map(|&d| (d, inputs.base.doc(d).tokens.clone()))
                    .collect(),
            )
        })
        .collect();
    let mut s = Session {
        compute_ms: 0.0,
        insert_ms: 0.0,
        classify_ms: 0.0,
        rounds: 0,
        index,
        peers: Vec::new(),
    };
    let ms = |span: &crate::trace::Span| span.duration_ns() as f64 / 1e6;
    for round in 1..=config.smax {
        let request = round as u64;
        let computed: Vec<(PeerId, Vec<(Key, PostingList)>)> =
            t.span("local_indexer.compute_round", request, |_| {
                peers
                    .par_iter()
                    .map(|peer| {
                        let mut batch: Vec<(Key, PostingList)> = peer
                            .compute_round(round, config, excluded)
                            .into_iter()
                            .filter(|(_, postings)| !postings.is_empty())
                            .collect();
                        batch.sort_unstable_by_key(|(key, _)| *key);
                        (peer.id, batch)
                    })
                    .collect()
            });
        s.compute_ms += ms(t.spans().last().expect("span just recorded"));
        let batches: Vec<(PeerId, Vec<(Key, CompressedPostings)>)> =
            t.span("ir.encode", request, |_| {
                computed
                    .par_iter()
                    .map(|(peer, batch)| {
                        let blocks = batch
                            .iter()
                            .map(|(key, list)| {
                                (*key, CompressedPostings::from_list_with(list, config.codec))
                            })
                            .collect();
                        (*peer, blocks)
                    })
                    .collect()
            });
        let mut already_ndk = t.span("global_index.insert_round", request, |_| {
            s.index.insert_round(batches)
        });
        s.insert_ms += ms(t.spans().last().expect("span just recorded"));
        s.rounds = round;
        let mut notifications = t.span("global_index.classify_round", request, |_| {
            s.index.classify_round(round)
        });
        s.classify_ms += ms(t.spans().last().expect("span just recorded"));
        if round == config.smax {
            break;
        }
        for peer in &mut peers {
            let mut keys = notifications.remove(&peer.id).unwrap_or_default();
            keys.extend(already_ndk.remove(&peer.id).unwrap_or_default());
            keys.sort_unstable();
            keys.dedup();
            peer.receive_notifications(round, &keys);
        }
        if peers.iter().all(|p| p.ndk_keys(round).is_empty()) {
            break;
        }
    }
    s.peers = peers;
    s
}

/// Total size of the files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn us_of(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_nanos() as f64 / 1_000.0
}

/// Median elapsed nanoseconds over [`REPS`] repetitions of `f`; each
/// repetition gets whatever fresh state `fresh` makes, built off the clock.
fn median_ns<S>(mut fresh: impl FnMut() -> S, mut f: impl FnMut(S)) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let state = fresh();
            let started = Instant::now();
            f(state);
            started.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

/// What the probes collect as they go.
#[derive(Default)]
struct Probe {
    out: Out,
    ops: Ops,
    samples: Vec<(&'static str, usize)>,
}

impl Probe {
    fn attempt(&mut self, failed: bool) {
        self.ops.add(Ops {
            attempted: 1,
            failed: u64::from(failed),
        });
    }
}

/// What the span walk leaves for the probes after it.
struct Walked {
    counts: WalkCounts,
    levels: Vec<Level>,
}

/// Runs the traced variant of workload `w`. `Err` is a correctness
/// failure (a replica that disagrees with the program, a failed request).
pub fn run(w: &Workload, inputs: &Inputs, seconds: f64, peer_bin: &Path) -> Result<Layers, String> {
    let mut p = Probe::default();
    p.samples.push(("probe_queries", PROBE_QUERIES));
    p.samples.push(("probe_repetitions", REPS));
    let mut stream = Stream::new(inputs);
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;

    // --- The collection, built three ways; one of them is the workload. ---
    let hot_bytes = match w.store {
        Store::Segment { hot_bytes } => hot_bytes,
        Store::Memory => PROBE_HOT_BYTES,
    };
    let variant = |backend, store| Workload {
        backend,
        store,
        ..*w
    };
    let set_up = |v: &Workload| System::set_up(v, &inputs.base, &inputs.partitions, peer_bin);
    let mem = set_up(&variant(Backend::InProc, Store::Memory));
    let mut seg = set_up(&variant(Backend::InProc, Store::Segment { hot_bytes }));
    let tcp = set_up(&variant(
        Backend::Tcp {
            nprocs: PROBE_NPROCS,
            clients: 1,
        },
        Store::Memory,
    ));
    let own: &System = match (w.backend, w.store) {
        (Backend::Tcp { .. }, _) => &tcp,
        (Backend::InProc, Store::Segment { .. }) => &seg,
        (Backend::InProc, Store::Memory) => &mem,
    };
    let fixed = fixed_pass(&own.qs, inputs);
    stream.expected = Some(fixed.digests());

    tracing_overhead(&mut p, w, own, &stream, seconds)?;
    let walked = walk_own_system(&mut p, w, own, &stream)?;
    model_bound(&mut p, own, inputs, fixed.postings_per_query);
    serving_depths(&mut p, &tcp, &mem, &stream, &walked.levels)?;
    codec_and_wire(&mut p, &walked.levels)?;
    query_cache(&mut p, &mem, inputs, &walked);
    bare_dht(&mut p, &walked.levels);
    let entries = sample_entries(&mem);
    p.samples.push(("entries_sampled", entries.len()));
    bare_store(&mut p, &entries, hot_bytes, &walked.levels)?;
    blocks(&mut p, &entries);
    sealing_and_recovery(&mut p, &mut seg, inputs)?;
    indexing_session(&mut p, w, inputs, &mem)?;
    text_analysis(&mut p, inputs);

    mem.tear_down()?;
    seg.tear_down()?;
    tcp.tear_down()?;
    if p.ops.failed > 0 {
        return Err(format!(
            "{} of {} probe operations failed",
            p.ops.failed, p.ops.attempted
        ));
    }
    Ok(Layers {
        metrics: p.out.finish(),
        ops: p.ops,
        samples: p.samples,
    })
}

/// `trace.overhead_pct`: the workload's own closed loop over the same
/// requests, bare and with a root span around each, in alternating chunks
/// so both sides see the same machine.
fn tracing_overhead(
    p: &mut Probe,
    w: &Workload,
    own: &System,
    stream: &Stream<'_>,
    seconds: f64,
) -> Result<(), String> {
    const CHUNKS: usize = 8;
    let slice = Duration::from_secs_f64(seconds * 0.2 / (2 * CHUNKS) as f64);
    let mut clients = own.clients(w.clients());
    p.ops
        .add(timed_loop(&mut clients, stream, slice, false).ops);
    let (mut bare, mut spanned) = ((0.0, 0.0), (0.0, 0.0));
    let mut tracers = Vec::new();
    for _ in 0..CHUNKS {
        for (side, traced) in [(&mut bare, false), (&mut spanned, true)] {
            let chunk = timed_loop(&mut clients, stream, slice, traced);
            p.ops.add(chunk.ops);
            side.0 += chunk.replies.len() as f64;
            side.1 += chunk.seconds;
            if traced {
                tracers = chunk.tracers;
            }
        }
    }
    let (bare_rate, spanned_rate) = (bare.0 / bare.1, spanned.0 / spanned.1);
    p.out.set(
        "trace.overhead_pct",
        100.0 * (bare_rate - spanned_rate) / bare_rate,
    );
    p.samples
        .push(("overhead_requests_per_side", bare.0 as usize));
    for (i, tracer) in tracers.iter().enumerate() {
        tracer
            .write_jsonl(&out_dir().join(format!("spans-{}-requests-{i}.jsonl", w.name)))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The span walk over the workload's own system: plan, `lookup_many`,
/// rank, top-k, and `exec` as what is left of the real query. Each query is
/// walked and really run back to back — the machine's speed drifts over a
/// minute, and a difference of two medians only means something when both
/// were taken through the same minute.
fn walk_own_system(
    p: &mut Probe,
    w: &Workload,
    own: &System,
    stream: &Stream<'_>,
) -> Result<Walked, String> {
    let inputs = stream.inputs;
    let expected = stream.expected.as_ref().expect("set before the walk");
    let mut tracer = Tracer::new();
    let mut counts = WalkCounts::default();
    let mut levels: Vec<Level> = Vec::new();
    let mut real_us = Vec::new();
    for i in 0..PROBE_QUERIES {
        let q = inputs.issued(i);
        // Whichever of the walk and the real query goes first pays the
        // cache misses for this query's keys; they take turns.
        let real = |real_us: &mut Vec<f64>| {
            real_us.push(us_of(|| {
                black_box(own.qs.query(q.from, q.terms, TOP_K));
            }))
        };
        if i % 2 == 1 {
            real(&mut real_us);
        }
        let results = walk_query(&mut tracer, i as u64, &own.qs, &q, &mut counts, &mut levels);
        // The replica must rank exactly what the program ranks.
        p.attempt(digest(&results) != expected[q.log_pos]);
        if i % 2 == 0 {
            real(&mut real_us);
        }
    }
    let self_ns = tracer.self_ns_per_request();
    let layer_p50_ns = |name: &str| p50(&self_ns[name]);
    let queries = counts.queries as f64;
    p.out.set("plan.ns_per_query", layer_p50_ns("plan"));
    p.out
        .set("plan.candidates_per_query", counts.planned as f64 / queries);
    p.out.set(
        "global_index.lookup_many_us",
        layer_p50_ns("global_index.lookup_many") / 1e3,
    );
    p.out.set(
        "global_index.found_pct",
        100.0 * counts.found as f64 / counts.planned as f64,
    );
    p.out.set("ir.rank_ns_per_query", layer_p50_ns("ir.rank"));
    p.out.set("ir.topk_ns_per_query", layer_p50_ns("ir.topk"));
    p.out.set(
        "ir.rank_ns_per_posting",
        self_ns["ir.rank"].iter().sum::<f64>() / counts.postings_ranked as f64,
    );
    let walked_us: f64 = ["plan", "global_index.lookup_many", "ir.rank", "ir.topk"]
        .iter()
        .map(|name| layer_p50_ns(name))
        .sum::<f64>()
        / 1e3;
    p.out.set("exec.self_us", p50(&real_us) - walked_us);
    p.out
        .set("exec.levels_per_query", counts.levels as f64 / queries);
    p.out
        .set("exec.probes_per_query", counts.planned as f64 / queries);
    p.out
        .set("net.rpcs_per_query", counts.rpcs as f64 / queries);
    p.samples.push(("walk_spans", tracer.spans().len()));
    tracer
        .write_jsonl(&out_dir().join(format!("spans-{}-walk.jsonl", w.name)))
        .map_err(|e| e.to_string())?;
    Ok(Walked { counts, levels })
}

/// `model`: the paper's bound beside the measured cost.
fn model_bound(p: &mut Probe, own: &System, inputs: &Inputs, postings_per_query: f64) {
    let smax = own.qs.config().smax;
    let bound = inputs
        .log
        .queries
        .iter()
        .map(|q| hdk_model::retrieval_cost::retrieval_traffic_bound(q.len(), smax, DFMAX) as f64)
        .sum::<f64>()
        / inputs.log.len() as f64;
    p.out.set("model.postings_per_query_bound", bound);
    p.out
        .set("model.bound_used_pct", 100.0 * postings_per_query / bound);
}

/// `http`, `net`, `peer`: the same query at each depth of the serving
/// stack — `/query`, `QueryService::query` over `TcpNet`, the same over the
/// in-process twin — the three back to back per query, then `/health`,
/// connects, and raw lookup frames to one peer process.
fn serving_depths(
    p: &mut Probe,
    tcp: &System,
    mem: &System,
    stream: &Stream<'_>,
    levels: &[Level],
) -> Result<(), String> {
    let inputs = stream.inputs;
    let http_addr = tcp
        .http
        .as_ref()
        .expect("the TCP stack has a front-end")
        .addr();
    let mut http = HttpClient::connect(http_addr);
    let mut response_bytes = 0usize;
    let (mut http_us, mut tcp_us, mut mem_us) = (vec![], vec![], vec![]);
    for i in 0..PROBE_QUERIES {
        let q = inputs.issued(i);
        http_us.push(us_of(|| {
            let (status, _, wire_bytes) = http.get(stream.target(q.log_pos));
            response_bytes += wire_bytes;
            p.attempt(status != 200);
        }));
        tcp_us.push(us_of(|| {
            black_box(tcp.qs.query(q.from, q.terms, TOP_K));
        }));
        mem_us.push(us_of(|| {
            black_box(mem.qs.query(q.from, q.terms, TOP_K));
        }));
    }
    p.out.set("http.self_us", p50(&http_us) - p50(&tcp_us));
    p.out.set("net.self_us", p50(&tcp_us) - p50(&mem_us));
    p.out.set(
        "http.response_bytes",
        response_bytes as f64 / PROBE_QUERIES as f64,
    );
    let health: Vec<f64> = (0..500)
        .map(|_| {
            us_of(|| {
                let (status, _, _) = http.get("/health");
                p.attempt(status != 200);
            })
        })
        .collect();
    p.out.set("http.health_us", p50(&health));
    drop(http);

    let addrs = &tcp.fleet.as_ref().expect("the TCP stack has a fleet").addrs;
    let connects: Vec<f64> = (0..50)
        .map(|_| {
            let peer_ids = (0..PEERS as u64).map(PeerId).collect();
            us_of(|| {
                let net = TcpNet::connect(addrs, Box::new(PGrid::new(peer_ids)), DFMAX, 1);
                p.attempt(net.is_err());
            })
        })
        .collect();
    p.out.set("net.connect_us", p50(&connects));

    // One raw lookup frame per harvested level-1 key the first peer
    // process owns: request encode → socket → peer dispatch → reply.
    let mut socket = TcpStream::connect(&addrs[0]).map_err(|e| e.to_string())?;
    socket.set_nodelay(true).map_err(|e| e.to_string())?;
    let rtts: Vec<f64> = levels
        .iter()
        .flat_map(|l| l.keys.iter().map(move |k| (l.from, *k)))
        .filter(|(_, k)| k.size() == 1 && stripe_of(k.dht_hash()).is_multiple_of(PROBE_NPROCS))
        .take(2_000)
        .map(|(from, key)| {
            us_of(|| {
                let frame = WireRequest::Rpc(Request::LookupMany {
                    from,
                    query_id: key.dht_hash().0,
                    keys: vec![Addressed {
                        route: key.dht_hash(),
                        body: key,
                    }],
                })
                .encode();
                let reply = write_wire_frame(&mut socket, &frame)
                    .and_then(|()| read_wire_frame(&mut socket))
                    .and_then(|payload| WireResponse::decode(&payload));
                p.attempt(!matches!(
                    reply,
                    Ok(WireResponse::Rpc(Response::Found { .. }))
                ));
            })
        })
        .collect();
    p.samples.push(("peer_round_trips", rtts.len()));
    p.out.set("peer.lookup_rtt_us", p50(&rtts));
    Ok(())
}

/// `codec`, `wire`: the responses the walk's lookups carried.
fn codec_and_wire(p: &mut Probe, levels: &[Level]) -> Result<(), String> {
    let responses: Vec<WireResponse> = levels
        .iter()
        .take(4_000)
        .map(|l| {
            WireResponse::Rpc(Response::Found {
                results: l.found.clone(),
            })
        })
        .collect();
    let n = responses.len() as f64;
    let encode_ns = median_ns(
        || (),
        |()| {
            for response in &responses {
                black_box(response.encode());
            }
        },
    );
    let encoded: Vec<Vec<u8>> = responses.iter().map(WireResponse::encode).collect();
    let mut undecodable = 0u64;
    let decode_ns = median_ns(
        || (),
        |()| {
            for payload in &encoded {
                undecodable += u64::from(WireResponse::decode(black_box(payload)).is_err());
            }
        },
    );
    p.ops.add(Ops {
        attempted: encoded.len() as u64,
        failed: undecodable.min(encoded.len() as u64),
    });
    p.out.set("codec.encode_ns", encode_ns / n);
    p.out.set("codec.decode_ns", decode_ns / n);
    p.out.set(
        "codec.bytes_per_response",
        encoded.iter().map(Vec::len).sum::<usize>() as f64 / n,
    );
    let mut by_size: Vec<&Vec<u8>> = encoded.iter().collect();
    by_size.sort_by_key(|payload| payload.len());
    let payload = by_size[by_size.len() / 2];
    let rounds = 20_000;
    let mut framed = Vec::with_capacity(payload.len() + 64);
    let mut broken = false;
    let frame_ns = median_ns(
        || (),
        |()| {
            for _ in 0..rounds {
                framed.clear();
                broken |= write_wire_frame(&mut framed, black_box(payload)).is_err();
                broken |= read_wire_frame(&mut framed.as_slice()).is_err();
            }
        },
    );
    p.attempt(broken);
    p.out.set("wire.frame_ns", frame_ns / rounds as f64);
    p.out
        .set("wire.overhead_bytes", (framed.len() - payload.len()) as f64);
    Ok(())
}

/// `cache`: one cached pass over the probe queries at 256 entries, then
/// the walk's levels through `peek_level` / `commit_level`.
fn query_cache(p: &mut Probe, mem: &System, inputs: &Inputs, walked: &Walked) {
    let cache = QueryCache::new(256);
    let cached_lookups: u64 = (0..PROBE_QUERIES)
        .map(|i| {
            let q = inputs.issued(i);
            u64::from(mem.qs.query_cached(q.from, q.terms, TOP_K, &cache).lookups)
        })
        .sum();
    let stats = cache.stats();
    let planned = walked.counts.planned;
    p.out.set(
        "cache.hit_pct",
        100.0 * stats.hits as f64 / (stats.hits + stats.misses) as f64,
    );
    p.out.set(
        "cache.probes_saved_pct",
        100.0 * (planned - cached_lookups) as f64 / planned as f64,
    );
    let epoch = mem.qs.epoch();
    let ns = median_ns(
        || QueryCache::new(256),
        |cache| {
            for level in &walked.levels {
                let peeks = cache.peek_level(epoch, &level.keys);
                let commits: Vec<(Key, Option<KeyLookup>, bool)> = level
                    .keys
                    .iter()
                    .zip(&level.found)
                    .zip(&peeks)
                    .map(|((key, found), peek)| (*key, found.clone(), peek.is_hit()))
                    .collect();
                cache.commit_level(epoch, &commits);
            }
        },
    );
    p.out
        .set("cache.peek_commit_ns_per_key", ns / planned as f64);
}

/// `dht`: the walk's distinct keys against a bare `Dht`.
fn bare_dht(p: &mut Probe, levels: &[Level]) {
    let mut hashes: Vec<(PeerId, hdk_p2p::KeyHash)> = levels
        .iter()
        .flat_map(|l| l.keys.iter().map(move |k| (l.from, k.dht_hash())))
        .collect();
    hashes.sort_unstable_by_key(|(_, h)| h.0);
    hashes.dedup_by_key(|(_, h)| h.0);
    let n = hashes.len() as f64;
    let fresh = || -> Dht<u64> {
        Dht::new(Box::new(PGrid::new(
            (0..PEERS as u64).map(PeerId).collect(),
        )))
    };
    let fill = |dht: &Dht<u64>| {
        for (from, hash) in &hashes {
            dht.upsert(*from, *hash, 1, 8, || 0, |v| *v += 1);
        }
    };
    let upsert_ns = median_ns(fresh, |dht| fill(&dht));
    let dht = fresh();
    fill(&dht);
    let before = dht.snapshot();
    let lookup_ns = median_ns(
        || (),
        |()| {
            for (from, hash) in &hashes {
                black_box(dht.lookup(*from, *hash, |v| (v.copied(), 0, 8)));
            }
        },
    );
    let lookups = dht.snapshot().since(&before).kind(MsgKind::QueryLookup);
    p.out.set("dht.upsert_ns_per_key", upsert_ns / n);
    p.out.set("dht.lookup_ns_per_key", lookup_ns / n);
    p.out.set(
        "dht.hops_per_lookup",
        lookups.hops as f64 / lookups.messages as f64,
    );
    p.samples.push(("dht_keys", hashes.len()));
}

/// Stored entries for the store and block probes: sorted by key, evenly
/// strided, so the sample is the same on every run.
fn sample_entries(mem: &System) -> Vec<KeyEntry> {
    let mut all = Vec::new();
    mem.qs.index().for_each_entry(|e| all.push(e.clone()));
    all.sort_unstable_by_key(|e| e.key);
    let stride = all.len().div_ceil(ENTRY_SAMPLE).max(1);
    all.into_iter().step_by(stride).collect()
}

/// `store`: the sampled entries replayed against a bare `SegmentStore`.
fn bare_store(
    p: &mut Probe,
    entries: &[KeyEntry],
    hot_bytes: u64,
    levels: &[Level],
) -> Result<(), String> {
    let place = |e: &KeyEntry| {
        let hash = e.key.dht_hash();
        (stripe_of(hash), hash.0)
    };
    let fill = |store: &SegmentStore<KeyEntry, KeyEntryCodec>| {
        for entry in entries {
            let (stripe, key) = place(entry);
            store.upsert(
                stripe,
                key,
                &mut || Slot {
                    value: entry.clone(),
                    holders: vec![(key % PEERS as u64) as u32],
                },
                &mut |_| {},
            );
        }
    };
    // Every repetition fills a store of its own; the last one is kept for
    // the reads.
    let mut kept = None;
    let upsert_ns = median_ns(
        || SegmentStore::at_dir(KeyEntryCodec, scratch_dir("store-probe"), hot_bytes),
        |store| {
            fill(&store);
            kept = Some(store);
        },
    );
    let store = kept.expect("at least one repetition");
    p.out
        .set("store.upsert_ns", upsert_ns / entries.len() as f64);
    let mut tiers: HashMap<u64, bool> = HashMap::new();
    for stripe in 0..hdk_p2p::NUM_STRIPES {
        store.scan(stripe, &mut |key, _, tier| {
            tiers.insert(key, matches!(tier, Tier::Sealed { .. }));
        });
    }
    let timed_gets = |sealed: bool| -> f64 {
        let picked: Vec<(usize, u64)> = entries
            .iter()
            .map(place)
            .filter(|(_, key)| tiers[key] == sealed)
            .take(20_000)
            .collect();
        let ns = median_ns(
            || (),
            |()| {
                for (stripe, key) in &picked {
                    store.get(*stripe, *key, &mut |slot| {
                        black_box(slot.map(|s| s.value.df));
                    });
                }
            },
        );
        ns / picked.len().max(1) as f64
    };
    p.out.set("store.get_hot_ns", timed_gets(false));
    p.out.set("store.get_sealed_ns", timed_gets(true));
    // Of the stream's reads of sampled keys, the share a sealed frame serves.
    let (mut reads, mut sealed_reads) = (0u64, 0u64);
    for key in levels.iter().flat_map(|l| &l.keys) {
        if let Some(&sealed) = tiers.get(&key.dht_hash().0) {
            reads += 1;
            sealed_reads += u64::from(sealed);
        }
    }
    p.out.set(
        "store.sealed_read_pct",
        100.0 * sealed_reads as f64 / reads.max(1) as f64,
    );
    Ok(())
}

/// `ir`: the sampled entries' blocks through the block codec.
fn blocks(p: &mut Probe, entries: &[KeyEntry]) {
    let blocks: Vec<&CompressedPostings> = entries.iter().map(|e| &e.postings).collect();
    let postings: usize = blocks.iter().map(|b| b.len()).sum();
    let decode_ns = median_ns(
        || (),
        |()| {
            let mut sum = 0u64;
            for block in &blocks {
                for posting in block.iter() {
                    sum += u64::from(posting.doc.0) + u64::from(posting.tf);
                }
            }
            black_box(sum);
        },
    );
    p.out
        .set("ir.decode_ns_per_posting", decode_ns / postings as f64);
    let lists: Vec<PostingList> = blocks.iter().map(|b| b.decode()).collect();
    let encode_ns = median_ns(
        || (),
        |()| {
            for list in &lists {
                black_box(CompressedPostings::from_list_with(list, Codec::Leb128));
            }
        },
    );
    p.out
        .set("ir.encode_ns_per_posting", encode_ns / postings as f64);
    let merged: usize = blocks
        .chunks_exact(2)
        .map(|pair| pair[0].len() + pair[1].len())
        .sum();
    let merge_ns = median_ns(
        || (),
        |()| {
            for pair in blocks.chunks_exact(2) {
                black_box(pair[0].merge_counting(pair[1]));
            }
        },
    );
    p.out
        .set("ir.merge_ns_per_posting", merge_ns / merged as f64);
    p.out.set(
        "ir.bytes_per_posting",
        blocks.iter().map(|b| b.encoded_len()).sum::<usize>() as f64 / postings as f64,
    );
}

/// `store` on the segment stack itself: what sealing wrote, and recovery —
/// `sync_storage` → `restart_peers(all)` → first answer with the score bits
/// it had before, [`REPS`] times.
fn sealing_and_recovery(p: &mut Probe, seg: &mut System, inputs: &Inputs) -> Result<(), String> {
    seg.indexer.sync_storage();
    let live = seg.qs.index().sealed_segment_bytes();
    let on_disk = dir_bytes(
        seg.dir
            .as_deref()
            .expect("the segment stack has a directory"),
    );
    p.out.set(
        "store.seal_bytes_per_doc",
        live as f64 / inputs.base_docs() as f64,
    );
    p.out.set(
        "store.disk_bytes_per_live_byte",
        on_disk as f64 / live as f64,
    );
    let mut recover_s = Vec::new();
    let mut replay_mb_per_s = Vec::new();
    let mut frames = 0u64;
    for _ in 0..REPS {
        let restart = restart_and_check(seg, inputs)?;
        p.attempt(false);
        recover_s.push(restart.seconds);
        replay_mb_per_s.push(restart.bytes_replayed as f64 / 1e6 / restart.replay_seconds);
        frames = restart.frames_replayed;
    }
    p.out.set("store.recover_s", median(&recover_s));
    p.out.set("store.replay_mb_per_s", median(&replay_mb_per_s));
    p.out.set("store.frames_replayed", frames as f64);
    Ok(())
}

/// `local_indexer`, `global_index` rounds, `window_keys`: the indexing
/// session over the base collection, phase by phase, on the workload's kind
/// of store, [`SESSIONS`] times.
fn indexing_session(
    p: &mut Probe,
    w: &Workload,
    inputs: &Inputs,
    mem: &System,
) -> Result<(), String> {
    let excluded: HashSet<TermId> = FrequencyStats::compute(&inputs.base)
        .very_frequent_terms(HdkConfig::default().ff)
        .into_iter()
        .collect();
    let (mut compute_ms, mut insert_ms, mut classify_ms) = (vec![], vec![], vec![]);
    let mut last: Option<(Session, HdkConfig)> = None;
    for i in 0..SESSIONS {
        let config = HdkConfig {
            dfmax: DFMAX,
            store: match w.store {
                Store::Memory => StoreConfig::Memory,
                Store::Segment { hot_bytes } => StoreConfig::Segment {
                    dir: Some(scratch_dir("session-probe")),
                    hot_bytes,
                },
            },
            codec: Codec::Leb128,
            ..HdkConfig::default()
        };
        let mut tracer = Tracer::new();
        let session = walk_session(&mut tracer, inputs, &config, &excluded);
        // The replica must build exactly the index the program builds.
        p.attempt(session.index.index_counts() != mem.qs.index().index_counts());
        compute_ms.push(session.compute_ms);
        insert_ms.push(session.insert_ms);
        classify_ms.push(session.classify_ms);
        if i + 1 == SESSIONS {
            tracer
                .write_jsonl(&out_dir().join(format!("spans-{}-session.jsonl", w.name)))
                .map_err(|e| e.to_string())?;
        }
        last = Some((session, config));
    }
    let (session, config) = last.expect("at least one session");
    p.samples.push(("sessions", SESSIONS));
    p.out
        .set("local_indexer.compute_round_ms", median(&compute_ms));
    p.out
        .set("local_indexer.rounds_per_session", session.rounds as f64);
    p.out
        .set("global_index.insert_round_ms", median(&insert_ms));
    p.out
        .set("global_index.classify_round_ms", median(&classify_ms));
    let counts = session.index.index_counts();
    let ndk_keys: u64 = counts.ndk_keys.iter().sum();
    p.out.set(
        "global_index.ndk_pct",
        100.0 * ndk_keys as f64 / counts.total_keys() as f64,
    );

    // window_keys: one peer's documents, with the NDK knowledge the
    // session left that peer.
    let peer = &session.peers[0];
    let docs: Vec<(DocId, &[TermId])> = inputs.partitions[0]
        .iter()
        .map(|&d| (d, inputs.base.doc(d).tokens.as_slice()))
        .collect();
    let mut candidates = 0usize;
    let ns = median_ns(
        || (),
        |()| {
            let singles = single_term_postings(docs.iter().copied(), &excluded);
            let pairs = candidate_postings(
                docs.iter().copied(),
                config.window,
                2,
                peer.ndk_singles(),
                peer.ndk_keys(1),
                config.exact_intrinsic,
            );
            candidates = singles
                .values()
                .chain(pairs.values())
                .map(PostingList::len)
                .sum();
        },
    );
    p.out.set("window_keys.ns_per_doc", ns / docs.len() as f64);
    p.out.set(
        "window_keys.candidates_per_doc",
        candidates as f64 / docs.len() as f64,
    );
    Ok(())
}

/// `text`: the collection's last documents rendered back to words.
fn text_analysis(p: &mut Probe, inputs: &Inputs) {
    // `hdk_text::porter::stem("logi")` indexes out of bounds (the
    // `logi` -> `log` rule measures a stem it has not bounded). The
    // generator's vocabulary contains that one word; a workload may
    // not contain an operation that fails, so it is left out of the
    // rendered text until the stemmer is fixed.
    const STEMMER_PANICS_ON: &str = "logi";
    const DOCS: usize = 500;
    let vocab = inputs.full.vocab();
    let docs = inputs.full.docs();
    let texts: Vec<Vec<&str>> = docs[docs.len().saturating_sub(DOCS)..]
        .iter()
        .map(|d| {
            d.tokens
                .iter()
                .map(|t| vocab.term(*t))
                .filter(|word| *word != STEMMER_PANICS_ON)
                .collect()
        })
        .collect();
    let tokens: usize = texts.iter().map(Vec::len).sum();
    let texts: Vec<String> = texts.iter().map(|words| words.join(" ")).collect();
    let mut analyzer = hdk_text::Analyzer::new();
    let ns = median_ns(
        || (),
        |()| {
            for text in &texts {
                black_box(analyzer.analyze(text));
            }
        },
    );
    p.out.set("text.analyze_ns_per_token", ns / tokens as f64);
}
