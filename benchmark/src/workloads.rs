//! The four workloads. All share one skeleton — set-up several times,
//! a fixed pass over the distinct queries (counts, expected digests), a
//! timed phase, peak memory, verification — and each runs only the timed
//! phase that is its own: closed-loop query passes, or growth through
//! `add_documents` beside a reader.

use crate::fleet::{peak_rss_mib, Fleet, HttpClient};
use crate::inputs::{Inputs, Issued, PEERS, TOP_K};
use crate::stats::{median, samples_beyond, timing_of_passes, Pass, PhaseTiming};
use crate::trace::Tracer;
use hdk_core::{
    spawn_http, BackendConfig, Codec, HdkConfig, HdkNetwork, HttpHandle, IndexCounts, IndexService,
    OverlayKind, QueryService, StoreConfig,
};
use hdk_corpus::{Collection, DocId, FrequencyStats};
use hdk_ir::{top_k_overlap, CentralizedEngine, SearchResult};
use hdk_p2p::{MsgKind, PeerId};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The paper's `DFmax` for every workload.
pub const DFMAX: u32 = 40;
/// The whole set-up runs once untimed (the first build in a process pays
/// for a cold allocator) and then this many times; `setup_s` and the
/// build rate are medians over the timed ones.
pub const TIMED_SETUPS: usize = 5;
/// Timed query passes, after one untimed pass of the same length;
/// `--seconds` is their total length.
pub const QUERY_PASSES: usize = 5;
/// Queries whose top-k bits are compared against the twin.
const TWIN_QUERIES: usize = 64;
/// Restarts a durable store must survive with every score bit intact.
const RESTARTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    InProc,
    /// `nprocs` real `hdk-peer` processes behind the HTTP front-end,
    /// driven by `clients` keep-alive connections.
    Tcp {
        nprocs: usize,
        clients: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Store {
    Memory,
    Segment { hot_bytes: u64 },
}

/// Documents added after set-up, in `batches` calls of `add_documents`,
/// while one reader queries throughout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Growth {
    pub batches: usize,
    pub docs: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub backend: Backend,
    pub store: Store,
    pub base_docs: usize,
    /// `Some`: the timed phase is growth beside a reader. `None`: it is
    /// the query passes, and the build rate comes from the timed set-ups.
    pub growth: Option<Growth>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve_tcp",
        why: "HTTP -> TcpNet -> 2 hdk-peer processes: sockets, serve::codec, peer dispatch and HTTP dominate; ir and store idle",
        backend: Backend::Tcp {
            nprocs: 2,
            clients: 2,
        },
        store: Store::Memory,
        base_docs: 2_000,
        growth: None,
    },
    Workload {
        name: "query_inproc",
        why: "in-process, all resident, one caller: plan, exec, dht lookup_many, block decode and BM25 are the whole cost; serve::* bypassed",
        backend: Backend::InProc,
        store: Store::Memory,
        base_docs: 2_500,
        growth: None,
    },
    Workload {
        name: "ingest",
        why: "add_documents batches beside a closed-loop reader on the same stripes: the write path, and reads under write locks",
        backend: Backend::InProc,
        store: Store::Memory,
        base_docs: 2_000,
        growth: Some(Growth {
            batches: 4,
            docs: 2_000,
        }),
    },
    Workload {
        name: "tiered",
        why: "segment store with a hot tier far smaller than the index: reads from sealed frames, writes pay sealing, restart replays logs",
        backend: Backend::InProc,
        store: Store::Segment {
            hot_bytes: 1 << 20,
        },
        base_docs: 2_000,
        growth: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    fn config(&self, dir: Option<&Path>) -> HdkConfig {
        HdkConfig {
            dfmax: DFMAX,
            // Set explicitly: `HdkConfig::default()` reads HDK_STORE and
            // HDK_CODEC from the environment.
            store: match self.store {
                Store::Memory => StoreConfig::Memory,
                Store::Segment { hot_bytes } => StoreConfig::Segment {
                    dir: dir.map(Path::to_path_buf),
                    hot_bytes,
                },
            },
            codec: Codec::Leb128,
            ..HdkConfig::default()
        }
    }

    pub fn clients(&self) -> usize {
        match self.backend {
            Backend::InProc => 1,
            Backend::Tcp { clients, .. } => clients,
        }
    }

    pub fn growth_docs(&self) -> usize {
        self.growth.map_or(0, |g| g.docs)
    }

    /// The same documents in process and in memory: what every other
    /// configuration must agree with, bit for bit.
    fn twin(&self) -> Workload {
        Workload {
            backend: Backend::InProc,
            store: Store::Memory,
            ..*self
        }
    }
}

/// FNV-1a over `(doc, score bits)`: equal digests mean bit-equal top-k.
pub fn digest(results: &[SearchResult]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in results {
        eat(&r.doc.0.to_le_bytes());
        eat(&r.score.to_bits().to_le_bytes());
    }
    h
}

/// Extracts the ranked results from a `/query` reply body.
pub fn parse_http_results(body: &[u8]) -> Option<Vec<SearchResult>> {
    let text = std::str::from_utf8(body).ok()?;
    let list = text.split_once("\"results\":[")?.1.strip_suffix("]}")?;
    let mut out = Vec::new();
    for item in list.split("},{") {
        let item = item.trim_start_matches('{').trim_end_matches('}');
        if item.is_empty() {
            continue;
        }
        let (doc, score) = item.strip_prefix("\"doc\":")?.split_once(",\"score\":")?;
        out.push(SearchResult {
            doc: DocId(doc.parse().ok()?),
            score: score.parse().ok()?,
        });
    }
    Some(out)
}

/// A built system: the two service handles plus whatever serves them.
pub struct System {
    pub indexer: IndexService,
    pub qs: QueryService,
    pub fleet: Option<Fleet>,
    pub http: Option<HttpHandle>,
    /// Where a segment store keeps its logs.
    pub dir: Option<PathBuf>,
    /// How long `HdkNetwork::build_with` took.
    pub build_seconds: f64,
}

/// A scratch directory for a segment store: inside the checkout (the
/// benchmark writes nowhere else), named by use (`<tag>-0`, `<tag>-1`, …
/// in the order a run asks), so every run of a checkout gets the trees the
/// run before it used, with every file cut to length 0 — which a store
/// cannot tell from a fresh directory (it creates with `O_CREAT|O_APPEND`
/// and keeps its own offsets).
///
/// Nothing is ever unlinked, because on an ext4 without a journal (the
/// root file system of the machine this was sized on) an inode freed in
/// the last minutes may not be handed out again, and `creat` walks past
/// every one of them: after a few runs that each removed their 6 000
/// segment files, creating a file cost 180–400 µs instead of 7, a
/// `tiered` build took 1.85 s instead of 1.15 s, and which of the two a
/// run saw depended on what had run before it. Runs in one checkout must
/// not overlap (they would share the one CPU anyway).
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = scratch_root().join(format!("{tag}-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    empty_files(&dir).unwrap_or_else(|e| panic!("empty {}: {e}", dir.display()));
    dir
}

fn scratch_root() -> PathBuf {
    out_dir().join("tmp")
}

/// Cuts every file under `dir` to length 0; directories and inodes stay.
fn empty_files(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            empty_files(&entry.path())?;
        } else {
            std::fs::File::create(entry.path())?;
        }
    }
    Ok(())
}

/// Gives back the disk space of every scratch directory, when the run is
/// over.
pub fn empty_scratch() -> Result<(), String> {
    let root = scratch_root();
    if !root.exists() {
        return Ok(());
    }
    empty_files(&root).map_err(|e| format!("empty {}: {e}", root.display()))
}

pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark").join("out")
}

impl System {
    /// Spawns the fleet (if any), builds the index over `collection` and
    /// starts the front-end (if any).
    pub fn set_up(
        w: &Workload,
        collection: &Collection,
        partitions: &[Vec<DocId>],
        peer_bin: &Path,
    ) -> System {
        let dir = matches!(w.store, Store::Segment { .. }).then(|| scratch_dir(w.name));
        let (fleet, backend) = match w.backend {
            Backend::InProc => (None, BackendConfig::InProc),
            Backend::Tcp { nprocs, .. } => {
                let fleet = Fleet::spawn(peer_bin, nprocs, PEERS, DFMAX);
                let addrs = fleet.addrs.clone();
                (Some(fleet), BackendConfig::Tcp { addrs })
            }
        };
        let started = Instant::now();
        let network = HdkNetwork::build_with(
            collection,
            partitions,
            w.config(dir.as_deref()),
            OverlayKind::PGrid,
            backend,
        );
        let build_seconds = started.elapsed().as_secs_f64();
        let (indexer, qs) = network.into_services();
        let http = fleet.is_some().then(|| {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind front-end");
            spawn_http(listener, qs.clone()).expect("spawn HTTP front-end")
        });
        System {
            indexer,
            qs,
            fleet,
            http,
            dir,
            build_seconds,
        }
    }

    /// Stops the front-end and shuts the fleet down gracefully (every peer
    /// must exit 0). The segment directory stays (see [`scratch_dir`]).
    pub fn tear_down(self) -> Result<(), String> {
        let System {
            indexer,
            qs,
            fleet,
            http,
            dir: _,
            build_seconds: _,
        } = self;
        if let Some(http) = http {
            http.stop();
        }
        let transport_errors = qs.transport_errors();
        drop((indexer, qs));
        if let Some(fleet) = fleet {
            fleet.shutdown()?;
        }
        if transport_errors > 0 {
            return Err(format!("{transport_errors} transport errors"));
        }
        Ok(())
    }

    /// Peak resident set of this process plus every peer process, MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        let peers: f64 = self
            .fleet
            .iter()
            .flat_map(Fleet::pids)
            .map(peak_rss_mib)
            .sum();
        peak_rss_mib(std::process::id()) + peers
    }

    /// One connection per closed-loop client, in the form this system is
    /// queried: HTTP when it has a front-end, the service handle otherwise.
    pub fn clients(&self, n: usize) -> Vec<Client> {
        (0..n)
            .map(|_| match &self.http {
                Some(http) => Client::Http(HttpClient::connect(http.addr())),
                None => Client::InProc(self.qs.clone()),
            })
            .collect()
    }
}

/// One closed-loop caller: sends a query, waits for the full reply.
pub enum Client {
    InProc(QueryService),
    Http(HttpClient),
}

impl Client {
    /// Issues one query; `None` is a failed operation (non-200, transport
    /// error, unparsable reply).
    pub fn issue(&mut self, q: &Issued<'_>, http_target: &str) -> Option<Vec<SearchResult>> {
        match self {
            Client::InProc(qs) => Some(qs.query(q.from, q.terms, TOP_K).results),
            Client::Http(http) => match http.get(http_target) {
                (200, body, _) => parse_http_results(body),
                _ => None,
            },
        }
    }
}

/// Operations a phase attempted and how many failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The replayed stream as the clients consume it: precomputed `/query`
/// targets and, once known, the digest every reply must match.
pub struct Stream<'a> {
    pub inputs: &'a Inputs,
    targets: Vec<String>,
    pub expected: Option<Vec<u64>>,
}

impl<'a> Stream<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        let targets = (0..inputs.log.len())
            .map(|pos| Inputs::http_target(&inputs.distinct(pos)))
            .collect();
        Stream {
            inputs,
            targets,
            expected: None,
        }
    }

    pub fn target(&self, log_pos: usize) -> &str {
        &self.targets[log_pos]
    }

    /// Whether a reply to the query at `log_pos` is the expected one.
    fn accepts(&self, log_pos: usize, reply: &Option<Vec<SearchResult>>) -> bool {
        match (reply, &self.expected) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(results), Some(expected)) => digest(results) == expected[log_pos],
        }
    }
}

/// What one closed loop measured: every accepted reply as `(seconds since
/// the loop started, latency in µs)`, in no particular order.
pub struct Loop {
    pub started: Instant,
    pub seconds: f64,
    pub replies: Vec<(f64, f64)>,
    pub ops: Ops,
    pub tracers: Vec<Tracer>,
}

impl Loop {
    pub fn into_pass(self) -> Pass {
        Pass::new(
            self.seconds,
            self.replies.into_iter().map(|(_, l)| l).collect(),
        )
    }

    /// The replies that completed in `[from, to)`, as one pass.
    pub fn window(&self, from: Instant, to: Instant) -> Pass {
        let from = from.duration_since(self.started).as_secs_f64();
        let to = to.duration_since(self.started).as_secs_f64();
        let latencies = self
            .replies
            .iter()
            .filter(|(at, _)| (from..to).contains(at))
            .map(|(_, latency)| *latency)
            .collect();
        Pass::new(to - from, latencies)
    }
}

/// What one client of a closed loop recorded: its replies as `(done at,
/// latency)`, how many requests failed, and its spans when traced.
type ClientLog = (Vec<(f64, f64)>, u64, Option<Tracer>);

/// A closed loop: every client sends its next query as soon as its
/// previous reply is complete, until `until` returns true. All clients
/// draw from one shared cursor starting at the head of the stream. With
/// `traced`, each client records one root span per request.
pub fn closed_loop(
    clients: &mut [Client],
    stream: &Stream<'_>,
    until: &(dyn Fn() -> bool + Sync),
    traced: bool,
) -> Loop {
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let per_client: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut replies = Vec::new();
                    let mut failed = 0u64;
                    let mut tracer = traced.then(Tracer::new);
                    while !until() {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let q = stream.inputs.issued(i);
                        let target = stream.target(q.log_pos);
                        let sent = Instant::now();
                        let reply = match &mut tracer {
                            Some(t) => t.span("request", i as u64, |_| client.issue(&q, target)),
                            None => client.issue(&q, target),
                        };
                        let done = Instant::now();
                        if stream.accepts(q.log_pos, &reply) {
                            replies.push((
                                done.duration_since(started).as_secs_f64(),
                                done.duration_since(sent).as_nanos() as f64 / 1_000.0,
                            ));
                        } else {
                            failed += 1;
                        }
                    }
                    (replies, failed, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let seconds = started.elapsed().as_secs_f64();
    let failed: u64 = per_client.iter().map(|(_, f, _)| f).sum();
    let mut replies = Vec::new();
    let mut tracers = Vec::new();
    for (r, _, t) in per_client {
        replies.extend(r);
        tracers.extend(t);
    }
    let ops = Ops {
        attempted: replies.len() as u64 + failed,
        failed,
    };
    Loop {
        started,
        seconds,
        replies,
        ops,
        tracers,
    }
}

/// A closed loop that lasts `slice`.
pub fn timed_loop(
    clients: &mut [Client],
    stream: &Stream<'_>,
    slice: Duration,
    traced: bool,
) -> Loop {
    let deadline = Instant::now() + slice;
    closed_loop(clients, stream, &|| Instant::now() >= deadline, traced)
}

/// What the fixed pass over the distinct queries measured — counts only,
/// so they repeat exactly for a seed.
pub struct FixedPass {
    pub postings_per_query: f64,
    pub lookup_bytes_per_query: f64,
    /// Top-k of every distinct query, for the overlap against BM25.
    pub results: Vec<Vec<SearchResult>>,
}

impl FixedPass {
    pub fn digests(&self) -> Vec<u64> {
        self.results.iter().map(|r| digest(r)).collect()
    }
}

/// Runs every distinct query once through the service handle, from its
/// fixed peer: the warm-up, the count metrics and the expected digests.
pub fn fixed_pass(qs: &QueryService, inputs: &Inputs) -> FixedPass {
    let before = qs.snapshot();
    let mut postings = 0u64;
    let results: Vec<Vec<SearchResult>> = (0..inputs.log.len())
        .map(|pos| {
            let q = inputs.distinct(pos);
            let out = qs.query(q.from, q.terms, TOP_K);
            postings += out.postings_fetched;
            out.results
        })
        .collect();
    let traffic = qs.snapshot().since(&before);
    let bytes =
        traffic.kind(MsgKind::QueryLookup).bytes + traffic.kind(MsgKind::QueryResponse).bytes;
    let n = inputs.log.len() as f64;
    FixedPass {
        postings_per_query: postings as f64 / n,
        lookup_bytes_per_query: bytes as f64 / n,
        results,
    }
}

/// Mean top-20 overlap with centralized BM25 over the distinct queries, %.
pub fn overlap_pct(collection: &Collection, inputs: &Inputs, results: &[Vec<SearchResult>]) -> f64 {
    let central = CentralizedEngine::build(collection);
    let total: f64 = results
        .iter()
        .enumerate()
        .map(|(pos, ours)| {
            let reference = central.search(&inputs.log.queries[pos].terms, TOP_K);
            top_k_overlap(ours, &reference, TOP_K)
        })
        .sum();
    total / results.len() as f64
}

/// (hot posting bytes + sealed bytes on disk) per stored posting.
pub fn stored_bytes_per_posting(qs: &QueryService) -> f64 {
    let index = qs.index();
    let bytes = index.resident_posting_bytes() + index.sealed_segment_bytes();
    bytes as f64 / index.index_counts().total_postings() as f64
}

/// Everything one untraced run reports.
pub struct EndToEnd {
    pub setup_s: f64,
    pub query: PhaseTiming,
    pub index_docs_per_s: f64,
    pub postings_per_query: f64,
    pub lookup_bytes_per_query: f64,
    pub overlap_top20_pct: f64,
    pub insert_postings_per_doc: f64,
    pub stored_bytes_per_posting: f64,
    pub peak_rss_mb: f64,
    pub ops: Ops,
    /// Sample counts behind each number, for the result file.
    pub samples: Vec<(&'static str, usize)>,
}

/// Digests of the first [`TWIN_QUERIES`] distinct queries.
fn twin_digests(qs: &QueryService, inputs: &Inputs) -> Vec<u64> {
    (0..TWIN_QUERIES)
        .map(|pos| {
            let q = inputs.distinct(pos);
            digest(&qs.query(q.from, q.terms, TOP_K).results)
        })
        .collect()
}

/// What the repeated set-up leaves: the last system, its fixed pass, and
/// per timed set-up `(seconds, build seconds)`.
struct SetUps {
    system: System,
    fixed: FixedPass,
    timed: Vec<(f64, f64)>,
}

/// The set-up, once untimed and [`TIMED_SETUPS`] times timed: fleet, build,
/// front-end, and the fixed pass that warms every key the stream will
/// touch. Every build must answer every distinct query with the same score
/// bits.
fn set_up_repeatedly(w: &Workload, inputs: &Inputs, peer_bin: &Path) -> Result<SetUps, String> {
    let mut timed = Vec::new();
    let mut live: Option<(System, FixedPass)> = None;
    for i in 0..=TIMED_SETUPS {
        let previous = match live.take() {
            Some((system, fixed)) => {
                system.tear_down()?;
                Some(fixed)
            }
            None => None,
        };
        let started = Instant::now();
        let system = System::set_up(w, &inputs.base, &inputs.partitions, peer_bin);
        let fixed = fixed_pass(&system.qs, inputs);
        if i > 0 {
            timed.push((started.elapsed().as_secs_f64(), system.build_seconds));
        }
        if previous.is_some_and(|p| p.digests() != fixed.digests()) {
            return Err(
                "two builds of the same documents answered with different score bits".into(),
            );
        }
        live = Some((system, fixed));
    }
    let (system, fixed) = live.expect("at least one set-up");
    Ok(SetUps {
        system,
        fixed,
        timed,
    })
}

/// The query phase: one untimed pass, then [`QUERY_PASSES`] timed ones,
/// `seconds` in total, every reply checked against its expected digest.
fn query_passes(
    clients: &mut [Client],
    stream: &Stream<'_>,
    seconds: f64,
    ops: &mut Ops,
) -> Vec<Pass> {
    let slice = Duration::from_secs_f64(seconds / QUERY_PASSES as f64);
    ops.add(timed_loop(clients, stream, slice, false).ops);
    (0..QUERY_PASSES)
        .map(|_| {
            let pass = timed_loop(clients, stream, slice, false);
            ops.add(pass.ops);
            pass.into_pass()
        })
        .collect()
}

/// The growth phase: every batch through `add_documents` while the clients
/// query in a closed loop. The work differs batch to batch (the index
/// grows under both), so the phase is one measurement: the reads that
/// completed between the first batch's start and the last batch's end, and
/// the seconds spent inside `add_documents`.
fn grow_beside_reader(
    system: &mut System,
    clients: &mut [Client],
    stream: &Stream<'_>,
    growth: Growth,
    ops: &mut Ops,
) -> (Pass, f64) {
    let batches = stream.inputs.growth(growth.batches);
    // The reader's own warm-up, before the first document arrives.
    ops.add(timed_loop(clients, stream, Duration::from_secs(1), false).ops);
    let stop = AtomicBool::new(false);
    let indexer = &mut system.indexer;
    let (reader, from, to, add_seconds) = std::thread::scope(|scope| {
        let reader =
            scope.spawn(|| closed_loop(clients, stream, &|| stop.load(Ordering::Acquire), false));
        let from = Instant::now();
        let mut add_seconds = 0.0;
        for batch in batches {
            let started = Instant::now();
            indexer.add_documents(batch);
            add_seconds += started.elapsed().as_secs_f64();
        }
        let to = Instant::now();
        stop.store(true, Ordering::Release);
        (
            reader.join().expect("reader panicked"),
            from,
            to,
            add_seconds,
        )
    });
    ops.add(reader.ops);
    ops.add(Ops {
        attempted: growth.docs as u64,
        failed: 0,
    });
    (reader.window(from, to), add_seconds)
}

/// The `Ff` a build from scratch of the grown collection needs so that it
/// excludes exactly the terms the base build excluded. The very frequent
/// terms are fixed when a network is built; `add_documents` does not
/// revisit them, so a rebuild at the same `Ff` may exclude one more.
/// `None` when no threshold separates the two sets.
fn rebuild_ff(inputs: &Inputs, ff: u64) -> Option<u64> {
    let excluded = FrequencyStats::compute(&inputs.base).very_frequent_terms(ff);
    let grown = FrequencyStats::compute(&inputs.full);
    let lowest_excluded = excluded.iter().map(|t| grown.cf(*t)).min();
    let highest_kept = (0..inputs.full.vocab().len() as u32)
        .map(hdk_text::TermId)
        .filter(|t| !excluded.contains(t))
        .map(|t| grown.cf(t))
        .max()?;
    lowest_excluded
        .is_none_or(|lowest| highest_kept < lowest)
        .then_some(highest_kept.max(1))
}

/// Verification: the same documents, built in process and in memory in
/// ONE session, must give the index counts and the top-k score bits the
/// measured system ended with — however it was served, stored or grown.
fn verify_against_twin(
    w: &Workload,
    inputs: &Inputs,
    counts: &IndexCounts,
    digests: &[u64],
) -> Result<(), String> {
    let mut config = w.twin().config(None);
    config.ff = rebuild_ff(inputs, config.ff)
        .ok_or("no Ff gives the rebuild the base build's very frequent terms")?;
    let twin = HdkNetwork::build_with(
        &inputs.full,
        &inputs.grown_partitions(),
        config,
        OverlayKind::PGrid,
        BackendConfig::InProc,
    )
    .query_service();
    if twin.index().index_counts() != *counts {
        return Err("index counts differ from the in-process, in-memory rebuild".into());
    }
    if twin_digests(&twin, inputs) != digests {
        return Err("top-k score bits differ from the in-process, in-memory rebuild".into());
    }
    Ok(())
}

/// What one checked restart took.
pub struct Restart {
    /// `sync_storage` → `restart_peers(all)` → first answer.
    pub seconds: f64,
    /// `restart_peers` alone: the log replay.
    pub replay_seconds: f64,
    pub bytes_replayed: u64,
    pub frames_replayed: u64,
}

/// A durable store must come back from `sync_storage` → `restart_peers`
/// of every peer with no copy lost and every score bit where it was.
pub fn restart_and_check(system: &mut System, inputs: &Inputs) -> Result<Restart, String> {
    let all_peers: Vec<PeerId> = (0..PEERS as u64).map(PeerId).collect();
    let before = twin_digests(&system.qs, inputs);
    let q0 = inputs.distinct(0);
    let started = Instant::now();
    system.indexer.sync_storage();
    let replay_started = Instant::now();
    let (recovery, _) = system.indexer.restart_peers(&all_peers);
    let replay_seconds = replay_started.elapsed().as_secs_f64();
    let first = digest(&system.qs.query(q0.from, q0.terms, TOP_K).results);
    let seconds = started.elapsed().as_secs_f64();
    if recovery.copies_lost != 0 {
        return Err(format!("restart lost {} copies", recovery.copies_lost));
    }
    if first != before[0] || twin_digests(&system.qs, inputs) != before {
        return Err("restart changed top-k score bits".into());
    }
    Ok(Restart {
        seconds,
        replay_seconds,
        bytes_replayed: recovery.bytes_replayed,
        frames_replayed: recovery.frames_replayed,
    })
}

/// Runs one workload end to end. `inputs_seconds` is how long generating
/// the inputs took (part of every set-up). `Err` is a correctness failure.
pub fn run(
    w: &Workload,
    inputs: &Inputs,
    inputs_seconds: f64,
    seconds: f64,
    peer_bin: &Path,
) -> Result<EndToEnd, String> {
    let mut stream = Stream::new(inputs);
    let mut ops = Ops::default();
    let mut samples: Vec<(&'static str, usize)> = Vec::new();

    let SetUps {
        mut system,
        mut fixed,
        timed: setups,
    } = set_up_repeatedly(w, inputs, peer_bin)?;
    samples.push(("setups", setups.len()));
    let setup_s = inputs_seconds + median(&setups.iter().map(|s| s.0).collect::<Vec<_>>());
    let build_s = median(&setups.iter().map(|s| s.1).collect::<Vec<_>>());
    let mut clients = system.clients(w.clients());

    // --- The timed phase. ---
    let (query, index_docs_per_s) = match w.growth {
        None => {
            stream.expected = Some(fixed.digests());
            let passes = query_passes(&mut clients, &stream, seconds, &mut ops);
            (timing_of_passes(&passes), w.base_docs as f64 / build_s)
        }
        Some(growth) => {
            // Results change under the reader as documents arrive, so its
            // replies are only checked for arriving; the grown index is
            // verified below.
            let (window, add_seconds) =
                grow_beside_reader(&mut system, &mut clients, &stream, growth, &mut ops);
            samples.push(("growth_batches", growth.batches));
            samples.push(("growth_docs", growth.docs));
            // Counts describe the index the phase ended with.
            fixed = fixed_pass(&system.qs, inputs);
            (
                timing_of_passes(&[window]),
                growth.docs as f64 / add_seconds,
            )
        }
    };
    drop(clients);
    samples.push(("query_passes", query.passes));
    samples.push(("query_min_ops_per_pass", query.min_ops_per_pass));
    samples.push((
        "query_min_samples_beyond_p99",
        samples_beyond(query.min_ops_per_pass, 0.99),
    ));
    samples.push(("query_ops", query.total_ops));

    // Peak memory: after the last timed phase, before any twin exists.
    let peak_rss_mb = system.peak_rss_mib();

    if matches!(w.store, Store::Segment { .. }) {
        for _ in 0..RESTARTS {
            restart_and_check(&mut system, inputs)?;
        }
        samples.push(("restarts_checked", RESTARTS));
    }

    let insert_postings_per_doc = system.qs.build_report().postings_per_doc();
    let stored_bytes_per_posting = stored_bytes_per_posting(&system.qs);
    let counts: IndexCounts = system.qs.index().index_counts();
    let digests = twin_digests(&system.qs, inputs);
    system.tear_down()?;
    verify_against_twin(w, inputs, &counts, &digests)?;
    let overlap_top20_pct = overlap_pct(&inputs.full, inputs, &fixed.results);
    samples.push(("count_queries", inputs.log.len()));

    if ops.failed > 0 {
        return Err(format!(
            "{} of {} operations failed",
            ops.failed, ops.attempted
        ));
    }
    Ok(EndToEnd {
        setup_s,
        query,
        index_docs_per_s,
        postings_per_query: fixed.postings_per_query,
        lookup_bytes_per_query: fixed.lookup_bytes_per_query,
        overlap_top20_pct,
        insert_postings_per_doc,
        stored_bytes_per_posting,
        peak_rss_mb,
        ops,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_results_parse_to_the_bits_the_server_printed() {
        let results = vec![
            SearchResult {
                doc: DocId(17),
                score: 12.345678901234567,
            },
            SearchResult {
                doc: DocId(3),
                score: 0.1 + 0.2,
            },
        ];
        let body = format!(
            "{{\"query\":[1,2],\"k\":20,\"results\":[{}]}}",
            results
                .iter()
                .map(|r| format!("{{\"doc\":{},\"score\":{}}}", r.doc.0, r.score))
                .collect::<Vec<_>>()
                .join(",")
        );
        let parsed = parse_http_results(body.as_bytes()).unwrap();
        assert_eq!(digest(&parsed), digest(&results));
        assert_eq!(
            parse_http_results(b"{\"query\":[1],\"results\":[]}").unwrap(),
            vec![]
        );
        assert!(parse_http_results(b"{\"error\":\"x\"}").is_none());
    }

    #[test]
    fn every_workload_has_a_distinct_name_and_a_reason() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(!w.why.is_empty() && w.why.len() <= 200);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(find(w.name).is_some());
        }
    }
}
