//! Minimal HTTP/1.1 front-end over a clonable [`QueryService`].
//!
//! Hand-rolled on `std::net` (no registry access): thread-per-connection
//! with keep-alive, a line parser that accepts exactly what the load
//! generator and `curl` send — a head of at most 16 KiB, refused before
//! it is buffered beyond that — replies assembled in per-connection
//! buffers and sent in one write, and three routes:
//!
//! - `GET /query?q=1,2,3&k=10&peer=0` — run a query (comma-separated
//!   numeric term ids), JSON results with full-precision f64 scores.
//!   Answers `502` when the probe hit transport errors (an unreachable
//!   peer process), distinguishing "no results" from "no peers".
//! - `GET /health` — liveness + basic network shape, JSON.
//! - `GET /metrics` — Prometheus text format: the merged
//!   [`TrafficSnapshot`] counters, per-kind latency histograms
//!   (mean/p50/p99/max), transport errors, the key cache's counters, and
//!   the HTTP server's own request counters/latencies.
//!
//! The front-end is the querying peer of the paper's architecture, and
//! owns what such a peer owns: one [`QueryCache`] of key lookups, shared
//! by every connection thread and every `peer=` value. `/query` resolves
//! its plan through it ([`QueryService::query_cached`]), so a key
//! repeated across queries is answered here and only cold keys reach the
//! peers; the reply's `lookups` / `postings_fetched` count what was
//! actually fetched (cache hits issue none). The cache is correct for
//! **one writer**: entries die when [`QueryService::epoch`] moves, and
//! the `IndexService` paired with this `QueryService` is the only thing
//! that moves it (see [`crate::cache`]). A degraded answer — one that
//! saw a transport error — is never cached.
//!
//! [`TrafficSnapshot`]: hdk_p2p::TrafficSnapshot

use crate::cache::QueryCache;
use crate::engine::QueryService;
use hdk_p2p::{LatencyHistogram, MsgKind, PeerId};
use hdk_text::TermId;
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Largest accepted request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on `k` (top-k size) accepted from the wire.
const MAX_K: usize = 1_000;

/// Keys the front-end's cache holds: ≤ 65 536 blocks of ≤ `DFmax`
/// postings each — a few tens of MiB at worst, under 2 MiB on the
/// benchmark's ≈ 3 400 distinct query keys. Not a knob.
const FRONT_CACHE_KEYS: usize = 65_536;

/// What every connection thread shares.
struct Front {
    service: QueryService,
    metrics: HttpMetrics,
    cache: QueryCache,
}

struct HttpMetrics {
    query_requests: AtomicU64,
    health_requests: AtomicU64,
    metrics_requests: AtomicU64,
    bad_requests: AtomicU64,
    query_latency: Mutex<LatencyHistogram>,
}

impl HttpMetrics {
    fn new() -> Self {
        HttpMetrics {
            query_requests: AtomicU64::new(0),
            health_requests: AtomicU64::new(0),
            metrics_requests: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            query_latency: Mutex::new(LatencyHistogram::default()),
        }
    }
}

/// A running HTTP front-end. Dropping the handle does *not* stop the
/// server; call [`HttpHandle::stop`].
pub struct HttpHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HttpHandle {
    /// The bound address (useful with an ephemeral port 0 listener).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept thread.
    /// In-flight connection threads finish their current response.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Spawns the front-end on `listener`, serving `service`.
pub fn spawn(listener: TcpListener, service: QueryService) -> std::io::Result<HttpHandle> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let front = Arc::new(Front {
        service,
        metrics: HttpMetrics::new(),
        cache: QueryCache::new(FRONT_CACHE_KEYS),
    });
    let accept_stop = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let front = Arc::clone(&front);
            let stop = Arc::clone(&accept_stop);
            std::thread::spawn(move || {
                let _ = serve_connection(stream, &front, &stop);
            });
        }
    });
    Ok(HttpHandle {
        addr,
        stop,
        thread: Some(thread),
    })
}

/// One keep-alive connection loop. The head's line buffer, the body and
/// the assembled reply are the connection's, cleared between requests;
/// a reply — head and body — leaves in one write.
fn serve_connection(stream: TcpStream, front: &Front, stop: &AtomicBool) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut stream = BufReader::new(stream);
    let (mut line, mut body, mut reply) = (String::new(), String::new(), Vec::new());
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let (target, keep_alive) = match read_head(&mut stream, &mut line)? {
            Some(head) => head,
            None => return Ok(()), // clean close between requests
        };
        body.clear();
        let (status, content_type) = route(&target, front, &mut body);
        let connection = if keep_alive { "keep-alive" } else { "close" };
        reply.clear();
        write!(
            reply,
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
            body.len()
        )?;
        stream.get_mut().write_all(&reply)?;
        if !keep_alive {
            return Ok(());
        }
    }
}

/// Reads one line of a request head into `line`, charged against `left`
/// — the bytes the head may still take — *as it is read*, so a client
/// that never sends a newline buys no more buffer than the limit.
/// `false`: no complete line came; the limit is spent (`left == 0`) or
/// the client hung up.
fn head_line(
    reader: &mut impl BufRead,
    line: &mut String,
    left: &mut u64,
) -> std::io::Result<bool> {
    line.clear();
    *left -= reader.by_ref().take(*left).read_line(line)? as u64;
    Ok(line.ends_with('\n'))
}

/// Reads one request head; returns the target path+query and whether to
/// keep the connection alive. `None` = the client closed cleanly.
fn read_head(
    reader: &mut impl BufRead,
    line: &mut String,
) -> std::io::Result<Option<(String, bool)>> {
    let mut left = MAX_HEAD_BYTES as u64;
    let cut_short = |left| (left == 0).then(|| ("/oversized-head".to_string(), false));
    if !head_line(reader, line, &mut left)? {
        return Ok(cut_short(left));
    }
    let mut parts = line.split_whitespace();
    let is_get = parts.next() == Some("GET");
    let target = parts.next().unwrap_or("").to_string();
    let mut keep_alive = parts.next() != Some("HTTP/1.0");
    // Drain headers, watching for Connection: close.
    loop {
        if !head_line(reader, line, &mut left)? {
            return Ok(cut_short(left));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("connection") && value.trim().eq_ignore_ascii_case("close")
            {
                keep_alive = false;
            }
        }
    }
    if !is_get {
        return Ok(Some(("/method-not-allowed".to_string(), false)));
    }
    Ok(Some((target, keep_alive)))
}

/// Dispatches one request target to its route, which writes the reply's
/// body to `body` and returns its status and content type.
fn route(target: &str, front: &Front, body: &mut String) -> (u16, &'static str) {
    let metrics = &front.metrics;
    let (path, query_string) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let bad_request = |status, msg: &str, body: &mut String| {
        metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
        error_json(msg, body);
        (status, "application/json")
    };
    match path {
        "/health" => {
            metrics.health_requests.fetch_add(1, Ordering::Relaxed);
            health_json(&front.service, body);
            (200, "application/json")
        }
        "/metrics" => {
            metrics.metrics_requests.fetch_add(1, Ordering::Relaxed);
            metrics_text(front, body);
            (200, "text/plain; version=0.0.4")
        }
        "/query" => match parse_query_params(query_string) {
            Ok((terms, k, peer)) => {
                metrics.query_requests.fetch_add(1, Ordering::Relaxed);
                run_query(front, &terms, k, peer, body)
            }
            Err(msg) => bad_request(400, &msg, body),
        },
        "/method-not-allowed" => bad_request(405, "only GET is supported", body),
        _ => bad_request(404, "unknown path", body),
    }
}

/// Parses `q=1,2,3&k=10&peer=0`.
fn parse_query_params(query_string: &str) -> Result<(Vec<TermId>, usize, PeerId), String> {
    let mut terms: Option<Vec<TermId>> = None;
    let mut k = 10usize;
    let mut peer = 0u64;
    for pair in query_string.split('&').filter(|p| !p.is_empty()) {
        let (name, value) = pair.split_once('=').unwrap_or((pair, ""));
        match name {
            "q" => {
                let parsed: Result<Vec<TermId>, _> = value
                    .split(',')
                    .filter(|t| !t.is_empty())
                    .map(|t| t.trim().parse::<u32>().map(TermId))
                    .collect();
                match parsed {
                    Ok(list) if !list.is_empty() => terms = Some(list),
                    Ok(_) => return Err("q must list at least one term id".to_string()),
                    Err(_) => {
                        return Err(format!("q must be comma-separated term ids, got {value:?}"))
                    }
                }
            }
            "k" => match value.parse::<usize>() {
                Ok(v) if (1..=MAX_K).contains(&v) => k = v,
                _ => return Err(format!("k must be in 1..={MAX_K}, got {value:?}")),
            },
            "peer" => match value.parse::<u64>() {
                Ok(v) => peer = v,
                Err(_) => return Err(format!("peer must be a peer id, got {value:?}")),
            },
            other => return Err(format!("unknown parameter {other:?}")),
        }
    }
    let terms = terms.ok_or_else(|| "missing q parameter".to_string())?;
    Ok((terms, k, PeerId(peer)))
}

fn run_query(
    front: &Front,
    terms: &[TermId],
    k: usize,
    peer: PeerId,
    body: &mut String,
) -> (u16, &'static str) {
    let service = &front.service;
    if peer.0 >= service.num_peers() as u64 {
        error_json(&format!("peer {} out of range", peer.0), body);
        return (400, "application/json");
    }
    let errors_before = service.transport_errors();
    let started = Instant::now();
    let outcome = service.query_cached(peer, terms, k, &front.cache);
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    front.metrics.query_latency.lock().record_sample(elapsed_ns);
    let transport_errors = service.transport_errors() - errors_before;
    body.push_str("{\"query\":[");
    for (i, term) in terms.iter().enumerate() {
        let _ = write!(body, "{}{}", if i > 0 { "," } else { "" }, term.0);
    }
    let _ = write!(
        body,
        "],\"k\":{k},\"peer\":{},\"lookups\":{},\"postings_fetched\":{},\"latency_us\":{},\"transport_errors\":{transport_errors},\"results\":[",
        peer.0, outcome.lookups, outcome.postings_fetched, elapsed_ns / 1_000
    );
    for (i, result) in outcome.results.iter().enumerate() {
        let _ = write!(
            body,
            "{}{{\"doc\":{},\"score\":",
            if i > 0 { "," } else { "" },
            result.doc.0
        );
        // Full precision: Rust's shortest round-trippable `Display` form,
        // which is valid JSON for finite values.
        if result.score.is_finite() {
            let _ = write!(body, "{}}}", result.score);
        } else {
            body.push_str("null}");
        }
    }
    body.push_str("]}");
    if transport_errors > 0 {
        // Results are (partially) missing because a peer process was
        // unreachable — not because the keys are absent.
        (502, "application/json")
    } else {
        (200, "application/json")
    }
}

fn health_json(service: &QueryService, body: &mut String) {
    let _ = write!(
        body,
        "{{\"status\":\"ok\",\"peers\":{},\"live_peers\":{},\"docs\":{},\"rounds\":{},\"epoch\":{},\"transport_errors\":{}}}",
        service.num_peers(),
        service.num_live_peers(),
        service.num_docs(),
        service.rounds_run(),
        service.epoch(),
        service.transport_errors(),
    );
}

fn kind_label(kind: MsgKind) -> &'static str {
    match kind {
        MsgKind::IndexInsert => "index_insert",
        MsgKind::IndexNotify => "index_notify",
        MsgKind::QueryLookup => "query_lookup",
        MsgKind::QueryResponse => "query_response",
        MsgKind::Maintenance => "maintenance",
        MsgKind::Repair => "repair",
        MsgKind::HotReplicate => "hot_replicate",
        MsgKind::Gossip => "gossip",
    }
}

fn seconds(ns: f64) -> String {
    format!("{:.9}", ns / 1e9)
}

/// Prometheus text exposition of the merged traffic snapshot plus the
/// front-end's own counters: its key cache and its HTTP routes.
fn metrics_text(front: &Front, out: &mut String) {
    let Front {
        service,
        metrics,
        cache,
    } = front;
    let snapshot = service.snapshot();
    out.push_str("# HELP hdk_traffic_messages_total Messages carried, by kind.\n");
    out.push_str("# TYPE hdk_traffic_messages_total counter\n");
    for kind in MsgKind::ALL {
        let c = snapshot.kind(kind);
        out.push_str(&format!(
            "hdk_traffic_messages_total{{kind=\"{}\"}} {}\n",
            kind_label(kind),
            c.messages
        ));
    }
    out.push_str("# HELP hdk_traffic_postings_total Postings carried, by kind.\n");
    out.push_str("# TYPE hdk_traffic_postings_total counter\n");
    for kind in MsgKind::ALL {
        out.push_str(&format!(
            "hdk_traffic_postings_total{{kind=\"{}\"}} {}\n",
            kind_label(kind),
            snapshot.kind(kind).postings
        ));
    }
    out.push_str("# HELP hdk_traffic_bytes_total Payload bytes carried, by kind.\n");
    out.push_str("# TYPE hdk_traffic_bytes_total counter\n");
    for kind in MsgKind::ALL {
        out.push_str(&format!(
            "hdk_traffic_bytes_total{{kind=\"{}\"}} {}\n",
            kind_label(kind),
            snapshot.kind(kind).bytes
        ));
    }
    out.push_str(
        "# HELP hdk_rpc_latency_seconds Per-kind request latency (wall-clock on the real \
         transport, virtual on simulated ones).\n",
    );
    out.push_str("# TYPE hdk_rpc_latency_seconds summary\n");
    for kind in MsgKind::ALL {
        let h = snapshot.latency(kind);
        if h.is_empty() {
            continue;
        }
        let label = kind_label(kind);
        out.push_str(&format!(
            "hdk_rpc_latency_seconds{{kind=\"{label}\",quantile=\"0.5\"}} {}\n",
            seconds(h.quantile_ns(0.5) as f64)
        ));
        out.push_str(&format!(
            "hdk_rpc_latency_seconds{{kind=\"{label}\",quantile=\"0.99\"}} {}\n",
            seconds(h.quantile_ns(0.99) as f64)
        ));
        out.push_str(&format!(
            "hdk_rpc_latency_seconds_sum{{kind=\"{label}\"}} {}\n",
            seconds(h.total_ns as f64)
        ));
        out.push_str(&format!(
            "hdk_rpc_latency_seconds_count{{kind=\"{label}\"}} {}\n",
            h.samples
        ));
    }
    out.push_str(
        "# HELP hdk_failover_timeouts_total Lookup probes sent to peers believed live that \
         turned out dead (each costs a retransmission timeout).\n",
    );
    out.push_str("# TYPE hdk_failover_timeouts_total counter\n");
    out.push_str(&format!(
        "hdk_failover_timeouts_total {}\n",
        snapshot.failover_timeouts
    ));
    out.push_str("# HELP hdk_transport_errors_total Socket-level failures on the serving path.\n");
    out.push_str("# TYPE hdk_transport_errors_total counter\n");
    out.push_str(&format!(
        "hdk_transport_errors_total {}\n",
        service.transport_errors()
    ));
    let stats = cache.stats();
    for (series, kind, value) in [
        ("hits_total", "counter", stats.hits),
        ("misses_total", "counter", stats.misses),
        ("evictions_total", "counter", stats.evictions),
        ("entries", "gauge", cache.len() as u64),
    ] {
        let _ = write!(
            out,
            "# HELP hdk_cache_{series} The front-end's key-lookup cache.\n\
             # TYPE hdk_cache_{series} {kind}\nhdk_cache_{series} {value}\n"
        );
    }
    out.push_str("# HELP hdk_http_requests_total HTTP requests served, by route.\n");
    out.push_str("# TYPE hdk_http_requests_total counter\n");
    for (route, counter) in [
        ("query", &metrics.query_requests),
        ("health", &metrics.health_requests),
        ("metrics", &metrics.metrics_requests),
        ("bad", &metrics.bad_requests),
    ] {
        out.push_str(&format!(
            "hdk_http_requests_total{{route=\"{route}\"}} {}\n",
            counter.load(Ordering::Relaxed)
        ));
    }
    let h = *metrics.query_latency.lock();
    if !h.is_empty() {
        out.push_str("# HELP hdk_http_query_latency_seconds End-to-end /query latency.\n");
        out.push_str("# TYPE hdk_http_query_latency_seconds summary\n");
        out.push_str(&format!(
            "hdk_http_query_latency_seconds{{quantile=\"0.5\"}} {}\n",
            seconds(h.quantile_ns(0.5) as f64)
        ));
        out.push_str(&format!(
            "hdk_http_query_latency_seconds{{quantile=\"0.99\"}} {}\n",
            seconds(h.quantile_ns(0.99) as f64)
        ));
        out.push_str(&format!(
            "hdk_http_query_latency_seconds_sum {}\n",
            seconds(h.total_ns as f64)
        ));
        out.push_str(&format!(
            "hdk_http_query_latency_seconds_count {}\n",
            h.samples
        ));
    }
}

fn error_json(msg: &str, body: &mut String) {
    let _ = write!(body, "{{\"error\":{}}}", json_string(msg));
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
