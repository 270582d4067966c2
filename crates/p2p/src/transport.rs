//! Traffic accounting.
//!
//! The paper's entire scalability argument is phrased in *transmitted
//! postings* (Section 4: "we analyze the indexing and retrieval costs in
//! terms of the number of transmitted postings [...] because these make the
//! dominant part of the generated traffic"). [`TrafficMeter`] counts, per
//! message category: messages, postings, payload bytes, overlay hops, and
//! hop-weighted payload bytes (each byte counted once per hop it traverses
//! — the quantity a link-capacity budget is written in) — plus per-peer
//! posting counters feeding Figures 3–4 (per-peer inserted / retrieved
//! volumes).
//!
//! When the messages travel over a simulated network (the `SimNet` backend
//! of [`crate::rpc`]), each delivery additionally records its simulated
//! latency into the per-kind [`LatencyHistogram`]s; the in-process backend
//! leaves them empty.
//!
//! Counters are atomic so peers can index in parallel.

use std::sync::atomic::{AtomicU64, Ordering};

/// Message categories, matching the cost split in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// A peer inserts locally computed keys + postings into the global
    /// index (indexing cost, Figure 4).
    IndexInsert,
    /// The global index notifies an inserting peer that a key became
    /// globally non-discriminative (triggers key expansion, Section 3.1).
    IndexNotify,
    /// A query lookup request travelling to the responsible peer.
    QueryLookup,
    /// Postings returned to the querying peer (retrieval cost, Figure 6).
    QueryResponse,
    /// Overlay maintenance (excluded from the paper's posting counts; kept
    /// so the simulation can report it separately).
    Maintenance,
    /// Replica repair: a surviving replica re-materializes a lost copy of
    /// an index entry after a peer crash. Like maintenance this is overlay
    /// upkeep (excluded from the paper's indexing/retrieval posting
    /// counts), but it is counted in its own category so availability
    /// studies can separate churn-repair traffic from join handovers.
    Repair,
    /// Popularity-driven replication: a holder of a *hot* key (one whose
    /// hit counter crossed the configured threshold) pushes an extra copy
    /// to the next live peer along the successor walk. Read-scaling
    /// upkeep: like `Repair` it is overlay maintenance excluded from the
    /// paper's posting counts, but counted separately so throughput
    /// studies can price the hot-key replication against the lookup
    /// traffic it absorbs.
    HotReplicate,
    /// Membership gossip: the seeded SWIM-style liveness probes and
    /// piggy-backed view digests peers exchange so each can maintain its
    /// *own* picture of who is alive ([`crate::gossip`]). Like the other
    /// maintenance categories it is excluded from the paper's posting
    /// counts, but counted separately so the gossip study can price view
    /// convergence (detection latency, false positives) against the
    /// background traffic that buys it.
    Gossip,
}

/// Number of message categories (the size of every per-kind counter
/// array, iterated via [`MsgKind::ALL`]).
pub const NUM_KINDS: usize = 8;

impl MsgKind {
    /// All categories, for iteration/reporting.
    pub const ALL: [MsgKind; NUM_KINDS] = [
        MsgKind::IndexInsert,
        MsgKind::IndexNotify,
        MsgKind::QueryLookup,
        MsgKind::QueryResponse,
        MsgKind::Maintenance,
        MsgKind::Repair,
        MsgKind::HotReplicate,
        MsgKind::Gossip,
    ];

    /// This kind's index into per-kind counter arrays (the order of
    /// [`MsgKind::ALL`]). Public so real transports outside this crate
    /// can maintain their own per-kind meters.
    pub fn slot(self) -> usize {
        match self {
            MsgKind::IndexInsert => 0,
            MsgKind::IndexNotify => 1,
            MsgKind::QueryLookup => 2,
            MsgKind::QueryResponse => 3,
            MsgKind::Maintenance => 4,
            MsgKind::Repair => 5,
            MsgKind::HotReplicate => 6,
            MsgKind::Gossip => 7,
        }
    }
}

#[derive(Debug, Default)]
struct KindCounters {
    messages: AtomicU64,
    postings: AtomicU64,
    bytes: AtomicU64,
    hops: AtomicU64,
    hop_bytes: AtomicU64,
}

/// Number of log₂ latency buckets (bucket `i` covers `[2^i, 2^{i+1})` ns,
/// bucket 0 also absorbs 0-ns samples; the top bucket is open-ended).
pub const LATENCY_BUCKETS: usize = 40;

#[derive(Debug)]
struct LatencyCounters {
    samples: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    retries: AtomicU64,
    retransmission_bytes: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for LatencyCounters {
    fn default() -> Self {
        Self {
            samples: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            retransmission_bytes: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Atomic traffic counters.
#[derive(Debug)]
pub struct TrafficMeter {
    kinds: [KindCounters; NUM_KINDS],
    latency: [LatencyCounters; NUM_KINDS],
    /// Postings each peer has *sent into* the global index (Figure 4).
    inserted_by_peer: Vec<AtomicU64>,
    /// Postings each peer has received as query responses.
    retrieved_by_peer: Vec<AtomicU64>,
    /// Lookups each peer *served* (as the replica the walk or the spread
    /// pick resolved to) — the per-replica load the read-scaling study
    /// reports.
    served_by_peer: Vec<AtomicU64>,
    /// Timed-out delivery attempts to dead peers on the *lookup* failover
    /// path: each tick is one probe sent to a peer the querier did not
    /// know was dead. With the instantaneous membership oracle every
    /// lookup of a dead-primary key pays these forever (until repair);
    /// with gossip enabled they stop once the querier's view confirms the
    /// death — the before/after this counter exists to make observable.
    failover_timeouts: AtomicU64,
}

/// A point-in-time copy of one category's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindSnapshot {
    /// Messages sent.
    pub messages: u64,
    /// Postings carried.
    pub postings: u64,
    /// Payload bytes carried.
    pub bytes: u64,
    /// Overlay hops traversed.
    pub hops: u64,
    /// Hop-weighted payload bytes: each message contributes
    /// `bytes × hops` — the total link-level byte volume its delivery
    /// occupies across the overlay path.
    pub hop_bytes: u64,
}

/// A point-in-time copy of one message kind's simulated delivery latencies.
///
/// Only the simulated-network backend records samples; an in-process
/// dispatch leaves the histogram empty ([`LatencyHistogram::is_empty`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Deliveries recorded.
    pub samples: u64,
    /// Sum of all delivery latencies, nanoseconds.
    pub total_ns: u64,
    /// Slowest delivery, nanoseconds.
    pub max_ns: u64,
    /// Retransmissions the drop model forced (latency charged as
    /// timeouts), plus timed-out delivery attempts to dead peers that the
    /// failover walk then skipped.
    pub retries: u64,
    /// Payload bytes the retransmissions above put on the wire *again*.
    /// Kept separate from the logical byte meters of [`KindSnapshot`] —
    /// those count each message once whatever the loss rate, which is what
    /// keeps counts comparable across backends — so lossy-network repair
    /// and retry traffic is measurable without skewing the
    /// backend-equivalence contract ([`TrafficSnapshot::same_counts`]
    /// ignores this field like every other latency-side quantity).
    pub retransmission_bytes: u64,
    /// Log₂ buckets: slot `i` counts deliveries with latency in
    /// `[2^i, 2^{i+1})` ns (slot 0 includes 0 ns; the last slot is
    /// open-ended).
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            samples: 0,
            total_ns: 0,
            max_ns: 0,
            retries: 0,
            retransmission_bytes: 0,
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// The bucket a latency sample falls into.
    #[inline]
    pub fn bucket_of(ns: u64) -> usize {
        ((64 - ns.leading_zeros()).saturating_sub(1) as usize).min(LATENCY_BUCKETS - 1)
    }

    /// True when no delivery was recorded (in-process dispatch).
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// Mean delivery latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.total_ns as f64 / self.samples as f64
    }

    /// Upper bound (ns) of the bucket containing quantile `q ∈ [0, 1]`,
    /// e.g. `quantile_ns(0.99)` — a coarse log₂-resolution percentile.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.samples == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.samples as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank.max(1) {
                return 1u64 << (i + 1).min(63);
            }
        }
        self.max_ns
    }

    /// Records one raw sample directly (wall-clock metering on the real
    /// serving path, where there is no simulated delivery to observe).
    pub fn record_sample(&mut self, latency_ns: u64) {
        self.samples += 1;
        self.total_ns += latency_ns;
        self.max_ns = self.max_ns.max(latency_ns);
        self.buckets[Self::bucket_of(latency_ns)] += 1;
    }

    /// Element-wise difference `self - earlier` (`max_ns` is carried over
    /// from `self`: maxima are not subtractable).
    fn since(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (slot, (a, b)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(&earlier.buckets))
        {
            *slot = a - b;
        }
        LatencyHistogram {
            samples: self.samples - earlier.samples,
            total_ns: self.total_ns - earlier.total_ns,
            max_ns: self.max_ns,
            retries: self.retries - earlier.retries,
            retransmission_bytes: self.retransmission_bytes - earlier.retransmission_bytes,
            buckets,
        }
    }
}

/// A point-in-time copy of the whole meter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficSnapshot {
    /// Per-kind counters, indexed like [`MsgKind::ALL`].
    pub kinds: [KindSnapshot; NUM_KINDS],
    /// Per-kind simulated delivery latencies (empty for in-process
    /// dispatch), indexed like [`MsgKind::ALL`].
    pub latency: [LatencyHistogram; NUM_KINDS],
    /// Per-peer inserted postings.
    pub inserted_by_peer: Vec<u64>,
    /// Per-peer retrieved postings.
    pub retrieved_by_peer: Vec<u64>,
    /// Per-peer served lookups (the peer was the resolved replica).
    pub served_by_peer: Vec<u64>,
    /// Timed-out lookup probes to dead peers (the failover cost a stale
    /// liveness view pays; see [`TrafficMeter::record_failover_timeouts`]).
    pub failover_timeouts: u64,
}

impl TrafficMeter {
    /// Meter for `num_peers` peers.
    pub fn new(num_peers: usize) -> Self {
        Self {
            kinds: Default::default(),
            latency: Default::default(),
            inserted_by_peer: (0..num_peers).map(|_| AtomicU64::new(0)).collect(),
            retrieved_by_peer: (0..num_peers).map(|_| AtomicU64::new(0)).collect(),
            served_by_peer: (0..num_peers).map(|_| AtomicU64::new(0)).collect(),
            failover_timeouts: AtomicU64::new(0),
        }
    }

    /// Grows the per-peer counters when a peer joins.
    pub fn add_peer(&mut self) {
        self.inserted_by_peer.push(AtomicU64::new(0));
        self.retrieved_by_peer.push(AtomicU64::new(0));
        self.served_by_peer.push(AtomicU64::new(0));
    }

    /// Records which replica a key lookup resolved to. Separate from
    /// [`TrafficMeter::record`] because `record` attributes by *origin*
    /// (who pays the traffic) while replica load is a property of the
    /// *target* (who does the work).
    pub fn record_served(&self, serving_peer: usize) {
        self.served_by_peer[serving_peer].fetch_add(1, Ordering::Relaxed);
    }

    /// Records `timeouts` dead-peer delivery attempts on a lookup's
    /// failover walk (each one is a probe that timed out because the
    /// querier's liveness knowledge was stale).
    pub fn record_failover_timeouts(&self, timeouts: u64) {
        if timeouts > 0 {
            self.failover_timeouts
                .fetch_add(timeouts, Ordering::Relaxed);
        }
    }

    /// Records one message.
    pub fn record(&self, kind: MsgKind, origin_peer: usize, postings: u64, bytes: u64, hops: u32) {
        let c = &self.kinds[kind.slot()];
        c.messages.fetch_add(1, Ordering::Relaxed);
        c.postings.fetch_add(postings, Ordering::Relaxed);
        c.bytes.fetch_add(bytes, Ordering::Relaxed);
        c.hops.fetch_add(u64::from(hops), Ordering::Relaxed);
        c.hop_bytes
            .fetch_add(bytes * u64::from(hops), Ordering::Relaxed);
        match kind {
            MsgKind::IndexInsert => {
                self.inserted_by_peer[origin_peer].fetch_add(postings, Ordering::Relaxed);
            }
            MsgKind::QueryResponse => {
                self.retrieved_by_peer[origin_peer].fetch_add(postings, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// Records the simulated delivery latency of one message. Only the
    /// simulated-network backend calls this; all inputs are deterministic
    /// per message, and the histogram is a sum of per-message
    /// contributions (plus a max), so it is independent of recording
    /// order — and therefore of thread count. `retransmission_bytes` is
    /// the extra wire volume of the `retries` repeated attempts (the
    /// logical byte meters never include it).
    pub fn record_latency(
        &self,
        kind: MsgKind,
        latency_ns: u64,
        retries: u32,
        retransmission_bytes: u64,
    ) {
        let c = &self.latency[kind.slot()];
        c.samples.fetch_add(1, Ordering::Relaxed);
        c.total_ns.fetch_add(latency_ns, Ordering::Relaxed);
        c.max_ns.fetch_max(latency_ns, Ordering::Relaxed);
        c.retries.fetch_add(u64::from(retries), Ordering::Relaxed);
        c.retransmission_bytes
            .fetch_add(retransmission_bytes, Ordering::Relaxed);
        c.buckets[LatencyHistogram::bucket_of(latency_ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies all counters.
    pub fn snapshot(&self) -> TrafficSnapshot {
        let mut kinds = [KindSnapshot::default(); NUM_KINDS];
        for (i, c) in self.kinds.iter().enumerate() {
            kinds[i] = KindSnapshot {
                messages: c.messages.load(Ordering::Relaxed),
                postings: c.postings.load(Ordering::Relaxed),
                bytes: c.bytes.load(Ordering::Relaxed),
                hops: c.hops.load(Ordering::Relaxed),
                hop_bytes: c.hop_bytes.load(Ordering::Relaxed),
            };
        }
        let mut latency = [LatencyHistogram::default(); NUM_KINDS];
        for (slot, c) in latency.iter_mut().zip(&self.latency) {
            let mut buckets = [0u64; LATENCY_BUCKETS];
            for (b, a) in buckets.iter_mut().zip(&c.buckets) {
                *b = a.load(Ordering::Relaxed);
            }
            *slot = LatencyHistogram {
                samples: c.samples.load(Ordering::Relaxed),
                total_ns: c.total_ns.load(Ordering::Relaxed),
                max_ns: c.max_ns.load(Ordering::Relaxed),
                retries: c.retries.load(Ordering::Relaxed),
                retransmission_bytes: c.retransmission_bytes.load(Ordering::Relaxed),
                buckets,
            };
        }
        TrafficSnapshot {
            kinds,
            latency,
            inserted_by_peer: self
                .inserted_by_peer
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            retrieved_by_peer: self
                .retrieved_by_peer
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            served_by_peer: self
                .served_by_peer
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            failover_timeouts: self.failover_timeouts.load(Ordering::Relaxed),
        }
    }
}

impl TrafficSnapshot {
    /// Counters for one category.
    pub fn kind(&self, kind: MsgKind) -> KindSnapshot {
        self.kinds[kind.slot()]
    }

    /// Simulated delivery latencies for one category (empty unless the
    /// traffic went through a simulated-network backend).
    pub fn latency(&self, kind: MsgKind) -> &LatencyHistogram {
        &self.latency[kind.slot()]
    }

    /// True when every *count* — messages, postings, bytes, hops,
    /// hop-weighted bytes, per-peer attributions — matches `other`,
    /// ignoring the latency histograms. This is the backend-equivalence
    /// relation: an in-process and a simulated-network run of the same
    /// scenario transmit the same messages, they just take (virtual) time
    /// doing so.
    pub fn same_counts(&self, other: &TrafficSnapshot) -> bool {
        self.kinds == other.kinds
            && self.inserted_by_peer == other.inserted_by_peer
            && self.retrieved_by_peer == other.retrieved_by_peer
            && self.served_by_peer == other.served_by_peer
            && self.failover_timeouts == other.failover_timeouts
    }

    /// Total postings moved during indexing (inserts + notifications).
    pub fn indexing_postings(&self) -> u64 {
        self.kind(MsgKind::IndexInsert).postings + self.kind(MsgKind::IndexNotify).postings
    }

    /// Total postings moved during retrieval (responses; lookups carry
    /// keys, not postings).
    pub fn retrieval_postings(&self) -> u64 {
        self.kind(MsgKind::QueryResponse).postings
    }

    /// Mean inserted postings per peer (Figure 4's y-axis).
    pub fn avg_inserted_per_peer(&self) -> f64 {
        if self.inserted_by_peer.is_empty() {
            return 0.0;
        }
        self.inserted_by_peer.iter().sum::<u64>() as f64 / self.inserted_by_peer.len() as f64
    }

    /// Difference `self - earlier`, counter-wise (for per-phase costs).
    pub fn since(&self, earlier: &TrafficSnapshot) -> TrafficSnapshot {
        let mut kinds = [KindSnapshot::default(); NUM_KINDS];
        for (i, slot) in kinds.iter_mut().enumerate() {
            *slot = KindSnapshot {
                messages: self.kinds[i].messages - earlier.kinds[i].messages,
                postings: self.kinds[i].postings - earlier.kinds[i].postings,
                bytes: self.kinds[i].bytes - earlier.kinds[i].bytes,
                hops: self.kinds[i].hops - earlier.kinds[i].hops,
                hop_bytes: self.kinds[i].hop_bytes - earlier.kinds[i].hop_bytes,
            };
        }
        let mut latency = [LatencyHistogram::default(); NUM_KINDS];
        for (i, slot) in latency.iter_mut().enumerate() {
            *slot = self.latency[i].since(&earlier.latency[i]);
        }
        // `earlier` can be shorter when peers joined in between; missing
        // entries count as zero.
        let diff_vec = |a: &[u64], b: &[u64]| -> Vec<u64> {
            a.iter()
                .enumerate()
                .map(|(i, x)| x - b.get(i).copied().unwrap_or(0))
                .collect()
        };
        TrafficSnapshot {
            kinds,
            latency,
            inserted_by_peer: diff_vec(&self.inserted_by_peer, &earlier.inserted_by_peer),
            retrieved_by_peer: diff_vec(&self.retrieved_by_peer, &earlier.retrieved_by_peer),
            served_by_peer: diff_vec(&self.served_by_peer, &earlier.served_by_peer),
            failover_timeouts: self.failover_timeouts - earlier.failover_timeouts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_kind() {
        let m = TrafficMeter::new(3);
        m.record(MsgKind::IndexInsert, 0, 10, 40, 2);
        m.record(MsgKind::IndexInsert, 1, 5, 20, 1);
        m.record(MsgKind::QueryResponse, 2, 7, 28, 3);
        let s = m.snapshot();
        assert_eq!(s.kind(MsgKind::IndexInsert).messages, 2);
        assert_eq!(s.kind(MsgKind::IndexInsert).postings, 15);
        assert_eq!(s.kind(MsgKind::IndexInsert).bytes, 60);
        assert_eq!(s.kind(MsgKind::IndexInsert).hops, 3);
        assert_eq!(s.kind(MsgKind::QueryResponse).postings, 7);
        assert_eq!(s.indexing_postings(), 15);
        assert_eq!(s.retrieval_postings(), 7);
    }

    #[test]
    fn per_peer_attribution() {
        let m = TrafficMeter::new(2);
        m.record(MsgKind::IndexInsert, 0, 100, 0, 0);
        m.record(MsgKind::IndexInsert, 1, 50, 0, 0);
        m.record(MsgKind::QueryResponse, 1, 9, 0, 0);
        let s = m.snapshot();
        assert_eq!(s.inserted_by_peer, vec![100, 50]);
        assert_eq!(s.retrieved_by_peer, vec![0, 9]);
        assert!((s.avg_inserted_per_peer() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn served_attribution_is_by_target() {
        let m = TrafficMeter::new(3);
        m.record_served(2);
        m.record_served(2);
        m.record_served(0);
        let s = m.snapshot();
        assert_eq!(s.served_by_peer, vec![1, 0, 2]);
        let other = TrafficMeter::new(3);
        assert!(
            !s.same_counts(&other.snapshot()),
            "served load is part of the backend-equivalence contract"
        );
        m.record_served(1);
        let d = m.snapshot().since(&s);
        assert_eq!(d.served_by_peer, vec![0, 1, 0]);
    }

    #[test]
    fn since_subtracts() {
        let m = TrafficMeter::new(1);
        m.record(MsgKind::QueryLookup, 0, 0, 8, 1);
        let before = m.snapshot();
        m.record(MsgKind::QueryLookup, 0, 0, 8, 2);
        let after = m.snapshot();
        let d = after.since(&before);
        assert_eq!(d.kind(MsgKind::QueryLookup).messages, 1);
        assert_eq!(d.kind(MsgKind::QueryLookup).hops, 2);
    }

    #[test]
    fn notify_counts_as_indexing() {
        let m = TrafficMeter::new(1);
        m.record(MsgKind::IndexNotify, 0, 3, 0, 1);
        assert_eq!(m.snapshot().indexing_postings(), 3);
    }

    #[test]
    fn hop_bytes_weight_each_byte_per_hop() {
        let m = TrafficMeter::new(1);
        m.record(MsgKind::QueryResponse, 0, 2, 100, 3);
        m.record(MsgKind::QueryResponse, 0, 1, 40, 0);
        let k = m.snapshot().kind(MsgKind::QueryResponse);
        assert_eq!(k.bytes, 140);
        assert_eq!(k.hop_bytes, 300);
    }

    #[test]
    fn latency_histogram_buckets_and_stats() {
        let m = TrafficMeter::new(1);
        assert!(m.snapshot().latency(MsgKind::QueryLookup).is_empty());
        m.record_latency(MsgKind::QueryLookup, 0, 0, 0);
        m.record_latency(MsgKind::QueryLookup, 1_000, 1, 44);
        m.record_latency(MsgKind::QueryLookup, 1_500, 0, 0);
        m.record_latency(MsgKind::QueryLookup, 1 << 20, 2, 88);
        let h = *m.snapshot().latency(MsgKind::QueryLookup);
        assert_eq!(h.samples, 4);
        assert_eq!(h.total_ns, 2_500 + (1 << 20));
        assert_eq!(h.max_ns, 1 << 20);
        assert_eq!(h.retries, 3);
        assert_eq!(h.retransmission_bytes, 132, "retry bytes accumulate");
        assert_eq!(h.buckets[0], 1, "0 ns lands in the bottom bucket");
        assert_eq!(h.buckets[9], 1, "1000 ns -> [512, 1024)");
        assert_eq!(h.buckets[10], 1, "1500 ns -> [1024, 2048)");
        assert_eq!(h.buckets[20], 1);
        assert!((h.mean_ns() - (2_500.0 + f64::from(1 << 20)) / 4.0).abs() < 1e-9);
        // The p99 bucket bound covers the slowest sample.
        assert!(h.quantile_ns(0.99) >= h.max_ns);
        // The untouched kind stays empty.
        assert!(m.snapshot().latency(MsgKind::IndexInsert).is_empty());
    }

    #[test]
    fn same_counts_ignores_latency() {
        let a = TrafficMeter::new(2);
        let b = TrafficMeter::new(2);
        a.record(MsgKind::IndexInsert, 0, 5, 20, 2);
        b.record(MsgKind::IndexInsert, 0, 5, 20, 2);
        b.record_latency(MsgKind::IndexInsert, 777, 0, 0);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_ne!(sa, sb, "latency differs");
        assert!(sa.same_counts(&sb), "counts are the backend contract");
        b.record(MsgKind::IndexNotify, 1, 0, 8, 1);
        assert!(!sa.same_counts(&b.snapshot()));
    }

    #[test]
    fn since_subtracts_latency_histograms() {
        let m = TrafficMeter::new(1);
        m.record_latency(MsgKind::Maintenance, 100, 1, 64);
        let before = m.snapshot();
        m.record_latency(MsgKind::Maintenance, 300, 0, 0);
        let d = m.snapshot().since(&before);
        let h = d.latency(MsgKind::Maintenance);
        assert_eq!(h.samples, 1);
        assert_eq!(h.total_ns, 300);
        assert_eq!(h.retries, 0);
        assert_eq!(h.retransmission_bytes, 0, "since() subtracts retry bytes");
    }

    #[test]
    fn failover_timeouts_count_merge_and_subtract() {
        let m = TrafficMeter::new(2);
        m.record_failover_timeouts(0); // no-op
        m.record_failover_timeouts(2);
        let before = m.snapshot();
        assert_eq!(before.failover_timeouts, 2);
        m.record_failover_timeouts(1);
        let after = m.snapshot();
        assert_eq!(after.since(&before).failover_timeouts, 1);
        // Part of the backend-equivalence contract.
        assert!(!before.same_counts(&after));
        let mut merged = before.clone();
        crate::wire::Absorb::absorb(&mut merged, after);
        assert_eq!(merged.failover_timeouts, 5);
    }

    #[test]
    fn parallel_recording_is_consistent() {
        let m = std::sync::Arc::new(TrafficMeter::new(4));
        std::thread::scope(|s| {
            for p in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.record(MsgKind::IndexInsert, p, 2, 8, 1);
                    }
                });
            }
        });
        let s = m.snapshot();
        assert_eq!(s.kind(MsgKind::IndexInsert).messages, 4000);
        assert_eq!(s.kind(MsgKind::IndexInsert).postings, 8000);
        assert_eq!(s.inserted_by_peer, vec![2000; 4]);
    }
}
