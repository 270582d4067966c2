//! Property tests for the serving tier's wire codec
//! (`hdk_core::serve::codec`, `hdk_p2p::wire`).
//!
//! Six families, the first two mirroring the malformed-frame fuzz style
//! of `crates/ir/tests/prop_ir.rs`:
//!
//! 1. **Round-trip**: every [`WireRequest`]/[`WireResponse`] variant —
//!    which covers every message of the engine's seam via `Rpc(..)` and
//!    `Control(..)` — re-encodes bit-identically after a decode.
//!    (Byte-level identity is stronger than value equality and needs no
//!    `PartialEq` on posting blocks.)
//! 2. **Robustness**: truncations, byte mutations and raw garbage either
//!    decode (a flip can land in don't-care content, e.g. a counter
//!    value) or fail with a typed `WireError` — never a panic, never an
//!    attempt to allocate a huge buffer.
//! 3. **Handled**: every sampled request is answered by a fresh
//!    [`PeerHost::handle`] with something other than a refusal — a
//!    message that can be encoded has a handler arm that works.
//!
//! 4. **Framing**: however the writer takes the bytes, a frame on the
//!    wire is its 12-byte header then its payload, and frames written
//!    back to back come out of one buffered reader one by one — what the
//!    reader buffered beyond a frame is the next frame, not lost.
//! 5. **Flat records**: the one validating reader of a stored entry's flat
//!    record (a sealed frame's payload, the wire's entry) accepts what
//!    `put_record` writes and reads it back, refuses every strict prefix
//!    and every one-byte extension, and never panics on a flipped byte —
//!    a flipped record it still accepts re-encodes to itself.
//! 6. **Inline capacity**: an entry whose block and doc-set straddle the
//!    size that sits inline comes back from the wire and from its flat
//!    record holding the same bytes, held the same way.
//!
//! The vendored proptest shim has no `prop_oneof`/`sample` combinators,
//! so variant choice and payload shapes come from a small seeded
//! generator driven by a proptest-supplied `u64` — every case is still
//! reproducible from its seed. A variant is chosen by walking its enum's
//! `*_after` successor function, a `match` **without a wildcard arm**: a
//! new variant does not compile until it is given a place in the walk,
//! and with it in every property of this file.

use hdk_core::serve::{WireRequest, WireResponse, WIRE_VERSION};
use hdk_core::{
    IndexCounts, IndexFootprint, IndexRequest, IndexResponse, IndexSweep, IndexSwept, Key,
    KeyEntry, KeyLookup, PeerConfig, PeerHost, PeerStorage, StoreConfig, MAX_KEY_SIZE,
};
use hdk_corpus::DocId;
use hdk_ir::{CompressedDocSet, CompressedPostings, Posting, PostingList};
use hdk_p2p::{read_wire_frame, write_wire_frame, Wire, WireError};
use hdk_p2p::{
    Addressed, Control, GossipConfig, GossipMetering, GossipOutcome, GossipRound, HotConfig,
    HotStats, KindSnapshot, LatencyHistogram, LossStats, MigrationStats, Notification, PeerId,
    Record, RecoveryStats, RepairStats, Request, Response, Shared, TrafficSnapshot,
};
use hdk_text::TermId;
use proptest::prelude::*;
use std::io::{BufReader, Write};

/// Logical peers of the host the sampled requests are valid against.
const PEERS: u64 = 8;
const DFMAX: u32 = 3;

/// A peer process as `hdk-peer` would build it: the only one of its
/// fleet, hosting every stripe of an 8-peer network in memory.
fn fresh_host() -> PeerHost {
    PeerHost::new(PeerConfig {
        nprocs: 1,
        proc_index: 0,
        num_peers: PEERS as usize,
        dfmax: DFMAX,
        replication: 2,
        store: StoreConfig::Memory,
    })
}

/// SplitMix64 — a tiny deterministic generator; every generated value is
/// a pure function of the proptest-drawn seed. Requests come out valid
/// against [`fresh_host`] (live peers, waves that leave survivors, the
/// host's own geometry); replies are arbitrary.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// Walks `after` a random number of steps from `first`: a random
    /// variant, freshly filled.
    fn walk<T>(&mut self, first: T, after: fn(&mut Gen, &T) -> T) -> T {
        (0..1 + self.below(24)).fold(first, |value, _| after(self, &value))
    }

    fn peer(&mut self) -> PeerId {
        PeerId(self.below(PEERS))
    }

    /// Up to three distinct live peers: a wave that leaves survivors.
    fn wave(&mut self) -> Vec<PeerId> {
        let first = self.below(PEERS);
        (0..self.below(4))
            .map(|i| PeerId((first + i) % PEERS))
            .collect()
    }

    fn key(&mut self) -> Key {
        let size = 1 + self.below(MAX_KEY_SIZE as u64) as usize;
        // Distinct ascending terms: strictly growing offsets.
        let mut term = 0u32;
        let mut terms = Vec::with_capacity(size);
        for _ in 0..size {
            term += 1 + self.below(100_000) as u32;
            terms.push(TermId(term));
        }
        Key::from_terms(&terms).expect("ascending distinct terms within the size cap")
    }

    fn addressed<T>(&mut self, body: fn(&mut Gen, Key) -> T) -> Addressed<T> {
        let key = self.key();
        Addressed {
            route: key.dht_hash(),
            body: body(self, key),
        }
    }

    fn block(&mut self) -> CompressedPostings {
        let len = 1 + self.below(12) as usize;
        let mut doc = 0u32;
        let mut postings = Vec::with_capacity(len);
        for _ in 0..len {
            doc += 1 + self.below(500) as u32;
            postings.push(Posting {
                doc: DocId(doc),
                tf: 1 + self.below(50) as u32,
                doc_len: 1 + self.below(400) as u32,
            });
        }
        CompressedPostings::from_list(&PostingList::from_sorted(postings))
    }

    /// An entry whose block (1–7 postings of one- and two-byte values,
    /// 4–43 bytes) and doc-set (1–24 documents, 2–49 bytes) each fall on
    /// either side of the inline capacity.
    fn boundary_entry(&mut self) -> KeyEntry {
        let mut doc = 0u32;
        let postings: Vec<Posting> = (0..1 + self.below(7))
            .map(|_| {
                doc += 1 + self.below(200) as u32;
                Posting {
                    doc: DocId(doc),
                    tf: 1 + self.below(200) as u32,
                    doc_len: 1 + self.below(300) as u32,
                }
            })
            .collect();
        let mut doc = 0u32;
        let seen: Vec<DocId> = (0..1 + self.below(24))
            .map(|_| {
                doc += 1 + self.below(300) as u32;
                DocId(doc)
            })
            .collect();
        KeyEntry {
            postings: CompressedPostings::from_postings(&postings),
            seen_docs: Some(CompressedDocSet::from_sorted_docs(seen)),
            ..self.entry()
        }
    }

    fn migrations(&mut self) -> Vec<MigrationStats> {
        (0..self.below(4))
            .map(|_| MigrationStats {
                keys_moved: self.next(),
                postings_moved: self.next(),
                bytes_moved: self.next(),
            })
            .collect()
    }

    fn repair(&mut self) -> RepairStats {
        RepairStats {
            copies: self.next(),
            postings: self.next(),
            bytes: self.next(),
        }
    }

    fn lookup(&mut self) -> KeyLookup {
        KeyLookup {
            postings: self.block(),
            df: self.next() as u32,
            is_ndk: self.flag(),
        }
    }

    fn entry(&mut self) -> KeyEntry {
        let postings = self.block();
        let seen_docs = self
            .flag()
            .then(|| CompressedDocSet::from_postings(&postings));
        KeyEntry {
            key: self.key(),
            postings,
            df: self.next() as u32,
            contributors: self.wave(),
            is_ndk: self.flag(),
            seen_docs,
        }
    }

    fn histogram(&mut self) -> LatencyHistogram {
        let mut h = LatencyHistogram {
            samples: self.next(),
            total_ns: self.next(),
            max_ns: self.next(),
            retries: self.next(),
            retransmission_bytes: self.next(),
            ..LatencyHistogram::default()
        };
        for bucket in h.buckets.iter_mut() {
            *bucket = self.next();
        }
        h
    }

    fn snapshot(&mut self) -> TrafficSnapshot {
        let mut s = TrafficSnapshot::default();
        for slot in s.kinds.iter_mut() {
            *slot = KindSnapshot {
                messages: self.next(),
                postings: self.next(),
                bytes: self.next(),
                hops: self.next(),
                hop_bytes: self.next(),
            };
        }
        for slot in s.latency.iter_mut() {
            *slot = self.histogram();
        }
        s.inserted_by_peer = (0..self.below(6)).map(|_| self.next()).collect();
        s.retrieved_by_peer = (0..self.below(6)).map(|_| self.next()).collect();
        s.served_by_peer = (0..self.below(6)).map(|_| self.next()).collect();
        s.failover_timeouts = self.next();
        s
    }

    fn gossip_config(&mut self) -> GossipConfig {
        GossipConfig {
            fanout: 1 + self.below(3) as usize,
            suspicion_rounds: 1 + self.below(4) as u32,
            loss_prob: self.below(128) as f64 / 128.0,
            seed: self.next(),
        }
    }

    fn sweep_after(&mut self, sweep: &IndexSweep) -> IndexSweep {
        match sweep {
            IndexSweep::Classify { .. } => IndexSweep::Peek(self.key()),
            IndexSweep::Peek(_) => IndexSweep::Counts,
            IndexSweep::Counts => IndexSweep::StoragePerPeer,
            IndexSweep::StoragePerPeer => IndexSweep::SyncStorage,
            IndexSweep::SyncStorage => IndexSweep::Reassign {
                departed: self.wave(),
                custodian: self.peer(),
            },
            IndexSweep::Reassign { .. } => IndexSweep::Entries,
            IndexSweep::Entries => IndexSweep::Footprint,
            IndexSweep::Footprint => IndexSweep::Classify {
                size: self.next() as u32,
            },
        }
    }

    fn rpc_after(&mut self, request: &IndexRequest) -> IndexRequest {
        match request {
            Request::InsertBatch { .. } => Request::Notify {
                notes: (0..self.below(6))
                    .map(|_| Notification {
                        to: self.peer(),
                        postings: self.next(),
                        bytes: self.below(1 << 20),
                    })
                    .collect(),
            },
            Request::Notify { .. } => Request::LookupMany {
                from: self.peer(),
                query_id: self.next(),
                keys: (0..self.below(6))
                    .map(|_| self.addressed(|_, key| key))
                    .collect(),
            },
            Request::LookupMany { .. } => Request::Repair,
            Request::Repair => Request::Rebalance,
            Request::Rebalance => Request::Sweep(self.walk(IndexSweep::Counts, Gen::sweep_after)),
            Request::Sweep(_) => Request::InsertBatch {
                batches: (0..self.below(4))
                    .map(|_| {
                        let peer = self.peer();
                        let items = (0..self.below(4))
                            .map(|_| self.addressed(|gen, key| (key, gen.block())))
                            .collect();
                        (peer, items)
                    })
                    .collect(),
            },
        }
    }

    fn control_after(&mut self, control: &Control) -> Control {
        match control {
            Control::Join { .. } => Control::Leave { peers: self.wave() },
            Control::Leave { .. } => Control::Fail { peers: self.wave() },
            Control::Fail { .. } => Control::Restart { peers: self.wave() },
            // A host that just enabled gossip is about to run round 0.
            Control::Restart { .. } => Control::Gossip { round: 0 },
            Control::Gossip { .. } => Control::HotConfig(HotConfig {
                threshold: self.below(100),
                extra: self.below(4) as usize,
            }),
            Control::HotConfig(_) => Control::EnableGossip {
                config: self.gossip_config(),
                metering: match self.below(3) {
                    0 => GossipMetering::All,
                    1 => GossipMetering::Partition {
                        nprocs: 1 + self.below(4) as usize,
                        index: 0,
                    },
                    _ => GossipMetering::Mirror,
                },
            },
            Control::EnableGossip { .. } => {
                // Fresh identities, above every peer the host knows.
                let first = PEERS + self.below(1_000);
                Control::Join {
                    peers: (0..self.below(4)).map(|i| PeerId(first + i)).collect(),
                }
            }
        }
    }

    fn request_after(&mut self, request: &WireRequest) -> WireRequest {
        match request {
            WireRequest::Rpc(_) => WireRequest::Hello {
                version: WIRE_VERSION,
                nprocs: 1,
                proc_index: 0,
                num_peers: PEERS as u32,
                dfmax: DFMAX,
                replication: 2,
            },
            WireRequest::Hello { .. } => {
                WireRequest::Control(self.walk(Control::Gossip { round: 0 }, Gen::control_after))
            }
            WireRequest::Control(_) => WireRequest::Snapshot,
            WireRequest::Snapshot => WireRequest::Health,
            WireRequest::Health => WireRequest::Shutdown,
            WireRequest::Shutdown => WireRequest::Rpc(self.walk(Request::Repair, Gen::rpc_after)),
        }
    }

    fn request(&mut self) -> WireRequest {
        self.walk(WireRequest::Health, Gen::request_after)
    }

    fn swept_after(&mut self, swept: &IndexSwept) -> IndexSwept {
        match swept {
            IndexSwept::Classified(_) => IndexSwept::Peeked(self.flag().then(|| self.entry())),
            IndexSwept::Peeked(_) => {
                let mut counts = IndexCounts::default();
                for s in 0..MAX_KEY_SIZE {
                    counts.hdk_keys[s] = self.next();
                    counts.hdk_postings[s] = self.next();
                    counts.ndk_keys[s] = self.next();
                    counts.ndk_postings[s] = self.next();
                }
                IndexSwept::Counts(counts)
            }
            IndexSwept::Counts(_) => IndexSwept::StoragePerPeer(
                (0..self.below(4))
                    .map(|_| PeerStorage {
                        postings: self.next(),
                        posting_bytes: self.next(),
                        docset_docs: self.next(),
                        docset_bytes: self.next(),
                        sealed_bytes: self.next(),
                    })
                    .collect(),
            ),
            IndexSwept::StoragePerPeer(_) => IndexSwept::Done,
            IndexSwept::Done => {
                IndexSwept::Entries((0..self.below(3)).map(|_| self.entry()).collect())
            }
            IndexSwept::Entries(_) => IndexSwept::Footprint(IndexFootprint {
                keys: self.next(),
                hot_keys: self.next(),
                table_bytes: self.next(),
                sealed_table_bytes: self.next(),
                record_bytes: self.next(),
                dead_record_bytes: self.next(),
                block_bytes: self.next(),
                docset_bytes: self.next(),
            }),
            IndexSwept::Footprint(_) => IndexSwept::Classified(
                (0..self.below(6))
                    .map(|_| (self.peer(), self.key()))
                    .collect(),
            ),
        }
    }

    fn rpc_response_after(&mut self, response: &IndexResponse) -> IndexResponse {
        match response {
            Response::Inserted { .. } => Response::Found {
                results: (0..self.below(6))
                    .map(|_| self.flag().then(|| self.lookup()))
                    .collect(),
            },
            Response::Found { .. } => Response::Moved(self.migrations()),
            Response::Moved(_) => Response::Lost(LossStats {
                keys_lost: self.next(),
                postings_lost: self.next(),
                bytes_lost: self.next(),
                keys_degraded: self.next(),
            }),
            Response::Lost(_) => Response::Repaired(self.repair()),
            Response::Repaired(_) => Response::Rebalanced(HotStats {
                promoted: self.next(),
                demoted: self.next(),
                copies: self.next(),
                postings: self.next(),
                bytes: self.next(),
            }),
            Response::Rebalanced(_) => Response::Recovered(RecoveryStats {
                frames_replayed: self.next(),
                bytes_replayed: self.next(),
                frames_discarded: self.next(),
                copies_recovered: self.next(),
                postings_recovered: self.next(),
                copies_lost: self.next(),
                keys_lost: self.next(),
                postings_lost: self.next(),
                bytes_lost: self.next(),
                logs_refused: self.next(),
            }),
            Response::Recovered(_) => {
                Response::Swept(self.walk(IndexSwept::Done, Gen::swept_after))
            }
            Response::Swept(_) => {
                let pairs = |gen: &mut Gen| -> Vec<(u32, u32)> {
                    (0..gen.below(4))
                        .map(|_| (gen.next() as u32, gen.next() as u32))
                        .collect()
                };
                Response::Gossiped(GossipOutcome {
                    report: GossipRound {
                        round: self.next() as u32,
                        pings: self.next(),
                        failed: self.next(),
                        bytes: self.next(),
                        new_suspects: pairs(self),
                        confirmed: pairs(self),
                        universally_confirmed: (0..self.below(3))
                            .map(|_| self.next() as u32)
                            .collect(),
                    },
                    repair: self.flag().then(|| self.repair()),
                })
            }
            Response::Gossiped(_) => Response::Done,
            Response::Done => Response::Inserted {
                flags: (0..self.below(24)).map(|_| self.flag()).collect(),
            },
        }
    }

    fn message(&mut self) -> String {
        (0..self.below(40))
            .map(|_| char::from(b' ' + self.below(95) as u8))
            .collect()
    }

    fn response_after(&mut self, response: &WireResponse) -> WireResponse {
        match response {
            WireResponse::Rpc(_) => WireResponse::HelloOk,
            WireResponse::HelloOk => WireResponse::Snapshot(Box::new(self.snapshot())),
            WireResponse::Snapshot(_) => WireResponse::Healthy { keys: self.next() },
            WireResponse::Healthy { .. } => WireResponse::ShuttingDown,
            WireResponse::ShuttingDown => WireResponse::Err(self.message()),
            WireResponse::Err(_) => {
                WireResponse::Rpc(self.walk(Response::Done, Gen::rpc_response_after))
            }
        }
    }

    fn response(&mut self) -> WireResponse {
        self.walk(WireResponse::HelloOk, Gen::response_after)
    }
}

/// A writer that takes at most `limit` bytes a call and has no gathered
/// write of its own: a socket whose send buffer is all but full.
struct Dribble {
    limit: usize,
    taken: Vec<u8>,
}

impl Write for Dribble {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.limit);
        self.taken.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What a frame of `payload` is on the wire.
fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&hdk_ir::checksum64(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Payload sizes around the header's 12 bytes, a reader's buffer and the
/// 64 KiB an announced length may reserve up front.
const FRAME_SIZES: [usize; 8] = [
    0,
    1,
    11,
    300,
    8 << 10,
    (8 << 10) + 1,
    64 << 10,
    (64 << 10) + 1,
];

#[test]
fn a_frame_is_its_header_then_its_payload_however_it_is_written() {
    for size in FRAME_SIZES {
        let payload: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
        let expected = frame_bytes(&payload);
        let mut whole = Vec::new();
        write_wire_frame(&mut whole, &payload).expect("in-memory write");
        assert_eq!(whole, expected, "{size}-byte payload, gathered");
        // Short writes that end inside the header, at its end, inside the
        // payload, or nowhere.
        for limit in [1, 5, 12, 13, 1000, usize::MAX] {
            let mut dribble = Dribble {
                limit,
                taken: Vec::new(),
            };
            write_wire_frame(&mut dribble, &payload).expect("in-memory write");
            assert_eq!(
                dribble.taken, expected,
                "{size}-byte payload, {limit} a write"
            );
        }
    }
}

#[test]
fn back_to_back_frames_come_out_of_one_buffered_reader() {
    let payloads: Vec<Vec<u8>> = FRAME_SIZES
        .iter()
        .chain(FRAME_SIZES.iter().rev())
        .map(|&size| (0..size).map(|i| (i * 17 % 253) as u8).collect())
        .collect();
    let stream: Vec<u8> = payloads.iter().flat_map(|p| frame_bytes(p)).collect();
    for capacity in [1, 12, 13, 300, 8 << 10, 1 << 20] {
        let mut reader = BufReader::with_capacity(capacity, stream.as_slice());
        for payload in &payloads {
            let read = read_wire_frame(&mut reader).expect("a whole frame");
            assert_eq!(&read, payload, "buffer of {capacity}");
        }
        // Nothing left over, nothing lost: the stream ends between frames.
        assert!(matches!(
            read_wire_frame(&mut reader),
            Err(WireError::Closed)
        ));
    }
}

#[test]
fn an_insert_carrying_a_retired_block_does_not_decode() {
    // `[doc 3, tf 1, doc_len 103]` exactly as the retired group-varint
    // codec framed it, and a block of the same length in the one layout.
    const RETIRED: [u8; 7] = [0x00, 0x01, 0x01, 0x00, 0x03, 0x01, 0x67];
    let posting = |doc| Posting {
        doc: DocId(doc),
        tf: 1,
        doc_len: 103,
    };
    let block =
        CompressedPostings::from_list(&PostingList::from_sorted(vec![posting(3), posting(10)]));
    assert_eq!(block.as_bytes(), [0x02, 0x04, 0x01, 0x67, 0x07, 0x01, 0x67]);
    let key = Key::single(TermId(5));
    let valid = WireRequest::Rpc(Request::InsertBatch {
        batches: vec![(
            PeerId(1),
            vec![Addressed {
                route: key.dht_hash(),
                body: (key, block.clone()),
            }],
        )],
    })
    .encode();
    assert!(WireRequest::decode(&valid).is_ok());
    let at = valid
        .windows(RETIRED.len())
        .position(|w| w == block.as_bytes())
        .expect("the block travels verbatim");
    let mut retired = valid;
    retired[at..at + RETIRED.len()].copy_from_slice(&RETIRED);
    assert!(matches!(
        WireRequest::decode(&retired),
        Err(WireError::Corrupt)
    ));
}

#[test]
fn a_retired_tag_does_not_decode() {
    // A frame is `[frame tag][message tag][fields]`: `Rpc` is tag 0 of
    // both frame enums, a sweep tag 9 of `Request` and of `Response`.
    let refusal = {
        let mut bytes = vec![0, 12];
        String::from("refused").put(&mut bytes);
        bytes
    };
    // The notification acknowledgement (now `Done`) and the refusal (now
    // the `Err` of a backend's call).
    for retired in [vec![0, 1], refusal] {
        assert!(
            matches!(WireResponse::decode(&retired), Err(WireError::Corrupt)),
            "{retired:?}"
        );
    }
    // The sweeps and sweep replies `StoragePerPeer` answers.
    for tag in [3, 5, 6] {
        assert!(matches!(
            WireRequest::decode(&[0, 9, tag]),
            Err(WireError::Corrupt)
        ));
    }
    for tag in [3, 5] {
        let mut retired = vec![0, 9, tag];
        0u64.put(&mut retired);
        assert!(matches!(
            WireResponse::decode(&retired),
            Err(WireError::Corrupt)
        ));
    }
    // The tags around them still decode.
    assert!(matches!(
        WireResponse::decode(&[0, 11]),
        Ok(WireResponse::Rpc(Response::Done))
    ));
    assert!(WireRequest::decode(&[0, 9, 4]).is_ok());
}

proptest! {
    /// Decode∘encode is the identity on the byte level for requests.
    #[test]
    fn request_reencode_is_bit_identical(seed in any::<u64>()) {
        let request = Gen(seed).request();
        let bytes = request.encode();
        let decoded = WireRequest::decode(&bytes).expect("valid payload decodes");
        prop_assert_eq!(bytes, decoded.encode());
    }

    /// ... and for responses.
    #[test]
    fn response_reencode_is_bit_identical(seed in any::<u64>()) {
        let response = Gen(seed).response();
        let bytes = response.encode();
        let decoded = WireResponse::decode(&bytes).expect("valid payload decodes");
        prop_assert_eq!(bytes, decoded.encode());
    }

    /// Every truncation of a valid request payload decodes to an error —
    /// never a panic, never a silent partial value. (The empty request
    /// variants are 1 byte, so every strict prefix is genuinely invalid.)
    #[test]
    fn truncated_requests_error_cleanly(seed in any::<u64>()) {
        let bytes = Gen(seed).request().encode();
        for len in 0..bytes.len() {
            prop_assert!(
                WireRequest::decode(&bytes[..len]).is_err(),
                "prefix of {}/{} bytes must not decode", len, bytes.len()
            );
        }
    }

    #[test]
    fn truncated_responses_error_cleanly(seed in any::<u64>()) {
        let bytes = Gen(seed).response().encode();
        for len in 0..bytes.len() {
            prop_assert!(
                WireResponse::decode(&bytes[..len]).is_err(),
                "prefix of {}/{} bytes must not decode", len, bytes.len()
            );
        }
    }

    /// Byte mutations never panic: they decode (the flip can land in
    /// don't-care content such as a counter value) or fail typed.
    #[test]
    fn mutated_requests_never_panic(seed in any::<u64>(), fuzz in any::<u64>()) {
        let mut gen = Gen(fuzz);
        let mut bytes = Gen(seed).request().encode();
        for _ in 0..1 + gen.below(3) {
            let i = gen.below(bytes.len() as u64) as usize;
            bytes[i] ^= 1 + gen.below(255) as u8;
        }
        let _ = WireRequest::decode(&bytes);
    }

    #[test]
    fn mutated_responses_never_panic(seed in any::<u64>(), fuzz in any::<u64>()) {
        let mut gen = Gen(fuzz);
        let mut bytes = Gen(seed).response().encode();
        for _ in 0..1 + gen.below(3) {
            let i = gen.below(bytes.len() as u64) as usize;
            bytes[i] ^= 1 + gen.below(255) as u8;
        }
        let _ = WireResponse::decode(&bytes);
    }

    /// Every message that can be sent is handled: a fresh peer process
    /// (gossip switched on, so a round can run) answers each sampled
    /// request with a reply, not a refusal — and with one the codec
    /// carries.
    #[test]
    fn every_sampled_request_is_handled(seed in any::<u64>()) {
        let mut gen = Gen(seed);
        let host = fresh_host();
        let enable = WireRequest::Control(Control::EnableGossip {
            config: gen.gossip_config(),
            metering: GossipMetering::All,
        });
        prop_assert!(matches!(host.handle(enable), WireResponse::Rpc(Response::Done)));
        let request = gen.request();
        let shown = format!("{request:?}");
        let reply = host.handle(request);
        prop_assert!(
            !matches!(reply, WireResponse::Err(_)),
            "{} was refused: {:?}", shown, reply
        );
        let bytes = reply.encode();
        let decoded = WireResponse::decode(&bytes).expect("a reply decodes");
        prop_assert_eq!(bytes, decoded.encode());
    }

    /// On sampled entries and on entries straddling the inline capacity,
    /// the flat record check accepts what `put_record` writes, which reads
    /// back to the entry; it refuses every strict prefix and every one-byte
    /// extension; and it never panics on a record with any one byte
    /// flipped to any other value — one it still accepts re-encodes to
    /// itself, so nothing it lets through reads back as another record.
    #[test]
    fn the_flat_record_check_accepts_exactly_what_put_record_writes(seed in any::<u64>()) {
        let mut gen = Gen(seed);
        for entry in [gen.entry(), gen.boundary_entry()] {
            let mut flat = Vec::new();
            entry.put_record(&mut flat, None);
            prop_assert!(KeyEntry::check(&flat));
            let back = KeyEntry::from_record(&flat, Shared::default());
            prop_assert_eq!(back.key, entry.key);
            prop_assert_eq!(&back.postings, &entry.postings);
            prop_assert_eq!(back.df, entry.df);
            prop_assert_eq!(&back.contributors, &entry.contributors);
            prop_assert_eq!(back.is_ndk, entry.is_ndk);
            prop_assert_eq!(
                back.seen_docs.as_ref().map(|s| s.as_bytes().to_vec()),
                entry.seen_docs.as_ref().map(|s| s.as_bytes().to_vec())
            );
            for len in 0..flat.len() {
                prop_assert!(!KeyEntry::check(&flat[..len]), "a {}-byte prefix", len);
            }
            let mut longer = flat.clone();
            longer.push(0);
            for byte in 0..=u8::MAX {
                *longer.last_mut().expect("one more byte") = byte;
                prop_assert!(!KeyEntry::check(&longer), "trailing byte {}", byte);
            }
            let mut flipped = flat.clone();
            for i in 0..flat.len() {
                for byte in (0..=u8::MAX).filter(|&b| b != flat[i]) {
                    flipped[i] = byte;
                    if KeyEntry::check(&flipped) {
                        let mut again = Vec::new();
                        KeyEntry::from_record(&flipped, Shared::default()).put_record(&mut again, None);
                        prop_assert_eq!(&again, &flipped, "byte {} set to {}", i, byte);
                    }
                }
                flipped[i] = flat[i];
            }
        }
    }

    /// An entry whose block and doc-set straddle the inline capacity
    /// comes back from the wire and from its flat record — in full and
    /// through the view a lookup reads — holding the same bytes, held the
    /// same way, and re-encodes to the same payload.
    #[test]
    fn entries_straddling_the_inline_capacity_round_trip(seed in any::<u64>()) {
        let entry = Gen(seed).boundary_entry();
        let seen = entry.seen_docs.as_ref().expect("a doc-set");
        let payload = hdk_p2p::wire::encode(&entry);
        let mut flat = Vec::new();
        entry.put_record(&mut flat, None);
        prop_assert_eq!(&payload[4..], &flat[..], "the wire carries the flat record");
        let from_wire: KeyEntry = hdk_p2p::wire::decode(&payload).expect("an entry decodes");
        let from_log = KeyEntry::from_record(&flat, Shared::default());
        for back in [&from_wire, &from_log] {
            prop_assert_eq!(&back.postings, &entry.postings);
            prop_assert_eq!(back.postings.heap_bytes(), entry.postings.heap_bytes());
            let back_seen = back.seen_docs.as_ref().expect("a doc-set");
            prop_assert_eq!(back_seen.as_bytes(), seen.as_bytes());
            prop_assert_eq!(back_seen.heap_bytes(), seen.heap_bytes());
            prop_assert_eq!(hdk_p2p::wire::encode(back), payload.clone());
        }
        let (lookup, _) = KeyEntry::view(&flat, Shared::default()).postings_and_df();
        prop_assert_eq!(lookup.as_bytes(), entry.postings.as_bytes());
        prop_assert_eq!(lookup.heap_bytes(), entry.postings.heap_bytes());
    }

    /// Arbitrary garbage never panics either.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = WireRequest::decode(&bytes);
        let _ = WireResponse::decode(&bytes);
    }
}
