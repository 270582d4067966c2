//! The serving tier's frames, and the encodings of the index types that
//! validate.
//!
//! A peer process is sent [`WireRequest`]s and answers [`WireResponse`]s,
//! one per [`hdk_p2p::wire`] frame. Almost all of them carry a message of
//! the engine's one seam unchanged — `Rpc` a data-plane
//! [`IndexRequest`], `Control` a control-plane [`Control`] — so a peer
//! process handles exactly what an in-process backend handles; the rest
//! is what only a process needs: handshake, its traffic meter, a liveness
//! probe, graceful shutdown.
//!
//! Every encoding is derived from one declaration per type (see
//! [`hdk_p2p::wire`]): the message enums from their `wire_enum!` tables
//! (here, beside [`hdk_p2p::Request`], and beside
//! [`IndexSweep`](crate::global_index::IndexSweep)), the stats structs
//! from their field lists. Written by hand are only the types whose
//! decoding *validates*: [`Key`] (size and term order), a stored entry
//! (beside [`KeyEntry`](crate::KeyEntry): its flat record, the payload of
//! its segment-log frames, read through the one check a sealed read runs)
//! and, in `hdk_p2p::wire`, the posting block. Decoders never panic on
//! malformed input — every path returns
//! [`WireError::Truncated`]/[`WireError::Corrupt`] (pinned by
//! `crates/core/tests/prop_wire.rs`).

use crate::global_index::KeyLookup;
pub use crate::global_index::{IndexRequest, IndexResponse};
use crate::key::{Key, MAX_KEY_SIZE};
use hdk_p2p::wire::{self, Wire, WireError, WireReader, WireResult};
use hdk_p2p::{wire_enum, wire_record, Control, TrafficSnapshot};
use hdk_text::TermId;

/// Protocol version carried in the [`WireRequest::Hello`] handshake.
/// Bumped on any incompatible encoding change — 4: frames carry the
/// word-wide checksum, and `RecoveryStats` and `IndexFootprint` gained
/// fields; 5: the `StoredPostings` and `ResidentBytes` sweeps and the
/// `StoredPostings` reply are gone (both answered from `StoragePerPeer`),
/// so `IndexSweep` tags 3 and 5 and `IndexSwept` tag 3 are unassigned;
/// 6: a stored entry travels as its length-prefixed flat record; 7: the
/// sealed-byte sweep and its byte-total reply are gone (answered from
/// `StoragePerPeer`), so `IndexSweep` tag 6 and `IndexSwept` tag 5 are
/// unassigned, and `StoreService::migrate_volume` reads a value's view;
/// 8: a refusal travels only as the frame's [`WireResponse::Err`] (the
/// `Err` of a backend's call, no longer a reply) and a notification is
/// acknowledged with `Done`, so `Response` tags 1 and 12 are unassigned;
/// an insert is acknowledged with one flag per item, not per batch.
pub const WIRE_VERSION: u32 = 8;

/// One serving-tier request frame, front-end → peer process.
#[derive(Debug, Clone)]
pub enum WireRequest {
    /// A data-plane message, handled over the peer process's stripes
    /// under shared access.
    Rpc(IndexRequest),
    /// Connection handshake: both sides must agree on the protocol
    /// version and the index geometry before any traffic flows.
    Hello {
        version: u32,
        nprocs: u32,
        proc_index: u32,
        num_peers: u32,
        dfmax: u32,
        replication: u32,
    },
    /// A control-plane message, handled under exclusive access. The
    /// front-end broadcasts each one, so every process's overlay,
    /// membership and settings stay those of the whole network.
    Control(Control),
    /// This process's traffic meter.
    Snapshot,
    /// Liveness probe.
    Health,
    /// Graceful shutdown: drain in-flight requests, sync storage, exit.
    Shutdown,
}

/// One serving-tier response frame, peer process → front-end.
#[derive(Debug, Clone)]
pub enum WireResponse {
    /// The reply to an `Rpc` or a `Control`.
    Rpc(IndexResponse),
    /// Handshake accepted.
    HelloOk,
    /// Boxed: a snapshot dwarfs every other variant (per-kind histograms).
    Snapshot(Box<TrafficSnapshot>),
    /// `Health` reply: how many keys this process hosts.
    Healthy { keys: u64 },
    /// `Shutdown` acknowledged; the process exits after this frame.
    ShuttingDown,
    /// The request was refused (malformed frame, handshake mismatch, a
    /// message the handler refused). Transported as
    /// [`WireError::Protocol`].
    Err(String),
}

wire_enum!(WireRequest {
    0 => Rpc(request),
    1 => Hello { version, nprocs, proc_index, num_peers, dfmax, replication },
    2 => Control(control),
    9 => Snapshot,
    14 => Health,
    15 => Shutdown,
});
wire_enum!(WireResponse {
    0 => Rpc(response),
    1 => HelloOk,
    8 => Snapshot(snapshot),
    11 => Healthy { keys },
    12 => ShuttingDown,
    13 => Err(reason),
});

impl WireRequest {
    /// Encodes into a fresh frame payload.
    pub fn encode(&self) -> Vec<u8> {
        wire::encode(self)
    }

    /// Decodes a full frame payload (trailing garbage is corruption).
    pub fn decode(payload: &[u8]) -> WireResult<WireRequest> {
        wire::decode(payload)
    }
}

impl WireResponse {
    /// Encodes into a fresh frame payload.
    pub fn encode(&self) -> Vec<u8> {
        wire::encode(self)
    }

    /// Decodes a full frame payload (trailing garbage is corruption).
    pub fn decode(payload: &[u8]) -> WireResult<WireResponse> {
        wire::decode(payload)
    }
}

/// `[size: u8][terms: u32 × size]`.
impl Wire for Key {
    const MIN_BYTES: usize = 5;

    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(self.size() as u8);
        for term in self.terms() {
            term.0.put(buf);
        }
    }

    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        let size = u8::get(r)? as usize;
        if size == 0 || size > MAX_KEY_SIZE {
            return Err(WireError::Corrupt);
        }
        let mut terms = [TermId(0); MAX_KEY_SIZE];
        for slot in terms.iter_mut().take(size) {
            *slot = TermId(u32::get(r)?);
        }
        // `from_terms` rejects duplicates; a key that fails to rebuild is a
        // corrupt frame, not a panic.
        Key::from_terms(&terms[..size]).ok_or(WireError::Corrupt)
    }
}

wire_record!(KeyLookup[9](postings, df, is_ndk));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_index::IndexSweep;
    use hdk_corpus::DocId;
    use hdk_ir::{CompressedPostings, Posting, PostingList};
    use hdk_p2p::{
        Addressed, GossipConfig, GossipMetering, GossipOutcome, GossipRound, KeyHash, PeerId,
        RepairStats, Request, Response,
    };

    fn block(docs: &[u32]) -> CompressedPostings {
        CompressedPostings::from_list(&PostingList::from_sorted(
            docs.iter()
                .map(|&d| Posting {
                    doc: DocId(d),
                    tf: 2,
                    doc_len: 50,
                })
                .collect(),
        ))
    }

    fn key(terms: &[u32]) -> Key {
        Key::from_terms(&terms.iter().map(|&t| TermId(t)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn request_roundtrip_insert_and_lookup() {
        let requests = vec![
            WireRequest::Rpc(Request::InsertBatch {
                batches: vec![(
                    PeerId(3),
                    vec![Addressed {
                        route: KeyHash(99),
                        body: (key(&[1, 2]), block(&[5, 9, 11])),
                    }],
                )],
            }),
            WireRequest::Rpc(Request::LookupMany {
                from: PeerId(1),
                query_id: 77,
                keys: vec![Addressed {
                    route: KeyHash(42),
                    body: key(&[8]),
                }],
            }),
            WireRequest::Rpc(Request::Sweep(IndexSweep::Reassign {
                departed: vec![PeerId(4), PeerId(5)],
                custodian: PeerId(0),
            })),
            WireRequest::Control(Control::Gossip { round: 9 }),
            WireRequest::Control(Control::EnableGossip {
                config: GossipConfig {
                    fanout: 2,
                    suspicion_rounds: 3,
                    loss_prob: 0.125,
                    seed: 0xfeed,
                },
                metering: GossipMetering::Partition {
                    nprocs: 3,
                    index: 1,
                },
            }),
        ];
        for req in requests {
            let bytes = req.encode();
            let decoded = WireRequest::decode(&bytes).unwrap();
            assert_eq!(bytes, decoded.encode(), "re-encode must be bit-identical");
        }
    }

    #[test]
    fn response_roundtrip_found() {
        let resp = WireResponse::Rpc(Response::Found {
            results: vec![
                None,
                Some(KeyLookup {
                    postings: block(&[1, 2, 3]),
                    df: 3,
                    is_ndk: false,
                }),
            ],
        });
        let bytes = resp.encode();
        let decoded = WireResponse::decode(&bytes).unwrap();
        assert_eq!(bytes, decoded.encode());
    }

    #[test]
    fn response_roundtrip_gossiped() {
        let resp = WireResponse::Rpc(Response::Gossiped(GossipOutcome {
            report: GossipRound {
                round: 7,
                confirmed: vec![(0, 3), (1, 3)],
                universally_confirmed: vec![3],
                ..GossipRound::default()
            },
            repair: Some(RepairStats {
                copies: 4,
                postings: 900,
                bytes: 3600,
            }),
        }));
        let bytes = resp.encode();
        let decoded = WireResponse::decode(&bytes).unwrap();
        assert_eq!(bytes, decoded.encode());
    }

    #[test]
    fn snapshot_roundtrip_carries_failover_timeouts() {
        let s = TrafficSnapshot {
            failover_timeouts: 17,
            inserted_by_peer: vec![1, 2],
            ..TrafficSnapshot::default()
        };
        let resp = WireResponse::Snapshot(Box::new(s));
        let bytes = resp.encode();
        match WireResponse::decode(&bytes).unwrap() {
            WireResponse::Snapshot(d) => {
                assert_eq!(d.failover_timeouts, 17);
                assert_eq!(d.inserted_by_peer, vec![1, 2]);
            }
            other => panic!("expected Snapshot, got {other:?}"),
        }
    }

    #[test]
    fn malformed_tags_are_corrupt_not_panic() {
        assert!(matches!(
            WireRequest::decode(&[200]),
            Err(WireError::Corrupt)
        ));
        assert!(matches!(
            WireResponse::decode(&[200]),
            Err(WireError::Corrupt)
        ));
        assert!(matches!(
            WireRequest::decode(&[]),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let mut bytes = WireRequest::Health.encode();
        bytes.push(0);
        assert!(matches!(
            WireRequest::decode(&bytes),
            Err(WireError::Corrupt)
        ));
    }
}
