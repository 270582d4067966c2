//! Property test: the network backends are observationally equivalent up
//! to time.
//!
//! The same scenario — random collection, random partitioning, random
//! configuration, random query batch — built over `InProc`, over `SimNet`
//! and over a multi-host `TcpNet` must produce bit-identical build reports
//! and `QueryOutcome`s (top-k score bits, lookup counts, postings fetched)
//! and identical traffic *counts* (messages, postings, bytes, hops,
//! hop-weighted bytes, per-peer attribution). The simulated network only
//! adds *time*: with the all-zero configuration even the recorded
//! latencies are zero, and with a lossy, jittery configuration the counts
//! still must not move — drops surface as retransmission timeouts, never
//! as extra counted messages. The multi-host backend runs over an
//! in-memory loopback fleet (no sockets, no processes): every exchange is
//! `encode → decode → PeerHost::handle → encode → decode`, so codec,
//! scatter rules, reply folds and the handler are all on the path.
//!
//! The backends also agree on what they *refuse*: a membership wave that
//! is invalid against the overlay (a joiner already in it, an unknown or
//! dead leaver, a wave that leaves nobody) comes back as the `Err` of
//! `NetworkBackend::control` from all three and changes nothing — and a
//! live `PeerHost` that receives one on a socket answers
//! `WireResponse::Err` and keeps serving. So is a data-plane message
//! naming a peer the overlay does not know (a lookup's querying peer, an
//! insert batch's peer, a notification's recipient): the `Err` of
//! `NetworkBackend::call` in process, `WireResponse::Err` on a socket.

use hdk_core::{
    BackendConfig, Fleet, HdkConfig, HdkNetwork, IndexBackend, IndexStore, Key, OverlayKind,
    PeerConfig, PeerHost, QueryService, StoreConfig, TcpNet, WireRequest, WireResponse,
};
use hdk_corpus::{Collection, DocId, Document};
use hdk_ir::{CompressedPostings, Posting, PostingList};
use hdk_p2p::{
    read_wire_frame, write_wire_frame, Addressed, Control, InProc, MsgKind, Notification, PGrid,
    PeerId, Request, Response, SimNet, SimNetConfig, WireResult,
};
use hdk_text::{TermId, Vocabulary};
use proptest::prelude::*;

const VOCAB: u32 = 12;

fn make_collection(token_docs: &[Vec<u32>]) -> Collection {
    let mut vocab = Vocabulary::new();
    for t in 0..VOCAB {
        vocab.intern(&format!("term{t:02}"));
    }
    let docs = token_docs
        .iter()
        .enumerate()
        .map(|(i, toks)| Document {
            id: DocId(i as u32),
            tokens: toks.iter().map(|&t| TermId(t)).collect(),
        })
        .collect();
    Collection::new(docs, vocab)
}

fn arb_docs() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0..VOCAB, 3..24), 4..16)
}

fn arb_queries() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0..VOCAB, 1..8), 1..10)
}

/// One query's digest: `(per-doc (id, score bits), lookups, postings)`.
type QueryDigest = (Vec<(u32, u64)>, u32, u64);

/// Runs the query batch and digests every observable.
fn run_queries(service: &QueryService, queries: &[Vec<u32>], peers: usize) -> Vec<QueryDigest> {
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let terms: Vec<TermId> = q.iter().map(|&t| TermId(t)).collect();
            let out = service.query(PeerId(i as u64 % peers as u64), &terms, 10);
            (
                out.results
                    .iter()
                    .map(|r| (r.doc.0, r.score.to_bits()))
                    .collect(),
                out.lookups,
                out.postings_fetched,
            )
        })
        .collect()
}

/// A fleet of peer hosts in this process: each exchange decodes the
/// request frame, lets the host handle it and encodes the reply — what a
/// peer process does between its two socket calls.
struct Loopback(Vec<PeerHost>);

impl Fleet for Loopback {
    fn nprocs(&self) -> usize {
        self.0.len()
    }

    fn exchange(&self, requests: &[(usize, &[u8])], _idempotent: bool) -> Vec<WireResult<Vec<u8>>> {
        requests
            .iter()
            .map(|&(proc, payload)| Ok(self.0[proc].handle(WireRequest::decode(payload)?).encode()))
            .collect()
    }
}

/// One of `hosts` peer hosts of a `peers`-peer network.
fn peer_host(proc_index: usize, hosts: usize, peers: usize, config: &HdkConfig) -> PeerHost {
    PeerHost::new(PeerConfig {
        nprocs: hosts,
        proc_index,
        num_peers: peers,
        dfmax: config.dfmax,
        replication: config.replication,
        store: config.store.clone(),
    })
}

fn pgrid(peers: usize) -> Box<PGrid> {
    Box::new(PGrid::new((0..peers as u64).map(PeerId).collect()))
}

/// A `TcpNet` over `hosts` loopback peer hosts.
fn loopback_net(peers: usize, config: &HdkConfig, hosts: usize) -> TcpNet {
    let fleet = (0..hosts).map(|proc| peer_host(proc, hosts, peers, config));
    TcpNet::over(
        Box::new(Loopback(fleet.collect())),
        pgrid(peers),
        config.dfmax,
        config.replication,
    )
    .expect("every loopback host answers its health probe")
}

/// The scenario built over `hosts` loopback peer hosts.
fn build_over_loopback(
    collection: &Collection,
    partitions: &[Vec<DocId>],
    config: &HdkConfig,
    hosts: usize,
) -> QueryService {
    let net = loopback_net(partitions.len(), config, hosts);
    HdkNetwork::build_over(collection, partitions, config.clone(), Box::new(net)).query_service()
}

/// What every backend must agree on with `InProc`: the build report, the
/// query outcomes bit for bit, and every traffic count (the latency
/// histograms are the one permitted difference).
fn check_same_observables(
    inproc: &QueryService,
    other: &QueryService,
    queries: &[Vec<u32>],
    peers: usize,
) -> Result<(), TestCaseError> {
    let (ra, rb) = (inproc.build_report(), other.build_report());
    prop_assert_eq!(ra.inserted_by_size, rb.inserted_by_size);
    prop_assert_eq!(&ra.stored_per_peer, &rb.stored_per_peer);
    prop_assert_eq!(ra.counts, rb.counts);
    prop_assert_eq!(ra.rounds, rb.rounds);

    let qa = run_queries(inproc, queries, peers);
    let qb = run_queries(other, queries, peers);
    prop_assert_eq!(qa, qb, "query outcomes diverged across backends");

    let (sa, sb) = (inproc.snapshot(), other.snapshot());
    prop_assert!(
        sa.same_counts(&sb),
        "traffic counts diverged: inproc {:?} vs other {:?}",
        sa.kinds,
        sb.kinds
    );
    Ok(())
}

/// `InProc` against the loopback fleet, where in addition no exchange may
/// fail.
fn check_loopback_equivalent(
    collection: &Collection,
    queries: &[Vec<u32>],
    config: &HdkConfig,
    peers: usize,
    hosts: usize,
) -> Result<(), TestCaseError> {
    let partitions = hdk_corpus::partition_documents(collection.len(), peers, 23);
    let inproc = HdkNetwork::build(collection, &partitions, config.clone()).query_service();
    let fleet = build_over_loopback(collection, &partitions, config, hosts);
    check_same_observables(&inproc, &fleet, queries, peers)?;
    prop_assert_eq!(fleet.transport_errors(), 0);
    Ok(())
}

fn check_equivalent(
    collection: &Collection,
    queries: &[Vec<u32>],
    config: &HdkConfig,
    peers: usize,
    sim: SimNetConfig,
) -> Result<(), TestCaseError> {
    let partitions = hdk_corpus::partition_documents(collection.len(), peers, 23);
    let inproc = HdkNetwork::build(collection, &partitions, config.clone()).query_service();
    let simnet = HdkNetwork::build_with(
        collection,
        &partitions,
        config.clone(),
        OverlayKind::PGrid,
        BackendConfig::SimNet(sim),
    )
    .query_service();
    check_same_observables(&inproc, &simnet, queries, peers)?;
    // The simulated side recorded exactly one latency sample per message
    // of every kind; the in-process side recorded none.
    let (sa, sb) = (inproc.snapshot(), simnet.snapshot());
    for kind in MsgKind::ALL {
        prop_assert_eq!(
            sb.latency(kind).samples,
            sb.kind(kind).messages,
            "missing latency samples for {:?}",
            kind
        );
        prop_assert!(sa.latency(kind).is_empty(), "in-proc must not record time");
    }
    Ok(())
}

fn ids(peers: &[u64]) -> Vec<PeerId> {
    peers.iter().map(|&p| PeerId(p)).collect()
}

/// Membership waves no `Dht` over four live peers `0..4` can apply.
fn invalid_waves() -> Vec<Control> {
    vec![
        Control::Join { peers: ids(&[2]) },
        Control::Join {
            peers: ids(&[8, 8]),
        },
        Control::Leave { peers: ids(&[9]) },
        Control::Fail { peers: ids(&[9]) },
        Control::Restart { peers: ids(&[9]) },
        Control::Leave {
            peers: ids(&[1, 1]),
        },
        Control::Fail {
            peers: ids(&[0, 1, 2, 3]),
        },
        Control::Leave {
            peers: ids(&[3, 2, 1, 0]),
        },
    ]
}

fn lookup_of_nothing() -> hdk_core::IndexRequest {
    let key = Key::single(TermId(3));
    Request::LookupMany {
        from: PeerId(0),
        query_id: 7,
        keys: vec![Addressed {
            route: key.dht_hash(),
            body: key,
        }],
    }
}

#[test]
fn every_backend_refuses_an_invalid_membership_wave() {
    let config = HdkConfig {
        replication: 2,
        store: StoreConfig::Memory,
        ..HdkConfig::default()
    };
    let inproc = || InProc::replicated(pgrid(4), IndexStore::new(config.dfmax), 2);
    let backends: [(&str, IndexBackend); 3] = [
        ("InProc", Box::new(inproc())),
        (
            "SimNet",
            Box::new(SimNet::new(inproc(), SimNetConfig::zero())),
        ),
        ("TcpNet", Box::new(loopback_net(4, &config, 2))),
    ];
    for (name, mut backend) in backends {
        for wave in invalid_waves() {
            let reply = backend.control(wave.clone());
            assert!(reply.is_err(), "{name}: {wave:?} answered {reply:?}");
            assert_eq!(backend.dht().overlay().len(), 4, "{name}: {wave:?}");
            assert_eq!(backend.dht().membership().live_count(), 4, "{name}");
        }
        // Still in working order: a dead peer is then refused a second
        // death, a valid join goes through, lookups are answered.
        let crash = Control::Fail { peers: ids(&[3]) };
        assert!(matches!(
            backend.control(crash.clone()),
            Ok(Response::Lost(_))
        ));
        assert!(backend.control(crash).is_err(), "{name}");
        let join = Control::Join { peers: ids(&[8]) };
        assert!(
            matches!(backend.control(join), Ok(Response::Moved(_))),
            "{name}"
        );
        let found = backend.call(&lookup_of_nothing());
        assert!(
            matches!(&found, Ok(Response::Found { results }) if matches!(results[..], [None])),
            "{name}"
        );
        assert_eq!(backend.transport_errors(), 0, "{name}");
    }
}

#[test]
fn a_live_peer_host_survives_an_invalid_control_frame() {
    let config = HdkConfig {
        store: StoreConfig::Memory,
        ..HdkConfig::default()
    };
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut stream = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let host = peer_host(0, 1, 4, &config);
    std::thread::spawn(move || host.serve(listener));
    let mut exchange = |request: WireRequest| {
        write_wire_frame(&mut stream, &request.encode()).expect("send");
        WireResponse::decode(&read_wire_frame(&mut stream).expect("a reply frame")).expect("reply")
    };
    for wave in invalid_waves() {
        let reply = exchange(WireRequest::Control(wave.clone()));
        assert!(
            matches!(reply, WireResponse::Err(_)),
            "{wave:?} answered {reply:?}"
        );
        // The same connection, the same process: the next lookup is served.
        let reply = exchange(WireRequest::Rpc(lookup_of_nothing()));
        assert!(
            matches!(&reply, WireResponse::Rpc(Response::Found { results }) if matches!(results[..], [None])),
            "after {wave:?}: {reply:?}"
        );
    }
}

/// Data-plane messages that each name a peer no overlay over `0..4` knows:
/// a lookup's querying peer, an insert batch's inserting peer, a
/// notification's recipient.
fn requests_naming_an_unknown_peer() -> Vec<hdk_core::IndexRequest> {
    let stranger = PeerId(9);
    let key = Key::single(TermId(3));
    let block = CompressedPostings::from_list(&PostingList::from_sorted(vec![Posting {
        doc: DocId(1),
        tf: 1,
        doc_len: 9,
    }]));
    vec![
        Request::LookupMany {
            from: stranger,
            query_id: 7,
            keys: vec![Addressed {
                route: key.dht_hash(),
                body: key,
            }],
        },
        Request::InsertBatch {
            batches: vec![(
                stranger,
                vec![Addressed {
                    route: key.dht_hash(),
                    body: (key, block),
                }],
            )],
        },
        Request::Notify {
            notes: vec![Notification {
                to: stranger,
                postings: 0,
                bytes: 8,
            }],
        },
    ]
}

#[test]
fn a_request_naming_an_unknown_peer_is_refused() {
    let inproc = || InProc::replicated(pgrid(4), IndexStore::new(40), 1);
    let backends: [(&str, IndexBackend); 2] = [
        ("InProc", Box::new(inproc())),
        (
            "SimNet",
            Box::new(SimNet::new(inproc(), SimNetConfig::zero())),
        ),
    ];
    for (name, backend) in backends {
        for request in requests_naming_an_unknown_peer() {
            let shown = format!("{request:?}");
            let reply = backend.call(&request);
            assert!(reply.is_err(), "{name}: {shown} answered {reply:?}");
        }
        assert_eq!(backend.dht().num_keys(), 0, "{name}: nothing was applied");
        assert!(backend.snapshot().kinds.iter().all(|k| k.messages == 0));
        let found = backend.call(&lookup_of_nothing());
        assert!(
            matches!(&found, Ok(Response::Found { results }) if matches!(results[..], [None])),
            "{name}"
        );
    }
}

#[test]
fn a_live_peer_host_survives_a_request_naming_an_unknown_peer() {
    let config = HdkConfig {
        store: StoreConfig::Memory,
        ..HdkConfig::default()
    };
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut stream = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let host = peer_host(0, 1, 4, &config);
    std::thread::spawn(move || host.serve(listener));
    let mut exchange = |request: WireRequest| {
        write_wire_frame(&mut stream, &request.encode()).expect("send");
        WireResponse::decode(&read_wire_frame(&mut stream).expect("a reply frame")).expect("reply")
    };
    for request in requests_naming_an_unknown_peer() {
        let shown = format!("{request:?}");
        let reply = exchange(WireRequest::Rpc(request));
        assert!(
            matches!(reply, WireResponse::Err(_)),
            "{shown} answered {reply:?}"
        );
        // The same connection, the same process: the next lookup is served.
        let reply = exchange(WireRequest::Rpc(lookup_of_nothing()));
        assert!(
            matches!(&reply, WireResponse::Rpc(Response::Found { results }) if matches!(results[..], [None])),
            "after {shown}: {reply:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn backends_agree_on_everything_but_time(
        token_docs in arb_docs(),
        queries in arb_queries(),
        dfmax in 1u32..5,
        smax in 1usize..5,
        peers in 1usize..4,
        replication in 1usize..4,
        hosts in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let collection = make_collection(&token_docs);
        let config = HdkConfig {
            dfmax,
            smax,
            window: 5,
            ff: u64::MAX,
            exact_intrinsic: false,
            redundancy_filtering: true,
            // R can exceed the peer count: placement caps at the live
            // population, and the backends must still agree.
            replication,
            hot_threshold: 0,
            hot_extra: 1,
            store: hdk_core::StoreConfig::from_env(),
            codec: hdk_core::Codec::Leb128,
            gossip: hdk_p2p::GossipConfig::default(),
        };
        // The acceptance configuration: zero latency, zero drop.
        check_equivalent(&collection, &queries, &config, peers, SimNetConfig::zero())?;
        // And a hostile one: jitter, slow links, 20% loss — counts still
        // must not move (loss costs time, not messages).
        check_equivalent(&collection, &queries, &config, peers, SimNetConfig {
            seed,
            hop_ns: 350_000,
            jitter_ns: 120_000,
            ns_per_byte: 12,
            drop_prob: 0.2,
            timeout_ns: 5_000_000,
        })?;
        // And real framing, scatter and fold, minus the sockets.
        check_loopback_equivalent(&collection, &queries, &config, peers, hosts)?;
    }
}
