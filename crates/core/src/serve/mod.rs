//! The real serving tier: wire-protocol transport, multi-process peer
//! hosting, and an HTTP/JSON query front-end.
//!
//! The engine's one seam is `Request`/`Control` → `Response`
//! (`hdk_p2p::rpc`), and one handler answers it for every backend. This
//! tier adds nothing to that seam — it only carries it between processes:
//!
//! - [`codec`] — the frames: [`WireRequest`]/[`WireResponse`] wrap the
//!   seam's messages (plus handshake, meter, health, shutdown) in
//!   `hdk_p2p::wire`'s checksummed frames; every encoding is derived
//!   from one declaration per type. Malformed input decodes to an
//!   error, never a panic (`crates/core/tests/prop_wire.rs`).
//! - [`peer`] — [`PeerHost`], the peer-process side:
//!   [`PeerHost::handle`] maps a request frame to a reply frame over an
//!   in-process backend hosting this process's share of the DHT stripes
//!   (`stripe % nprocs == proc_index`), behind a thread-per-connection
//!   server (buffered frame reads, one write per reply) with graceful
//!   drain-and-sync shutdown.
//! - [`net`] — [`TcpNet`], the delivery policy: per message one scatter
//!   rule (by stripe owner / every process / one process) over pooled
//!   persistent connections — every frame written, then every reply
//!   read, on the calling thread — with per-request timeouts and bounded
//!   reconnects, and one fold of the replies. A dead peer surfaces as
//!   an error, never a hang.
//! - [`http`] — a minimal HTTP/1.1 front-end over [`QueryService`]:
//!   `GET /query`, `GET /health`, and Prometheus `GET /metrics`; a
//!   bounded request head, one write per reply.
//!
//! Adding a message touches none of this (unless it needs a scatter rule
//! of its own): see `hdk_p2p::rpc`.
//!
//! The whole tier preserves the repo's bit-identical contract: the same
//! corpus built through `nprocs` peer processes returns byte-identical
//! top-k score bits and `same_counts`-equal traffic to the in-process
//! build (`tests/serving_multiproc.rs`).
//!
//! [`QueryService`]: crate::engine::QueryService

pub mod codec;
pub mod http;
pub mod net;
pub mod peer;

pub use codec::{IndexRequest, IndexResponse, WireRequest, WireResponse, WIRE_VERSION};
pub use http::{spawn as spawn_http, HttpHandle};
pub use net::{Fleet, TcpNet};
pub use peer::{PeerConfig, PeerHost};
