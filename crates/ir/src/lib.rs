//! Centralized IR substrate.
//!
//! The paper compares its P2P engine against "a centralized engine with
//! BM25 relevance computation scheme which is currently considered as one of
//! the top performing relevance schemes" (Terrier, Section 5). This crate is
//! that comparator, built from scratch:
//!
//! * [`posting`] — postings and sorted posting lists,
//! * [`codec`] — delta + varint block primitives (one layout for wire *and*
//!   storage),
//! * [`compressed`] — [`CompressedPostings`]/[`CompressedDocSet`], the
//!   resident posting format: the encoded block plus a skip header, decoded
//!   lazily by streaming iteration and never duplicated,
//! * [`index`] — a single-term inverted index with document statistics,
//! * [`bm25`] — the Okapi BM25 weighting scheme,
//! * [`ranker`] — deterministic top-k selection,
//! * [`engine`] — the centralized search engine (the Figure 7 baseline),
//! * [`overlap`] — the top-k overlap metric of Figure 7,
//! * [`segment`] — the checksummed frame of the on-disk segment logs (the
//!   durable form of the same compressed blocks) and of the wire protocol.

pub mod bm25;
pub mod codec;
pub mod compressed;
pub mod engine;
pub mod index;
pub mod overlap;
pub mod posting;
pub mod ranker;
pub mod segment;

pub use bm25::Bm25;
pub use bytes::Bytes;
pub use codec::Codec;
pub use compressed::{CompressedDocSet, CompressedPostings, StoredBlock};
pub use engine::CentralizedEngine;
pub use index::InvertedIndex;
pub use overlap::top_k_overlap;
pub use posting::{Posting, PostingList};
pub use ranker::{top_k, ScoreAccumulator, SearchResult};
pub use segment::{
    checksum64, open_frame, read_frame, write_frame, FrameHeader, FrameRead, FRAME_HEADER_BYTES,
};
