//! Compressed posting blocks — the *resident* posting format.
//!
//! [`CompressedPostings`] keeps a posting list as an encoded block that
//! also travels over the wire, plus a small skip header (count, max doc)
//! held in struct fields so the common questions — `len()`, `max_doc()`,
//! `encoded_len()` — never touch the block. The same bytes therefore
//! serve storage, wire transfer and the query cache.
//!
//! A block of at most [`INLINE_BYTES`] sits inside its struct, which is
//! 32 bytes either way: an index keeps a great many keys with a few
//! postings each, and most of their blocks fit. A longer block is one
//! shared heap slice, so cloning it is a reference-count bump; cloning an
//! inline block copies its 32 bytes. Which of the two a block is follows
//! from its length alone.
//!
//! The block is delta + LEB128 ([`crate::codec`]): `varint(count)` then per
//! posting `varint(doc_gap) varint(tf) varint(doc_len)`, first gap
//! `doc + 1`. The empty block is exactly `[0x00]`; a non-empty block never
//! starts with a zero byte (its minimal count varint is nonzero), so any
//! longer buffer that does is rejected as trailing garbage.
//!
//! Mutation happens by *sorted streaming merge*: an incoming batch is
//! merged gap-stream to gap-stream into a fresh block without ever
//! materializing a `Vec<Posting>` ([`CompressedPostings::merge_counting`]),
//! and NDK truncation re-encodes the surviving top-`k`
//! ([`CompressedPostings::truncate_top_k`]). Both reproduce the semantics
//! of [`PostingList::union`] / [`PostingList::truncate_top_k`] bit for
//! bit. A batch that lies strictly beyond `max_doc` (the hot insert shape:
//! ascending document ids) skips the decode/re-encode cycle entirely and
//! appends by copying the resident bytes, re-coding only the incoming
//! block's first gap — producing exactly the bytes the streaming merge
//! would. Every path writes into a per-thread scratch buffer and copies
//! the finished block once into its final place: a block that fits inline
//! costs no allocation, a longer one exactly one.
//!
//! [`CompressedDocSet`] is the companion document-id set (same layout, no
//! payloads) that replaces hash-set bookkeeping where only membership
//! matters — e.g. exact `df` counting after truncation.

use crate::codec::{read_varint, varint_len, write_varint, write_varint_to_slice, Codec};
use crate::posting::{Posting, PostingList};
use hdk_corpus::DocId;
use std::cell::Cell;
use std::sync::Arc;

/// Encoded bytes a block may have and still sit inside its struct: with
/// its length byte and the representation's tag it takes the 24 bytes
/// that a shared slice's pointer, length and tag take anyway.
pub const INLINE_BYTES: usize = 22;

/// The reference counts in front of a shared slice's bytes.
const ARC_HEADER_BYTES: usize = 2 * std::mem::size_of::<usize>();

/// A framed block's bytes: inline up to [`INLINE_BYTES`], one shared
/// heap slice beyond. The length alone picks the representation, so equal
/// bytes are always held the same way.
#[derive(Clone)]
enum Block {
    Inline { len: u8, bytes: [u8; INLINE_BYTES] },
    Shared(Arc<[u8]>),
}

impl Block {
    /// `varint(0)`: the empty posting block and the empty doc-set.
    const EMPTY: Block = Block::Inline {
        len: 1,
        bytes: [0; INLINE_BYTES],
    };

    /// Holds a copy of `encoded`.
    fn new(encoded: &[u8]) -> Self {
        if encoded.len() <= INLINE_BYTES {
            let mut bytes = [0; INLINE_BYTES];
            bytes[..encoded.len()].copy_from_slice(encoded);
            Block::Inline {
                len: encoded.len() as u8,
                bytes,
            }
        } else {
            Block::Shared(Arc::from(encoded))
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            Block::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Block::Shared(bytes) => bytes,
        }
    }

    /// The stream after the `varint(count)` header.
    fn body(&self, count: u32) -> &[u8] {
        &self.as_slice()[varint_len(u64::from(count))..]
    }

    /// Heap bytes the block owns: none inline, the slice with its
    /// reference counts otherwise.
    fn heap_bytes(&self) -> usize {
        self.stored().heap_bytes()
    }

    #[inline]
    fn stored(&self) -> StoredBlock<'_> {
        match self {
            Block::Inline { len, bytes } => StoredBlock::Inline(&bytes[..usize::from(*len)]),
            Block::Shared(bytes) => StoredBlock::Shared(bytes),
        }
    }

    #[inline]
    fn from_stored(stored: StoredBlock<'_>) -> Self {
        match stored {
            StoredBlock::Inline(bytes) => Block::new(bytes),
            StoredBlock::Shared(bytes) => Block::Shared(Arc::clone(bytes)),
        }
    }
}

/// The one validator of untrusted blocks: `buf` must be exactly one framed
/// block whose entries each carry `payloads` `u32` varints after their doc
/// gap (2 for postings, 0 for a doc-set). Returns its count and max doc (0
/// when empty); allocates nothing. A sealed read validates the doc-set it
/// carries, which no lookup reads, so a doc-set's gaps are taken eight at
/// a time while each is one byte, 1 to 127 documents apart.
fn check_block(buf: &[u8], payloads: usize) -> Option<(u32, u32)> {
    /// One past the largest document id.
    const END: u64 = 1 << 32;
    const HIGH_BITS: u64 = 0x8080_8080_8080_8080;
    const BYTE_PAIRS: u64 = 0x00ff_00ff_00ff_00ff;
    let mut pos = 0usize;
    let count = u32::try_from(read_varint(buf, &mut pos)?).ok()?;
    // The sum of the gaps so far: one past the last document.
    let (mut end, mut left) = (0u64, count);
    while left > 0 {
        let word = (buf.get(pos..pos + 8).filter(|_| payloads == 0 && left >= 8))
            .and_then(|word| word.try_into().ok())
            .map_or(HIGH_BITS, u64::from_le_bytes);
        // No continuation bit and no zero byte: eight one-byte gaps.
        if word & HIGH_BITS == 0
            && word.wrapping_sub(0x0101_0101_0101_0101) & !word & HIGH_BITS == 0
        {
            let pairs = (word & BYTE_PAIRS) + (word >> 8 & BYTE_PAIRS);
            end += pairs.wrapping_mul(0x0001_0001_0001_0001) >> 48;
            (pos, left) = (pos + 8, left - 8);
        } else {
            // A gap beyond `END` cannot land on a u32 doc id; refusing it
            // first keeps the sum from overflowing.
            let gap = read_varint(buf, &mut pos).filter(|&gap| gap != 0 && gap <= END)?;
            end += gap;
            for _ in 0..payloads {
                u32::try_from(read_varint(buf, &mut pos)?).ok()?;
            }
            left -= 1;
        }
        if end > END {
            return None;
        }
    }
    // Trailing garbage is corruption.
    (pos == buf.len()).then_some((count, end.saturating_sub(1) as u32))
}

/// A block's bytes as a store keeps them outside the block: bytes that sit
/// in the store's own record, copied when the block is rebuilt, or a long
/// block's shared slice, rebuilt with a reference-count bump.
#[derive(Clone, Copy, Debug)]
pub enum StoredBlock<'a> {
    /// Bytes in a record: at most [`INLINE_BYTES`] in a hot-tier record,
    /// any number in a flat one (a sealed frame's or the wire's).
    Inline(&'a [u8]),
    /// More than [`INLINE_BYTES`] bytes.
    Shared(&'a Arc<[u8]>),
}

impl<'a> StoredBlock<'a> {
    /// The framed block.
    #[inline]
    pub fn bytes(self) -> &'a [u8] {
        match self {
            StoredBlock::Inline(bytes) => bytes,
            StoredBlock::Shared(bytes) => bytes,
        }
    }

    /// Heap bytes the block owns once rebuilt (see
    /// [`CompressedPostings::heap_bytes`]).
    #[inline]
    pub fn heap_bytes(self) -> usize {
        match self {
            StoredBlock::Inline(_) => 0,
            StoredBlock::Shared(bytes) => ARC_HEADER_BYTES + bytes.len(),
        }
    }

    /// Entries in the block: its count header.
    #[inline]
    pub fn count(self) -> u32 {
        read_varint(self.bytes(), &mut 0).map_or(0, |n| n as u32)
    }
}

impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Block {}

/// Bytes reserved in front of a block being written, for its count
/// header: the longest varint of a `u32`.
const HEADER_ROOM: usize = 5;

/// A thread's scratch buffer grown past this is released once its block
/// is written: only short blocks are worth keeping a buffer for.
const KEPT_SCRATCH_BYTES: usize = 64 << 10;

thread_local! {
    /// This thread's buffer for blocks being written, reused block to
    /// block. A nested writer finds it taken and starts an empty one.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// The one writer of posting blocks and doc-sets. Entries go into the
/// thread's scratch buffer after [`HEADER_ROOM`] bytes — each a doc gap,
/// a posting's `tf` and `doc_len` after it — and finishing puts the count
/// header right in front of them and copies the framed block once, into
/// its [`Block`].
struct Encoder {
    buf: Vec<u8>,
    count: u32,
    /// The last document written; -1 before the first.
    prev: i64,
}

impl Encoder {
    fn new() -> Self {
        let mut buf = SCRATCH.take();
        buf.clear();
        buf.extend_from_slice(&[0; HEADER_ROOM]);
        Self {
            buf,
            count: 0,
            prev: -1,
        }
    }

    /// Continues after the `count` entries of `block`, whose last document
    /// is `max_doc`: the written stream is copied as it is, not re-coded.
    fn resume(block: &Block, count: u32, max_doc: u32) -> Self {
        let mut enc = Self::new();
        enc.extend_coded(block.body(count), count, max_doc);
        enc
    }

    /// Appends `count` entries already coded relative to the last document
    /// written, the last of them `last`: a byte copy, not a re-coding.
    fn extend_coded(&mut self, coded: &[u8], count: u32, last: u32) {
        self.buf.extend_from_slice(coded);
        if count > 0 {
            self.count += count;
            self.prev = i64::from(last);
        }
    }

    /// Starts the next entry with its gap from the previous document.
    fn doc(&mut self, doc: DocId) {
        let gap = i64::from(doc.0) - self.prev;
        debug_assert!(gap > 0, "documents must arrive strictly ascending");
        write_varint(&mut self.buf, gap as u64);
        self.prev = i64::from(doc.0);
        self.count += 1;
    }

    fn posting(&mut self, p: Posting) {
        self.doc(p.doc);
        write_varint(&mut self.buf, u64::from(p.tf));
        write_varint(&mut self.buf, u64::from(p.doc_len));
    }

    /// The framed block, its entry count and its last document (0 when
    /// empty).
    fn finish(mut self) -> (Block, u32, u32) {
        let start = HEADER_ROOM - varint_len(u64::from(self.count));
        write_varint_to_slice(&mut self.buf[start..], u64::from(self.count));
        let block = Block::new(&self.buf[start..]);
        if self.buf.capacity() <= KEPT_SCRATCH_BYTES {
            SCRATCH.set(std::mem::take(&mut self.buf));
        }
        (block, self.count, self.prev.max(0) as u32)
    }

    fn postings(self) -> CompressedPostings {
        let (block, count, max_doc) = self.finish();
        CompressedPostings {
            block,
            count,
            max_doc,
        }
    }

    fn doc_set(self) -> CompressedDocSet {
        let (block, count, max_doc) = self.finish();
        CompressedDocSet {
            block,
            count,
            max_doc,
        }
    }
}

/// A posting list stored as its framed encoded block.
///
/// Invariants: the block is well-formed (validated on every untrusted
/// construction path), documents are strictly ascending, and `count` /
/// `max_doc` mirror the block contents.
#[derive(Clone, PartialEq, Eq)]
pub struct CompressedPostings {
    /// The framed block — byte-identical to the wire payload, so wire
    /// size and encoded size are the same number.
    block: Block,
    /// Number of postings (skip header).
    count: u32,
    /// Largest document id in the block; meaningful when `count > 0`.
    max_doc: u32,
}

impl CompressedPostings {
    /// An empty block (`varint(0)` only, inline) — the default value of
    /// every fresh DHT entry.
    pub const fn new() -> Self {
        Self {
            block: Block::EMPTY,
            count: 0,
            max_doc: 0,
        }
    }

    /// Encodes a decoded posting list.
    pub fn from_list(list: &PostingList) -> Self {
        Self::from_postings(list.postings())
    }

    /// [`CompressedPostings::from_list`]; the codec argument is ignored.
    /// Kept only so the frozen `benchmark/` crate compiles.
    pub fn from_list_with(list: &PostingList, _codec: Codec) -> Self {
        Self::from_list(list)
    }

    /// Encodes postings that are strictly ascending by document — the
    /// sending peer encodes one block per key it emits.
    ///
    /// # Panics
    /// Panics (debug) if the documents are not strictly ascending.
    pub fn from_postings(postings: &[Posting]) -> Self {
        let mut enc = Encoder::new();
        for &p in postings {
            enc.posting(p);
        }
        enc.postings()
    }

    /// Validates and adopts a copy of an encoded block (e.g. received off
    /// the wire).
    ///
    /// Returns `None` unless the *entire* buffer is one well-formed block:
    /// a decodable prefix followed by trailing garbage is rejected.
    pub fn from_bytes(buf: &[u8]) -> Option<Self> {
        let (count, max_doc) = check_block(buf, 2)?;
        Some(Self {
            block: Block::new(buf),
            count,
            max_doc,
        })
    }

    /// Validates an encoded block without adopting it: its max doc (0 when
    /// empty), or `None` for every buffer [`CompressedPostings::from_bytes`]
    /// refuses.
    pub fn check(buf: &[u8]) -> Option<u32> {
        check_block(buf, 2).map(|(_, max_doc)| max_doc)
    }

    /// Number of postings — the stored document frequency. O(1).
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when no document is listed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest document id, without decoding. O(1).
    pub fn max_doc(&self) -> Option<DocId> {
        (self.count > 0).then_some(DocId(self.max_doc))
    }

    /// Smallest document id: the block's first posting. O(1).
    pub fn min_doc(&self) -> Option<DocId> {
        self.iter().next().map(|p| p.doc)
    }

    /// Size of the block in bytes — the wire payload size, and what the
    /// store weighs the entry by. O(1).
    pub fn encoded_len(&self) -> usize {
        self.block.as_slice().len()
    }

    /// Heap bytes the block owns beyond its struct: 0 for a block that
    /// sits inline, the encoded bytes with their reference counts
    /// otherwise.
    pub fn heap_bytes(&self) -> usize {
        self.block.heap_bytes()
    }

    /// The encoded block (the exact wire payload).
    pub fn as_bytes(&self) -> &[u8] {
        self.block.as_slice()
    }

    /// The block's bytes as a store keeps them apart from the block.
    #[inline]
    pub fn stored(&self) -> StoredBlock<'_> {
        self.block.stored()
    }

    /// Rebuilds a block from what [`CompressedPostings::stored`] handed
    /// out and its [`CompressedPostings::max_doc`] (0 when empty). The
    /// bytes are trusted, not validated: they must come from a block.
    #[inline]
    pub fn from_stored(stored: StoredBlock<'_>, max_doc: u32) -> Self {
        Self {
            count: stored.count(),
            block: Block::from_stored(stored),
            max_doc,
        }
    }

    /// Streaming decode: yields postings in ascending-doc order without
    /// materializing the list.
    pub fn iter(&self) -> BlockIter<'_> {
        BlockIter {
            buf: self.block.body(self.count),
            pos: 0,
            remaining: self.count,
            prev: -1,
        }
    }

    /// Document ids only, ascending.
    pub fn docs(&self) -> impl Iterator<Item = DocId> + '_ {
        self.iter().map(|p| p.doc)
    }

    /// Streaming membership scan with an O(1) `max_doc` early-out.
    pub fn contains_doc(&self, doc: DocId) -> bool {
        if self.count == 0 || doc.0 > self.max_doc {
            return false;
        }
        for p in self.iter() {
            if p.doc >= doc {
                return p.doc == doc;
            }
        }
        false
    }

    /// Fully materializes the block (tests, reference comparisons).
    pub fn decode(&self) -> PostingList {
        PostingList::from_sorted(self.iter().collect())
    }

    /// Sorted streaming merge of an incoming batch into a fresh block.
    ///
    /// Semantics match [`PostingList::union`]: on a common document the
    /// `tf`s add (saturating) and the resident (left) `doc_len` wins. Also
    /// returns how
    /// many of `incoming`'s documents were *not* already present — exactly
    /// the `df` increment when the resident list is complete.
    ///
    /// A batch strictly beyond `max_doc` takes
    /// `CompressedPostings::append_tail` — a byte copy instead of a
    /// decode/re-encode cycle — with bytes identical to what this
    /// streaming merge would produce.
    pub fn merge_counting(&self, incoming: &CompressedPostings) -> (CompressedPostings, u32) {
        let Some(first) = incoming.min_doc() else {
            return (self.clone(), 0);
        };
        if self.is_empty() {
            return (incoming.clone(), incoming.count);
        }
        if first.0 > self.max_doc {
            return (self.append_tail(incoming, first), incoming.count);
        }
        let mut enc = Encoder::new();
        let mut new_docs = 0u32;
        let mut a = self.iter().peekable();
        let mut b = incoming.iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(&pa), Some(&pb)) => match pa.doc.cmp(&pb.doc) {
                    std::cmp::Ordering::Less => {
                        enc.posting(pa);
                        a.next();
                    }
                    std::cmp::Ordering::Greater => {
                        enc.posting(pb);
                        new_docs += 1;
                        b.next();
                    }
                    std::cmp::Ordering::Equal => {
                        enc.posting(Posting {
                            doc: pa.doc,
                            tf: pa.tf.saturating_add(pb.tf),
                            doc_len: pa.doc_len,
                        });
                        a.next();
                        b.next();
                    }
                },
                (Some(&pa), None) => {
                    enc.posting(pa);
                    a.next();
                }
                (None, Some(&pb)) => {
                    enc.posting(pb);
                    new_docs += 1;
                    b.next();
                }
                (None, None) => break,
            }
        }
        (enc.postings(), new_docs)
    }

    /// Append-only merge fast path: both blocks are non-empty and
    /// `incoming` — whose first document is `first` — lies strictly beyond
    /// `max_doc`, so the resident bytes are reusable verbatim and only
    /// `incoming`'s first gap — relative to `-1` inside its own block,
    /// relative to `max_doc` in the merge — needs re-coding. Everything
    /// after that first gap is a straight byte copy of `incoming`'s tail.
    fn append_tail(&self, incoming: &CompressedPostings, first: DocId) -> CompressedPostings {
        let tail = incoming.block.body(incoming.count);
        let mut pos = 0usize;
        let _ = read_varint(tail, &mut pos); // incoming first gap — replaced
        let mut enc = Encoder::resume(&self.block, self.count, self.max_doc);
        enc.doc(first);
        enc.extend_coded(&tail[pos..], incoming.count - 1, incoming.max_doc);
        enc.postings()
    }

    /// Keeps the `k` highest-`quality` postings, re-encoded in doc order —
    /// the semantics of [`PostingList::truncate_top_k`] (ties break towards
    /// smaller doc ids; result re-sorted by doc).
    pub fn truncate_top_k<F: Fn(&Posting) -> f64>(&self, k: usize, quality: F) -> Self {
        if self.len() <= k {
            return self.clone();
        }
        let mut scored: Vec<(f64, Posting)> = self.iter().map(|p| (quality(&p), p)).collect();
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("quality scores are finite")
                .then(a.1.doc.cmp(&b.1.doc))
        });
        scored.truncate(k);
        let mut kept: Vec<Posting> = scored.into_iter().map(|(_, p)| p).collect();
        kept.sort_unstable_by_key(|p| p.doc);
        Self::from_postings(&kept)
    }
}

impl Default for CompressedPostings {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CompressedPostings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedPostings")
            .field("count", &self.count)
            .field("bytes", &self.encoded_len())
            .finish()
    }
}

impl<'a> IntoIterator for &'a CompressedPostings {
    type Item = Posting;
    type IntoIter = BlockIter<'a>;
    fn into_iter(self) -> BlockIter<'a> {
        self.iter()
    }
}

/// Streaming decoder over a validated block's postings.
pub struct BlockIter<'a> {
    buf: &'a [u8],
    pos: usize,
    remaining: u32,
    prev: i64,
}

impl Iterator for BlockIter<'_> {
    type Item = Posting;

    fn next(&mut self) -> Option<Posting> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // The block was validated when constructed, so the reads succeed.
        let doc = self.prev + read_varint(self.buf, &mut self.pos)? as i64;
        let tf = read_varint(self.buf, &mut self.pos)? as u32;
        let doc_len = read_varint(self.buf, &mut self.pos)? as u32;
        self.prev = doc;
        Some(Posting {
            doc: DocId(doc as u32),
            tf,
            doc_len,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }

    /// Internal-iteration specialization: decoder state held in locals
    /// (registers) instead of behind `&mut self` — this is the streamed
    /// rank loop ([`crate::ScoreAccumulator::accumulate_block`]).
    /// `for_each`, `map(..).sum()` and friends all route through `fold`;
    /// semantics and order match `next()` exactly.
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, Posting) -> B,
    {
        let mut acc = init;
        let mut prev = self.prev;
        let (buf, mut pos) = (self.buf, self.pos);
        for _ in 0..self.remaining {
            // Validated at construction: the reads cannot fail.
            let Some(gap) = read_varint(buf, &mut pos) else {
                break;
            };
            let Some(tf) = read_varint(buf, &mut pos) else {
                break;
            };
            let Some(doc_len) = read_varint(buf, &mut pos) else {
                break;
            };
            prev += gap as i64;
            acc = f(
                acc,
                Posting {
                    doc: DocId(prev as u32),
                    tf: tf as u32,
                    doc_len: doc_len as u32,
                },
            );
        }
        acc
    }
}

impl ExactSizeIterator for BlockIter<'_> {}

/// A compressed set of document ids: `varint(count)` + `varint(gap)`
/// stream with first gap `doc + 1`. The storage-side replacement for
/// per-key `HashSet<u32>` bookkeeping — ~1–2 bytes per document instead of
/// 4 plus hash-table overhead — supporting exact incremental `df` counting
/// via [`CompressedDocSet::merge_count_new`]. Held like a posting block:
/// inline when short, one shared slice otherwise.
#[derive(Clone, PartialEq, Eq)]
pub struct CompressedDocSet {
    block: Block,
    count: u32,
    max_doc: u32,
}

impl CompressedDocSet {
    /// The empty set.
    pub const fn new() -> Self {
        Self {
            block: Block::EMPTY,
            count: 0,
            max_doc: 0,
        }
    }

    /// Builds from strictly-ascending document ids.
    pub fn from_sorted_docs<I: IntoIterator<Item = DocId>>(docs: I) -> Self {
        let mut enc = Encoder::new();
        for d in docs {
            enc.doc(d);
        }
        enc.doc_set()
    }

    /// The documents of a posting block (streaming, no materialization).
    pub fn from_postings(postings: &CompressedPostings) -> Self {
        Self::from_sorted_docs(postings.docs())
    }

    /// Number of documents in the set. O(1).
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Encoded bytes of the set. O(1).
    pub fn encoded_len(&self) -> usize {
        self.block.as_slice().len()
    }

    /// Heap bytes the set's block owns (see
    /// [`CompressedPostings::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.block.heap_bytes()
    }

    /// The encoded block — what the segment log persists for a sealed
    /// entry's doc-set.
    pub fn as_bytes(&self) -> &[u8] {
        self.block.as_slice()
    }

    /// Largest document id (0 when empty). O(1).
    #[inline]
    pub fn max_doc(&self) -> u32 {
        self.max_doc
    }

    /// The set's bytes as a store keeps them apart from the set.
    #[inline]
    pub fn stored(&self) -> StoredBlock<'_> {
        self.block.stored()
    }

    /// Rebuilds a set from what [`CompressedDocSet::stored`] handed out
    /// and its [`CompressedDocSet::max_doc`]; trusted, like
    /// [`CompressedPostings::from_stored`].
    #[inline]
    pub fn from_stored(stored: StoredBlock<'_>, max_doc: u32) -> Self {
        Self {
            count: stored.count(),
            block: Block::from_stored(stored),
            max_doc,
        }
    }

    /// Validates and adopts a copy of an encoded block (e.g. replayed from
    /// a segment log). Mirrors [`CompressedPostings::from_bytes`]: the
    /// *entire* buffer must be one well-formed block; a decodable prefix
    /// followed by trailing garbage is rejected.
    pub fn from_bytes(buf: &[u8]) -> Option<Self> {
        let (count, max_doc) = check_block(buf, 0)?;
        Some(Self {
            block: Block::new(buf),
            count,
            max_doc,
        })
    }

    /// Validates an encoded set without adopting it, like
    /// [`CompressedPostings::check`].
    pub fn check(buf: &[u8]) -> Option<u32> {
        check_block(buf, 0).map(|(_, max_doc)| max_doc)
    }

    /// Streaming iteration, ascending.
    pub fn iter(&self) -> impl Iterator<Item = DocId> + '_ {
        DocSetIter {
            buf: self.block.body(self.count),
            pos: 0,
            remaining: self.count,
            prev: -1,
        }
    }

    /// Streaming membership with `max_doc` early-out.
    pub fn contains(&self, doc: DocId) -> bool {
        if self.count == 0 || doc.0 > self.max_doc {
            return false;
        }
        for d in self.iter() {
            if d >= doc {
                return d == doc;
            }
        }
        false
    }

    /// Merges a strictly-ascending batch of document ids into the set and
    /// returns how many were new — the exact `df` increment.
    ///
    /// Cost is kept proportional to the work actually required: a batch of
    /// re-announced documents (nothing new) costs one counting scan that
    /// stops as soon as the batch is classified; a batch strictly beyond
    /// `max_doc` appends by copying the body bytes (no re-coding); only an
    /// interleaved batch pays the full merge re-encode.
    pub fn merge_count_new<I: IntoIterator<Item = DocId>>(&mut self, batch: I) -> u32 {
        let batch: Vec<DocId> = batch.into_iter().collect();
        debug_assert!(
            batch.windows(2).all(|w| w[0] < w[1]),
            "batch doc ids must be strictly ascending"
        );
        let Some(&batch_min) = batch.first() else {
            return 0;
        };
        // Append fast path: everything in the batch is beyond the block,
        // so the existing gap stream is reusable as-is (byte copy, no
        // re-coding).
        if self.count == 0 || batch_min.0 > self.max_doc {
            let mut enc = Encoder::resume(&self.block, self.count, self.max_doc);
            for &d in &batch {
                enc.doc(d);
            }
            *self = enc.doc_set();
            return batch.len() as u32;
        }
        // Counting scan, terminating once every batch doc is classified.
        let mut new_docs = 0u32;
        let mut bi = 0usize;
        for d in self.iter() {
            while bi < batch.len() && batch[bi] < d {
                new_docs += 1;
                bi += 1;
            }
            if bi == batch.len() {
                break;
            }
            if batch[bi] == d {
                bi += 1;
            }
        }
        new_docs += (batch.len() - bi) as u32;
        if new_docs == 0 {
            return 0; // pure re-announcement: the block already covers it
        }
        // Full merge re-encode.
        let mut enc = Encoder::new();
        {
            let mut a = self.iter().peekable();
            let mut b = batch.iter().copied().peekable();
            loop {
                match (a.peek(), b.peek()) {
                    (Some(&da), Some(&db)) => match da.cmp(&db) {
                        std::cmp::Ordering::Less => {
                            enc.doc(da);
                            a.next();
                        }
                        std::cmp::Ordering::Greater => {
                            enc.doc(db);
                            b.next();
                        }
                        std::cmp::Ordering::Equal => {
                            enc.doc(da);
                            a.next();
                            b.next();
                        }
                    },
                    (Some(&da), None) => {
                        enc.doc(da);
                        a.next();
                    }
                    (None, Some(&db)) => {
                        enc.doc(db);
                        b.next();
                    }
                    (None, None) => break,
                }
            }
        }
        *self = enc.doc_set();
        new_docs
    }
}

impl Default for CompressedDocSet {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CompressedDocSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedDocSet")
            .field("count", &self.count)
            .field("bytes", &self.encoded_len())
            .finish()
    }
}

struct DocSetIter<'a> {
    buf: &'a [u8],
    pos: usize,
    remaining: u32,
    prev: i64,
}

impl Iterator for DocSetIter<'_> {
    type Item = DocId;

    fn next(&mut self) -> Option<DocId> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let doc = self.prev + read_varint(self.buf, &mut self.pos)? as i64;
        self.prev = doc;
        Some(DocId(doc as u32))
    }
}

// A posting block's handle is 32 bytes whether it holds its block inline
// or shares it: the 24-byte block plus count and `max_doc`.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<CompressedPostings>() == 32);
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<CompressedDocSet>() == 32);

#[cfg(test)]
mod tests {
    use super::*;

    fn p(doc: u32, tf: u32) -> Posting {
        Posting {
            doc: DocId(doc),
            tf,
            doc_len: 100 + doc % 50,
        }
    }

    fn list(docs: &[(u32, u32)]) -> PostingList {
        PostingList::from_unsorted(docs.iter().map(|&(d, tf)| p(d, tf)).collect())
    }

    #[test]
    fn roundtrip_matches_reference() {
        let l = list(&[(0, 1), (7, 3), (128, 2), (70_000, 9)]);
        let c = CompressedPostings::from_list(&l);
        assert_eq!(c.len(), 4);
        assert_eq!(c.max_doc(), Some(DocId(70_000)));
        assert_eq!(c.min_doc(), Some(DocId(0)));
        assert_eq!(c.decode(), l);
        assert_eq!(c.iter().collect::<Vec<_>>(), l.postings());
    }

    #[test]
    fn block_matches_codec_wire_format() {
        let l = list(&[(3, 1), (90, 5), (4_000, 2)]);
        let c = CompressedPostings::from_list(&l);
        // `[count]`, then `[doc gap][tf][doc_len]` a posting, each a LEB128
        // varint; the first gap is the doc id plus one.
        let wire = [3, 4, 1, 103, 87, 5, 0x8c, 0x01, 0xc6, 0x1e, 2, 100];
        assert_eq!(c.as_bytes(), wire);
        assert_eq!(c.encoded_len(), wire.len());
    }

    #[test]
    fn empty_block() {
        let c = CompressedPostings::new();
        assert!(c.is_empty());
        assert_eq!(c.max_doc(), None);
        assert_eq!(c.min_doc(), None);
        assert_eq!(c.encoded_len(), 1);
        assert_eq!(c.heap_bytes(), 0);
        assert_eq!(c.as_bytes(), &[0x00]);
        assert_eq!(c.decode(), PostingList::new());
        assert_eq!(CompressedPostings::from_list(&PostingList::new()), c);
    }

    #[test]
    fn retired_extended_header_is_rejected() {
        // `[3 → tf 1, doc_len 103]` exactly as the retired group-varint
        // codec framed it: a `0x00` marker, codec tag `0x01`, count 1, then
        // one tag byte and three one-byte values. A zero count followed by
        // anything is trailing garbage now, for postings and doc-sets alike.
        let retired = [0x00, 0x01, 0x01, 0x00, 0x03, 0x01, 0x67];
        for raw in [
            &retired[..],
            &[0x00, 0x01, 0x00],
            &[0x00, 0x02],
            &[0x00, 0x7f],
        ] {
            assert!(CompressedPostings::from_bytes(raw).is_none(), "{raw:?}");
            assert!(CompressedDocSet::from_bytes(raw).is_none());
        }
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let c = CompressedPostings::from_list(&list(&[(1, 1), (2, 2)]));
        let mut raw = c.as_bytes().to_vec();
        assert!(CompressedPostings::from_bytes(&raw).is_some());
        raw.push(0x7f);
        assert!(CompressedPostings::from_bytes(&raw).is_none());
    }

    #[test]
    fn from_bytes_rejects_truncation() {
        let c = CompressedPostings::from_list(&list(&[(1, 1), (300, 2), (500, 3)]));
        let raw = c.as_bytes();
        for cut in 0..raw.len() {
            assert!(
                CompressedPostings::from_bytes(&raw[..cut]).is_none(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn from_bytes_roundtrips_codec_tag() {
        // The block is self-describing: adoption re-derives every header
        // field from the bytes alone.
        let c = CompressedPostings::from_list(&list(&[(5, 2), (640, 1), (70_000, 4)]));
        let revived = CompressedPostings::from_bytes(c.as_bytes()).unwrap();
        assert_eq!(revived, c);
        assert_eq!(revived.min_doc(), Some(DocId(5)));
        assert_eq!(revived.max_doc(), Some(DocId(70_000)));
    }

    #[test]
    fn merge_counting_matches_union() {
        let a = list(&[(1, 2), (5, 1), (9, 4)]);
        let b = list(&[(2, 1), (5, 3), (11, 2)]);
        let (merged, new_docs) =
            CompressedPostings::from_list(&a).merge_counting(&CompressedPostings::from_list(&b));
        assert_eq!(merged.decode(), a.union(&b));
        assert_eq!(new_docs, 2, "docs 2 and 11 are new");
    }

    #[test]
    fn merge_with_empty_is_identity_and_counts() {
        let a = CompressedPostings::from_list(&list(&[(3, 1), (8, 2)]));
        let (m1, n1) = a.merge_counting(&CompressedPostings::new());
        assert_eq!(m1, a);
        assert_eq!(n1, 0);
        let (m2, n2) = CompressedPostings::new().merge_counting(&a);
        assert_eq!(m2, a);
        assert_eq!(n2, 2);
    }

    #[test]
    fn append_fast_path_matches_streaming_merge() {
        // A batch strictly beyond max_doc takes the byte-copy append path;
        // its bytes must equal the canonical full re-encode at every
        // resident length.
        for resident_len in 1..10u32 {
            let resident: Vec<(u32, u32)> = (0..resident_len).map(|i| (i * 7, i + 1)).collect();
            let batch: Vec<(u32, u32)> = [(0u32, 3u32), (1, 1), (2, 9)]
                .iter()
                .map(|&(d, tf)| (resident_len * 7 + d, tf))
                .collect();
            let a = CompressedPostings::from_list(&list(&resident));
            let b = CompressedPostings::from_list(&list(&batch));
            let (fast, new_docs) = a.merge_counting(&b);
            let all: Vec<(u32, u32)> = resident.iter().chain(batch.iter()).copied().collect();
            let canonical = CompressedPostings::from_list(&list(&all));
            assert_eq!(fast.as_bytes(), canonical.as_bytes(), "at {resident_len}");
            assert_eq!(fast, canonical);
            assert_eq!(new_docs, 3);
        }
    }

    #[test]
    fn truncate_matches_postinglist_reference() {
        let l = list(&[(1, 1), (2, 9), (3, 5), (4, 9), (5, 2)]);
        let q = |p: &Posting| f64::from(p.tf) / (f64::from(p.tf) + 1.2);
        let c = CompressedPostings::from_list(&l).truncate_top_k(3, q);
        assert_eq!(c.decode(), l.truncate_top_k(3, q));
    }

    #[test]
    fn truncate_noop_when_short_shares_block() {
        let c = CompressedPostings::from_list(&list(&[(1, 1)]));
        let t = c.truncate_top_k(5, |p| f64::from(p.tf));
        assert_eq!(t, c);
    }

    #[test]
    fn contains_doc_scans_with_early_out() {
        let c = CompressedPostings::from_list(&list(&[(2, 1), (40, 1), (900, 1)]));
        assert!(c.contains_doc(DocId(2)));
        assert!(c.contains_doc(DocId(900)));
        assert!(!c.contains_doc(DocId(3)));
        assert!(!c.contains_doc(DocId(901)), "beyond max_doc");
    }

    #[test]
    fn u32_max_doc_roundtrips() {
        let l = PostingList::from_sorted(vec![
            Posting {
                doc: DocId(0),
                tf: u32::MAX,
                doc_len: u32::MAX,
            },
            Posting {
                doc: DocId(u32::MAX),
                tf: 1,
                doc_len: 1,
            },
        ]);
        let c = CompressedPostings::from_list(&l);
        assert_eq!(c.decode(), l);
        assert_eq!(c.max_doc(), Some(DocId(u32::MAX)));
        assert_eq!(CompressedPostings::from_bytes(c.as_bytes()).unwrap(), c);
    }

    #[test]
    fn from_bytes_rejects_overflowing_gap() {
        // count=2; first posting valid (doc 1); second gap = i64::MAX —
        // `prev + gap` must reject via the bound check, not overflow.
        let raw: Vec<u8> = vec![
            0x02, // count
            0x02, 0x01, 0x01, // doc 1, tf 1, doc_len 1
            0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, // gap 2^63-1
            0x01, 0x01, // tf, doc_len
        ];
        assert!(CompressedPostings::from_bytes(&raw).is_none());
        // Largest legitimate gap: doc 0 -> doc u32::MAX is u32::MAX exactly;
        // a single posting at u32::MAX uses gap u32::MAX + 1.
        let l = PostingList::from_sorted(vec![p(u32::MAX, 1)]);
        let c = CompressedPostings::from_list(&l);
        assert_eq!(c.decode(), l);
        assert_eq!(CompressedPostings::from_bytes(c.as_bytes()).unwrap(), c);
    }

    #[test]
    fn docset_merge_counts_new_docs_exactly() {
        let mut s = CompressedDocSet::from_sorted_docs([1, 4, 9].map(DocId));
        assert_eq!(s.len(), 3);
        assert_eq!(s.merge_count_new([0, 4, 10].map(DocId)), 2);
        assert_eq!(s.len(), 5);
        assert_eq!(
            s.iter().map(|d| d.0).collect::<Vec<_>>(),
            vec![0, 1, 4, 9, 10]
        );
        // Re-announcing known docs adds nothing.
        assert_eq!(s.merge_count_new([0, 1, 9].map(DocId)), 0);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn docset_append_fast_path_matches_full_merge() {
        // A batch strictly beyond max_doc takes the byte-copy append path;
        // the resulting encoding must equal the canonical full re-encode.
        for resident_len in 0..6u32 {
            let resident: Vec<DocId> = (0..resident_len).map(|i| DocId(i * 3 + 1)).collect();
            let batch = [resident_len * 3 + 2, resident_len * 3 + 90].map(DocId);
            let mut fast = CompressedDocSet::from_sorted_docs(resident.clone());
            assert_eq!(fast.merge_count_new(batch), 2);
            let all: Vec<DocId> = resident.iter().copied().chain(batch).collect();
            let canonical = CompressedDocSet::from_sorted_docs(all);
            assert_eq!(fast, canonical, "at {resident_len}");
            assert_eq!(fast.encoded_len(), canonical.encoded_len());
        }
    }

    #[test]
    fn docset_pure_reannouncement_skips_reencode() {
        let mut s = CompressedDocSet::from_sorted_docs([2, 5, 8, 11].map(DocId));
        let before = s.clone();
        assert_eq!(s.merge_count_new([2, 8].map(DocId)), 0);
        assert_eq!(s, before, "no-new merge must leave the set unchanged");
        assert_eq!(s.merge_count_new(std::iter::empty()), 0);
    }

    #[test]
    fn docset_contains() {
        let s = CompressedDocSet::from_sorted_docs([5, 6, 1000].map(DocId));
        assert!(s.contains(DocId(5)));
        assert!(s.contains(DocId(1000)));
        assert!(!s.contains(DocId(7)));
        assert!(!s.contains(DocId(1001)));
        assert!(!CompressedDocSet::new().contains(DocId(0)));
    }

    #[test]
    fn docset_bytes_roundtrip_and_reject_garbage() {
        let s = CompressedDocSet::from_sorted_docs([0, 3, 70_000, u32::MAX].map(DocId));
        let raw = s.as_bytes();
        assert_eq!(CompressedDocSet::from_bytes(raw).unwrap(), s);
        // Every truncation point fails validation.
        for cut in 0..raw.len() {
            assert!(
                CompressedDocSet::from_bytes(&raw[..cut]).is_none(),
                "cut at {cut} decoded"
            );
        }
        // Trailing garbage fails validation.
        let mut padded = raw.to_vec();
        padded.push(0x01);
        assert!(CompressedDocSet::from_bytes(&padded).is_none());
        // Zero gaps (duplicate docs) fail validation.
        assert!(CompressedDocSet::from_bytes(&[0x02, 0x01, 0x00]).is_none());
        // The empty set roundtrips too.
        let empty = CompressedDocSet::new();
        assert_eq!(empty.as_bytes(), &[0x00]);
        assert_eq!(
            CompressedDocSet::from_bytes(empty.as_bytes()).unwrap(),
            empty
        );
    }

    #[test]
    fn docset_from_postings_matches_docs() {
        let c = CompressedPostings::from_list(&list(&[(3, 2), (77, 1), (300, 4)]));
        let s = CompressedDocSet::from_postings(&c);
        assert_eq!(s.iter().collect::<Vec<_>>(), c.docs().collect::<Vec<_>>());
        assert!(s.encoded_len() < c.encoded_len());
    }
}

#[cfg(test)]
mod timing {
    use super::*;
    use crate::posting::PostingList;
    use hdk_corpus::DocId;

    #[test]
    #[ignore]
    fn block_iter_speed() {
        let mut x = 0x5EEDu64 | 1;
        let mut doc = 0u32;
        let postings: Vec<Posting> = (0..4_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                doc += 1 + (x as u32) % 70_000;
                Posting {
                    doc: DocId(doc),
                    tf: 1 + ((x >> 8) as u32) % 50,
                    doc_len: 60 + ((x >> 16) as u32) % 4_000,
                }
            })
            .collect();
        let block = CompressedPostings::from_list(&PostingList::from_sorted(postings));
        for _ in 0..3 {
            let t = std::time::Instant::now();
            let mut sum = 0u64;
            for _ in 0..200 {
                sum = sum.wrapping_add(
                    block
                        .iter()
                        .map(|p| u64::from(p.doc.0) + u64::from(p.tf) + u64::from(p.doc_len))
                        .sum::<u64>(),
                );
            }
            let ns = t.elapsed().as_secs_f64() / (200.0 * 4_000.0) * 1e9;
            eprintln!("fold {ns:.2} ns/posting (sum {sum})");
        }
    }
}
