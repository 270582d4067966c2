//! Property tests for the IR substrate: codec round-trips, compressed
//! block algebra vs the `PostingList` reference model, posting-list
//! algebra, top-k selection, and the frame checksum's detection
//! guarantees.

use hdk_corpus::DocId;
use hdk_ir::compressed::INLINE_BYTES;
use hdk_ir::{
    checksum64, top_k, Bm25, CompressedDocSet, CompressedPostings, Posting, PostingList,
    ScoreAccumulator, SearchResult,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A block's size, summed from the LEB128 lengths of its count and of
/// each posting's doc gap, `tf` and `doc_len`.
fn encoded_len(list: &PostingList) -> usize {
    let varint_len = |v: u64| (64 - v.leading_zeros()).max(1).div_ceil(7) as usize;
    let mut prev = None;
    let mut n = varint_len(list.len() as u64);
    for p in list.postings() {
        let gap = prev.map_or(u64::from(p.doc.0) + 1, |prev| u64::from(p.doc.0 - prev));
        n += varint_len(gap) + varint_len(u64::from(p.tf)) + varint_len(u64::from(p.doc_len));
        prev = Some(p.doc.0);
    }
    n
}

fn arb_posting_list() -> impl Strategy<Value = PostingList> {
    prop::collection::btree_map(0u32..5_000, (1u32..100, 1u32..2_000), 0..200).prop_map(|m| {
        PostingList::from_sorted(
            m.into_iter()
                .map(|(doc, (tf, doc_len))| Posting {
                    doc: DocId(doc),
                    tf,
                    doc_len,
                })
                .collect(),
        )
    })
}

/// Like [`arb_posting_list`] but sometimes appends a posting at
/// `doc = u32::MAX` with saturated `tf`/`doc_len` — the integer extremes
/// the varint block must carry losslessly.
fn arb_extreme_posting_list() -> impl Strategy<Value = PostingList> {
    (arb_posting_list(), any::<bool>()).prop_map(|(mut list, extreme)| {
        if extreme {
            list.push(Posting {
                doc: DocId(u32::MAX),
                tf: u32::MAX,
                doc_len: u32::MAX,
            });
        }
        list
    })
}

/// A posting whose doc is `0`, `u32::MAX`, one of a few small ids (so
/// docs repeat within and across blocks) or any `u32`; `tf` may be `0`.
fn arb_any_doc_posting() -> impl Strategy<Value = Posting> {
    (0u8..4, any::<u32>(), 0u32..100, 1u32..2_000).prop_map(|(kind, doc, tf, doc_len)| {
        let doc = match kind {
            0 => 0,
            1 => u32::MAX,
            2 => doc % 48,
            _ => doc,
        };
        Posting {
            doc: DocId(doc),
            tf,
            doc_len,
        }
    })
}

/// Short posting lists whose blocks straddle the inline capacity: 1–7
/// postings of one- and two-byte values encode to 4–43 bytes, against
/// [`INLINE_BYTES`] = 22.
fn arb_boundary_list() -> impl Strategy<Value = PostingList> {
    prop::collection::btree_map(0u32..400, (1u32..200, 1u32..300), 1..8).prop_map(|m| {
        PostingList::from_sorted(
            m.into_iter()
                .map(|(doc, (tf, doc_len))| Posting {
                    doc: DocId(doc),
                    tf,
                    doc_len,
                })
                .collect(),
        )
    })
}

/// LEB128, written here apart from the block code it checks.
fn leb128(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v & 0x7f) as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The bytes of a posting block: count, then per posting its doc gap
/// (the first one `doc + 1`), `tf` and `doc_len`.
fn reference_block(list: &PostingList) -> Vec<u8> {
    let mut out = Vec::new();
    leb128(&mut out, list.len() as u64);
    let mut prev = -1i64;
    for p in list.postings() {
        leb128(&mut out, (i64::from(p.doc.0) - prev) as u64);
        leb128(&mut out, u64::from(p.tf));
        leb128(&mut out, u64::from(p.doc_len));
        prev = i64::from(p.doc.0);
    }
    out
}

/// The bytes of a doc-set: count, then each doc gap.
fn reference_docset(docs: &BTreeSet<u32>) -> Vec<u8> {
    let mut out = Vec::new();
    leb128(&mut out, docs.len() as u64);
    let mut prev = -1i64;
    for &doc in docs {
        leb128(&mut out, (i64::from(doc) - prev) as u64);
        prev = i64::from(doc);
    }
    out
}

/// A doc-set's bytes validated one varint at a time: the count, then that
/// many gaps — none zero, each landing on a `u32` doc id — and nothing
/// after. Its max doc (0 when empty), or `None`.
fn docset_max_doc_varint_by_varint(buf: &[u8]) -> Option<u32> {
    let next = |pos: &mut usize| {
        let (mut v, mut shift) = (0u64, 0);
        loop {
            let byte = *buf.get(*pos)?;
            *pos += 1;
            if shift >= 64 {
                return None;
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return Some(v);
            }
            shift += 7;
        }
    };
    let mut pos = 0;
    let count = u32::try_from(next(&mut pos)?).ok()?;
    let mut prev = -1i64;
    for _ in 0..count {
        let gap = next(&mut pos)?;
        if gap == 0 || gap > 1 << 32 {
            return None;
        }
        prev += gap as i64;
        u32::try_from(prev).ok()?;
    }
    (pos == buf.len()).then_some(prev.max(0) as u32)
}

/// A block holds exactly `expected`, inline exactly when it fits, and
/// re-adopting its bytes gives the same block.
fn holds_block(block: &CompressedPostings, expected: &[u8]) -> Result<(), TestCaseError> {
    prop_assert_eq!(block.as_bytes(), expected);
    prop_assert_eq!(block.encoded_len(), expected.len());
    prop_assert_eq!(block.heap_bytes() == 0, expected.len() <= INLINE_BYTES);
    let revived = CompressedPostings::from_bytes(expected).expect("reference bytes validate");
    prop_assert_eq!(&revived, block);
    Ok(())
}

/// [`holds_block`] for a doc-set.
fn holds_docset(set: &CompressedDocSet, expected: &[u8]) -> Result<(), TestCaseError> {
    prop_assert_eq!(set.as_bytes(), expected);
    prop_assert_eq!(set.heap_bytes() == 0, expected.len() <= INLINE_BYTES);
    let revived = CompressedDocSet::from_bytes(expected).expect("reference bytes validate");
    prop_assert_eq!(&revived, set);
    Ok(())
}

proptest! {
    /// Blocks on either side of the inline capacity, built by every path —
    /// encoding, the streaming merge, the append merge, truncation and
    /// adoption from bytes, for posting blocks and doc-sets — hold the
    /// bytes a separate encoder writes, whichever way each input was held.
    #[test]
    fn blocks_straddling_the_inline_capacity_encode_identically(
        a in arb_boundary_list(),
        b in arb_boundary_list(),
        k in 1usize..8,
    ) {
        let quality = |p: &Posting| f64::from(p.tf) / (f64::from(p.tf) + 1.2);
        let max = a.postings().last().map_or(0, |p| p.doc.0);
        let beyond = PostingList::from_sorted(
            b.postings()
                .iter()
                .map(|p| Posting { doc: DocId(max + 1 + p.doc.0), ..*p })
                .collect(),
        );
        let (ca, cb, cbeyond) = (
            CompressedPostings::from_list(&a),
            CompressedPostings::from_list(&b),
            CompressedPostings::from_list(&beyond),
        );
        holds_block(&ca, &reference_block(&a))?;
        holds_block(&cb, &reference_block(&b))?;
        let (merged, _) = ca.merge_counting(&cb);
        holds_block(&merged, &reference_block(&a.union(&b)))?;
        let (appended, new_docs) = ca.merge_counting(&cbeyond);
        prop_assert_eq!(new_docs as usize, beyond.len());
        holds_block(&appended, &reference_block(&a.union(&beyond)))?;
        let truncated = merged.truncate_top_k(k, quality);
        holds_block(&truncated, &reference_block(&a.union(&b).truncate_top_k(k, quality)))?;

        let docs = |l: &PostingList| -> BTreeSet<u32> { l.docs().map(|d| d.0).collect() };
        let mut set = CompressedDocSet::from_postings(&ca);
        let mut reference = docs(&a);
        holds_docset(&set, &reference_docset(&reference))?;
        for batch in [&b, &beyond] {
            set.merge_count_new(batch.docs());
            reference.extend(docs(batch));
            holds_docset(&set, &reference_docset(&reference))?;
        }
    }

    #[test]
    fn codec_roundtrip(list in arb_posting_list()) {
        let encoded = CompressedPostings::from_list(&list);
        prop_assert_eq!(encoded.as_bytes().len(), encoded_len(&list));
        let decoded = CompressedPostings::from_bytes(encoded.as_bytes())
            .expect("well-formed")
            .decode();
        prop_assert_eq!(decoded, list);
    }

    #[test]
    fn compressed_roundtrip_with_extremes(list in arb_extreme_posting_list()) {
        let c = CompressedPostings::from_list(&list);
        prop_assert_eq!(c.len(), list.len());
        prop_assert_eq!(c.decode(), list.clone());
        prop_assert_eq!(c.encoded_len(), encoded_len(&list));
        prop_assert_eq!(c.max_doc(), list.postings().last().map(|p| p.doc));
        // The block survives a wire trip through the validating path.
        let revived = CompressedPostings::from_bytes(c.as_bytes())
            .expect("own block must validate");
        prop_assert_eq!(revived, c);
    }

    #[test]
    fn merge_sequence_with_truncation_matches_reference(
        batches in prop::collection::vec(arb_extreme_posting_list(), 0..6),
        k in 1usize..40,
    ) {
        // Fold a random insert sequence through the compressed path and
        // the decoded reference model side by side, truncating after each
        // merge like an NDK entry does; state and df increments must agree
        // at every step.
        let quality = |p: &Posting| f64::from(p.tf) / (f64::from(p.tf) + 1.2);
        let mut block = CompressedPostings::new();
        let mut reference = PostingList::new();
        for batch in &batches {
            let incoming = CompressedPostings::from_list(batch);
            let (merged, new_docs) = block.merge_counting(&incoming);
            let expected_new = batch
                .docs()
                .filter(|&d| !reference.contains_doc(d))
                .count() as u32;
            prop_assert_eq!(new_docs, expected_new);
            block = merged.truncate_top_k(k, quality);
            reference = reference.union(batch).truncate_top_k(k, quality);
            prop_assert_eq!(block.decode(), reference.clone());
        }
    }

    #[test]
    fn docset_counts_like_a_set(
        batches in prop::collection::vec(
            prop::collection::btree_map(0u32..2_000, Just(()), 0..60),
            0..6,
        ),
    ) {
        let mut set = CompressedDocSet::new();
        let mut reference: BTreeSet<u32> = BTreeSet::new();
        for batch in &batches {
            let docs: Vec<DocId> = batch.keys().map(|&d| DocId(d)).collect();
            let new = set.merge_count_new(docs.iter().copied());
            let expected = docs.iter().filter(|d| reference.insert(d.0)).count() as u32;
            prop_assert_eq!(new, expected);
            prop_assert_eq!(set.len(), reference.len());
        }
        let all: Vec<u32> = set.iter().map(|d| d.0).collect();
        let expected: Vec<u32> = reference.iter().copied().collect();
        prop_assert_eq!(all, expected);
    }

    /// Doc-sets whose gaps are mostly one byte — what the validator takes
    /// eight at a time — with zero, long and overflowing gaps, miscounts,
    /// flipped and trailing bytes mixed in: the validator accepts exactly
    /// what a reading one varint at a time accepts, with the same max doc.
    #[test]
    fn docset_validation_agrees_with_reading_varint_by_varint(seed in any::<u64>()) {
        let mut state = seed;
        let mut draw = move |n: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        let len = draw(60);
        let mut raw = Vec::new();
        leb128(&mut raw, len + u64::from(draw(8) == 0));
        for _ in 0..len {
            let gap = match draw(40) {
                0 => 0,
                1 => 128 + draw(100_000),
                2 => (1 << 32) - draw(4),
                3 => u64::MAX - draw(4),
                _ => 1 + draw(127),
            };
            leb128(&mut raw, gap);
        }
        for _ in 0..draw(3) {
            let i = draw(raw.len() as u64) as usize;
            raw[i] ^= 1 + draw(255) as u8;
        }
        if draw(8) == 0 {
            raw.push(draw(256) as u8);
        }
        let want = docset_max_doc_varint_by_varint(&raw);
        prop_assert_eq!(CompressedDocSet::check(&raw), want);
        prop_assert_eq!(CompressedDocSet::from_bytes(&raw).map(|s| s.max_doc()), want);
    }

    #[test]
    fn malformed_blocks_never_panic(raw in prop::collection::vec(any::<u8>(), 0..200)) {
        // Arbitrary bytes either fail validation or yield a block whose
        // header agrees with a full decode; nothing panics either way.
        if let Some(c) = CompressedPostings::from_bytes(&raw) {
            prop_assert_eq!(c.decode().len(), c.len());
        }
    }

    #[test]
    fn prefix_plus_garbage_is_rejected(
        list in arb_posting_list(),
        junk in prop::collection::vec(any::<u8>(), 1..20),
    ) {
        let mut raw = CompressedPostings::from_list(&list).as_bytes().to_vec();
        raw.extend_from_slice(&junk);
        prop_assert!(
            CompressedPostings::from_bytes(&raw).is_none(),
            "trailing garbage accepted"
        );
    }

    #[test]
    fn retired_extended_header_is_rejected(
        b in any::<u8>(),
        rest in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        // `0x00` opens only the empty block `[0x00]`; whatever follows it is
        // trailing garbage — in particular every block the retired
        // group-varint codec framed as `[0x00, 0x01, ..]`.
        let mut raw = vec![0x00, b];
        raw.extend_from_slice(&rest);
        prop_assert!(CompressedPostings::from_bytes(&raw).is_none());
        prop_assert!(CompressedDocSet::from_bytes(&raw).is_none());
    }

    #[test]
    fn union_is_commutative_and_contains_both(
        a in arb_posting_list(),
        b in arb_posting_list(),
    ) {
        let ab = a.union(&b);
        let ba = b.union(&a);
        // Same doc sets either way (tf merge is symmetric except doc_len,
        // which comes from the left; compare docs + tf).
        let docs_ab: Vec<(u32, u32)> = ab.postings().iter().map(|p| (p.doc.0, p.tf)).collect();
        let docs_ba: Vec<(u32, u32)> = ba.postings().iter().map(|p| (p.doc.0, p.tf)).collect();
        prop_assert_eq!(docs_ab, docs_ba);
        for p in a.postings() {
            prop_assert!(ab.docs().any(|d| d == p.doc));
        }
        for p in b.postings() {
            prop_assert!(ab.docs().any(|d| d == p.doc));
        }
        prop_assert!(ab.len() <= a.len() + b.len());
    }

    #[test]
    fn union_with_self_preserves_docs(a in arb_posting_list()) {
        let aa = a.union(&a);
        prop_assert_eq!(aa.len(), a.len());
        let docs_a: Vec<u32> = a.docs().map(|d| d.0).collect();
        let docs_aa: Vec<u32> = aa.docs().map(|d| d.0).collect();
        prop_assert_eq!(docs_a, docs_aa);
    }

    #[test]
    fn intersect_is_subset_of_both(
        a in arb_posting_list(),
        b in arb_posting_list(),
    ) {
        let i = a.intersect(&b);
        for p in i.postings() {
            prop_assert!(a.docs().any(|d| d == p.doc));
            prop_assert!(b.docs().any(|d| d == p.doc));
        }
        prop_assert!(i.len() <= a.len().min(b.len()));
    }

    #[test]
    fn truncate_keeps_k_best(list in arb_posting_list(), k in 0usize..50) {
        let t = list.truncate_top_k(k, |p| f64::from(p.tf));
        prop_assert_eq!(t.len(), list.len().min(k));
        if list.len() > k && k > 0 {
            // No dropped posting outranks a kept one (quality is tf; ties
            // break deterministically by doc id, so tf ties may span the
            // cut, but a strictly better tf never gets dropped).
            let kept_min = t.postings().iter().map(|p| p.tf).min().unwrap_or(0);
            let dropped_max = list
                .postings()
                .iter()
                .filter(|p| !t.docs().any(|d| d == p.doc))
                .map(|p| p.tf)
                .max()
                .unwrap_or(0);
            prop_assert!(
                kept_min >= dropped_max,
                "dropped tf {dropped_max} beats kept tf {kept_min}"
            );
        }
        // Result stays sorted by doc.
        let docs: Vec<u32> = t.docs().map(|d| d.0).collect();
        let mut sorted = docs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(docs, sorted);
    }

    #[test]
    fn top_k_matches_full_sort(
        scores in prop::collection::vec((0u32..10_000, 0u32..1_000), 0..300),
        k in 0usize..40,
    ) {
        // Dedup docs to keep semantics unambiguous.
        let mut seen = std::collections::HashSet::new();
        let results: Vec<SearchResult> = scores
            .into_iter()
            .filter(|(d, _)| seen.insert(*d))
            .map(|(d, s)| SearchResult {
                doc: DocId(d),
                score: f64::from(s) / 7.0,
            })
            .collect();
        let fast = top_k(results.clone(), k);
        let mut slow = results;
        slow.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap()
                .then_with(|| a.doc.cmp(&b.doc))
        });
        slow.truncate(k);
        prop_assert_eq!(fast, slow);
    }

    /// Whatever a caller feeds, in any order, the sums keep the bits of a
    /// per-document table: up to 64 blocks fed as compressed blocks, as
    /// exact-size iterators or as iterators that announce no size, blocks
    /// out of doc order or repeating a doc, doc ids at both ends of the
    /// `u32` range (a table that reserved one as "empty" would lose it),
    /// and `k` of zero or past the union.
    #[test]
    fn accumulated_scores_are_bit_equal_to_a_per_document_table(
        blocks in prop::collection::vec(
            (1u32..6_000, prop::collection::vec(arb_any_doc_posting(), 0..40), 0u8..3),
            0..65,
        ),
        num_docs in 1usize..5_000,
        avg_doc_len in 1.0f64..2_000.0,
        k in (0u8..3, 0usize..40).prop_map(|(mode, k)| match mode {
            0 => 0,
            1 => usize::MAX,
            _ => k,
        }),
    ) {
        // The reference ranks the way a `HashMap` keyed by document would:
        // each posting's BM25 term added into its document's entry in feed
        // order, then a full sort.
        let bm25 = Bm25::default();
        let mut table: HashMap<DocId, f64> = HashMap::new();
        let mut acc = ScoreAccumulator::new(num_docs, avg_doc_len);
        for (df, postings, feed) in &blocks {
            let postings = match feed {
                // A compressed block holds one doc-ascending run.
                0 => {
                    let run: BTreeMap<DocId, Posting> =
                        postings.iter().map(|p| (p.doc, *p)).collect();
                    let list = PostingList::from_sorted(run.into_values().collect());
                    acc.accumulate_block(*df, &CompressedPostings::from_list(&list));
                    list.postings().to_vec()
                }
                1 => {
                    acc.accumulate(*df, postings.iter().copied());
                    postings.clone()
                }
                _ => {
                    acc.accumulate(*df, postings.iter().copied().filter(|_| true));
                    postings.clone()
                }
            };
            for p in &postings {
                *table.entry(p.doc).or_insert(0.0) +=
                    bm25.score(p.tf, p.doc_len, avg_doc_len, *df as usize, num_docs);
            }
        }
        prop_assert_eq!(acc.is_empty(), table.is_empty());
        let mut expected: Vec<SearchResult> = table
            .into_iter()
            .map(|(doc, score)| SearchResult { doc, score })
            .collect();
        expected.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap()
                .then_with(|| a.doc.cmp(&b.doc))
        });
        expected.truncate(k);
        let ranked = acc.into_top_k(k);
        prop_assert_eq!(ranked.len(), expected.len());
        for (r, e) in ranked.iter().zip(&expected) {
            prop_assert_eq!(r.doc, e.doc);
            prop_assert_eq!(r.score.to_bits(), e.score.to_bits());
        }
    }

    /// The frame checksum catches what a torn or flipped write leaves: any
    /// change confined to one aligned 8-byte word, any cut-off tail and any
    /// appended byte.
    #[test]
    fn checksum_detects_word_changes_truncations_and_appended_bytes(
        payload in prop::collection::vec(any::<u8>(), 1..300),
        word in any::<u32>(),
        mask in any::<u64>(),
        extra in any::<u8>(),
    ) {
        let sum = checksum64(&payload);
        let start = 8 * (word as usize % payload.len().div_ceil(8));
        let end = (start + 8).min(payload.len());
        let mask = &mask.to_le_bytes()[..end - start];
        if mask.iter().any(|&m| m != 0) {
            let mut changed = payload.clone();
            for (byte, m) in changed[start..end].iter_mut().zip(mask) {
                *byte ^= m;
            }
            prop_assert_ne!(checksum64(&changed), sum);
        }
        for cut in 0..payload.len() {
            prop_assert_ne!(checksum64(&payload[..cut]), sum);
        }
        let mut longer = payload.clone();
        longer.push(extra);
        prop_assert_ne!(checksum64(&longer), sum);
    }
}
