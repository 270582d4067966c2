//! Posting-list block format: delta + LEB128 varint encoding.
//!
//! One layout serves storage, wire and cache (see [`crate::compressed`],
//! which owns the block type): `varint(count)` then, per posting,
//! `varint(doc_gap) varint(tf) varint(doc_len)`; doc ids are gap-encoded
//! (strictly ascending, so gaps are positive — the first gap is `doc_id +
//! 1` so the encoding never emits a zero gap) and every integer is LEB128
//! varint encoded, the standard compression for document-ordered posting
//! lists.
//!
//! This module keeps the varint primitives; [`crate::CompressedPostings`]
//! is the block type.

/// The one block format, delta + LEB128. Kept, with its single variant,
/// only so the frozen `benchmark/` crate compiles; nothing branches on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Delta + LEB128 varints.
    Leb128,
}

/// Emits the LEB128 bytes of `v` in order: seven bits a byte, the high
/// bit set on every byte but the last.
#[inline]
fn varint_bytes(mut v: u64, mut emit: impl FnMut(u8)) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            emit(byte);
            return;
        }
        emit(byte | 0x80);
    }
}

/// Appends a LEB128 varint to `buf`.
#[inline]
pub fn write_varint(buf: &mut Vec<u8>, v: u64) {
    varint_bytes(v, |byte| buf.push(byte));
}

/// Writes a LEB128 varint over the front of `out`, which must hold its
/// [`varint_len`] bytes.
pub(crate) fn write_varint_to_slice(out: &mut [u8], v: u64) {
    let mut at = 0;
    varint_bytes(v, |byte| {
        out[at] = byte;
        at += 1;
    });
}

/// Reads a LEB128 varint from `buf` at `pos`, advancing it. Returns `None`
/// on overrun or a shift past 64 bits.
#[inline]
pub(crate) fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if *pos >= buf.len() || shift >= 64 {
            return None;
        }
        let byte = buf[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Reads a LEB128 varint known to be well formed — one the reading
/// process wrote itself — at `pos`, advancing it. Checks nothing beyond
/// indexing `buf`.
#[inline]
pub fn read_known_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let byte = buf[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Encoded size of one varint.
pub(crate) fn varint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::CompressedPostings;
    use crate::posting::{Posting, PostingList};
    use hdk_corpus::DocId;

    fn encode(list: &PostingList) -> Vec<u8> {
        CompressedPostings::from_list(list).as_bytes().to_vec()
    }

    fn decode(bytes: &[u8]) -> Option<PostingList> {
        CompressedPostings::from_bytes(bytes).map(|c| c.decode())
    }

    /// The block's size, summed from its varints' lengths.
    fn encoded_len(list: &PostingList) -> usize {
        let mut n = varint_len(list.len() as u64);
        let mut prev: i64 = -1;
        for p in list.postings() {
            let gap = i64::from(p.doc.0) - prev;
            n += varint_len(gap as u64)
                + varint_len(u64::from(p.tf))
                + varint_len(u64::from(p.doc_len));
            prev = i64::from(p.doc.0);
        }
        n
    }

    fn list(docs: &[(u32, u32)]) -> PostingList {
        PostingList::from_unsorted(
            docs.iter()
                .map(|&(d, tf)| Posting {
                    doc: DocId(d),
                    tf,
                    doc_len: 50 + d,
                })
                .collect(),
        )
    }

    #[test]
    fn roundtrip_small() {
        let l = list(&[(0, 1), (1, 3), (100, 2), (1000, 1)]);
        assert_eq!(decode(&encode(&l)).unwrap(), l);
    }

    #[test]
    fn roundtrip_empty() {
        let l = PostingList::new();
        assert_eq!(decode(&encode(&l)).unwrap(), l);
    }

    #[test]
    fn encoded_len_matches_encode() {
        for l in [
            list(&[]),
            list(&[(0, 1)]),
            list(&[(7, 1), (128, 300), (16384, 2)]),
        ] {
            assert_eq!(encoded_len(&l), encode(&l).len());
        }
    }

    #[test]
    fn gap_encoding_beats_flat_u32s() {
        let dense = list(&(0..1000u32).map(|d| (d, 1)).collect::<Vec<_>>());
        let encoded = encode(&dense);
        // Flat encoding would need 12 bytes/posting; dense gaps need ~3.
        assert!(encoded.len() < 1000 * 5, "encoded {} bytes", encoded.len());
    }

    #[test]
    fn truncated_input_is_rejected() {
        let l = list(&[(1, 1), (2, 2), (3, 3)]);
        let full = encode(&l);
        for cut in 1..full.len() {
            assert!(decode(&full[..cut]).is_none(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        // A well-formed block followed by junk must not decode: accepting
        // it would let a corrupted or maliciously padded wire payload pass
        // as valid.
        let full = encode(&list(&[(1, 1), (2, 2)]));
        for junk in [&[0x00][..], &[0x7f], &[0x80, 0x01], &[1, 2, 3]] {
            let mut raw = full.clone();
            raw.extend_from_slice(junk);
            assert!(decode(&raw).is_none(), "junk {junk:?} passed");
        }
    }

    #[test]
    fn garbage_length_is_rejected() {
        // Claims 1M postings but contains none.
        let mut buf = Vec::new();
        write_varint(&mut buf, 1_000_000);
        assert!(decode(&buf).is_none());
    }

    #[test]
    fn varint_len_boundaries() {
        // Every length boundary of the 1..=10-byte range: a u64 varint
        // holds 7 payload bits per byte, so length flips at each 2^(7k).
        assert_eq!(varint_len(0), 1);
        for k in 1..=9u32 {
            let boundary = 1u64 << (7 * k);
            assert_eq!(varint_len(boundary - 1), k as usize, "below 2^{}", 7 * k);
            assert_eq!(varint_len(boundary), k as usize + 1, "at 2^{}", 7 * k);
        }
        assert_eq!(varint_len(u64::MAX), 10);
        // The formula agrees with the writer at every boundary.
        for v in (0..=9u32).flat_map(|k| {
            let b = 1u64 << (7 * k);
            [b - 1, b]
        }) {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "len vs encode for {v}");
            let mut slice = [0xff; 10];
            write_varint_to_slice(&mut slice[..buf.len()], v);
            assert_eq!(&slice[..buf.len()], &buf[..], "slice vs vec for {v}");
        }
    }

    #[test]
    fn varint_slice_roundtrip() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
        assert_eq!(read_varint(&buf, &mut pos), None);
    }
}
