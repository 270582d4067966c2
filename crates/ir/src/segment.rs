//! The `[len][checksum][payload]` frame — the one framing of the on-disk
//! segment logs under the DHT's tiered store *and* of the serving tier's
//! wire protocol.
//!
//! A frame is a length-prefixed, checksummed payload:
//!
//! ```text
//! [payload len: u32 LE] [checksum64(payload): u64 LE] [payload bytes]
//! ```
//!
//! The payload is opaque to this module — the storage layer above puts a
//! key header plus one [`crate::CompressedPostings`]-style encoded entry in
//! it, so the existing skip header (count / max-doc / byte length held in
//! the block) doubles as the segment index: sizing a sealed entry never
//! decodes it. The wire layer puts one encoded message in it.
//!
//! There is one frame writer, [`write_frame`], and one frame reader,
//! [`open_frame`]: the only places a header is built and a payload is
//! checked against it. The segment store reads a frame out of the bytes of
//! one positional read ([`read_frame`]); the socket reader in `hdk-p2p`'s
//! `wire` module reads the header, sizes the payload's buffer by
//! [`FrameHeader::parse`], and opens the frame once its bytes arrived.
//!
//! [`read_frame`] distinguishes the three ways a log can end: cleanly
//! ([`FrameRead::Eof`]), mid-frame after a crash ([`FrameRead::Truncated`]),
//! or with bytes that fail the checksum ([`FrameRead::Corrupt`]). Recovery
//! truncates the log at the first bad frame and discards the tail —
//! everything before it is intact by construction (frames are written
//! atomically *before* the store acknowledges a seal).
//!
//! The checksum ([`checksum64`]) reads its input a 64-bit word at a time:
//! one multiply per word, the tail folded in with the length, an avalanche
//! step at the end. It is corruption *detection* for a single-writer log
//! and a checked socket, not an adversarial MAC; the vendored-shim
//! discipline applies to checksum crates too, so it is hand-rolled.

use std::io::{self, IoSlice, Write};

/// Bytes of bookkeeping per frame: the `u32` payload length plus the
/// `u64` payload checksum.
pub const FRAME_HEADER_BYTES: usize = 12;

const SEED: u64 = 0x243f_6a88_85a3_08d3;
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The frame payload checksum: a word-at-a-time 64-bit hash of `bytes`.
///
/// Each full 8-byte little-endian word is xored into the state, which is
/// then multiplied by an odd constant and rotated; the last 0–7 bytes are
/// zero-padded into one more word, and the length is xored in after it.
/// Every step is a bijection of the state, so two inputs of the same
/// length that differ inside one aligned 8-byte word always hash apart,
/// and so do an input and its extension by zero bytes that stay inside
/// its last word (only the length tells them apart). A final avalanche
/// (MurmurHash3's `fmix64`, also a bijection) spreads every input bit
/// over the output.
#[inline]
pub fn checksum64(bytes: &[u8]) -> u64 {
    #[inline(always)]
    fn step(h: u64, word: u64) -> u64 {
        (h ^ word).wrapping_mul(MUL).rotate_left(29)
    }
    let mut words = bytes.chunks_exact(8);
    let mut h = SEED;
    for word in &mut words {
        let mut le = [0u8; 8];
        le.copy_from_slice(word);
        h = step(h, u64::from_le_bytes(le));
    }
    let rest = words.remainder();
    let mut tail = [0u8; 8];
    tail[..rest.len()].copy_from_slice(rest);
    h = step(h, u64::from_le_bytes(tail)) ^ bytes.len() as u64;
    // fmix64
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A frame's header: the payload length and checksum. Outside this
/// module it is only parsed, to learn how long a frame is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    len: u32,
    checksum: u64,
}

impl FrameHeader {
    /// The header that seals `payload`.
    ///
    /// # Panics
    /// Panics if `payload` is longer than `u32::MAX` bytes.
    fn of(payload: &[u8]) -> Self {
        Self {
            len: u32::try_from(payload.len()).expect("frame payload exceeds u32 length"),
            checksum: checksum64(payload),
        }
    }

    /// Parses the header bytes that start a frame.
    pub fn parse(bytes: [u8; FRAME_HEADER_BYTES]) -> Self {
        let [l0, l1, l2, l3, c @ ..] = bytes;
        Self {
            len: u32::from_le_bytes([l0, l1, l2, l3]),
            checksum: u64::from_le_bytes(c),
        }
    }

    /// The header's bytes, as they precede the payload.
    fn to_bytes(self) -> [u8; FRAME_HEADER_BYTES] {
        let mut out = [0u8; FRAME_HEADER_BYTES];
        out[..4].copy_from_slice(&self.len.to_le_bytes());
        out[4..].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// The payload length the header announces.
    pub fn payload_len(self) -> usize {
        self.len as usize
    }

    /// Whether `payload` is exactly the payload this header seals: its
    /// length and checksum both agree.
    fn seals(self, payload: &[u8]) -> bool {
        payload.len() == self.payload_len() && checksum64(payload) == self.checksum
    }
}

/// Writes one frame to `w`: header and payload in one gathered write —
/// on a `TCP_NODELAY` socket one syscall and one segment per frame,
/// whatever its size, with no copy of the payload; into a `Vec<u8>` one
/// append. What a short write (or a writer without gather support) leaves
/// over follows in order. Nothing is flushed.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let header = FrameHeader::of(payload).to_bytes();
    let written = loop {
        match w.write_vectored(&[IoSlice::new(&header), IoSlice::new(payload)]) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            written => break written?,
        }
    };
    w.write_all(&header[written.min(FRAME_HEADER_BYTES)..])?;
    w.write_all(&payload[written.saturating_sub(FRAME_HEADER_BYTES)..])
}

/// Outcome of reading one frame at `pos` (see [`read_frame`]).
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead<'a> {
    /// A complete, checksum-verified frame; the next frame starts at
    /// `end`.
    Frame {
        /// The verified payload.
        payload: &'a [u8],
        /// Offset just past this frame (start of the next).
        end: usize,
    },
    /// The log ends cleanly at `pos` — nothing follows.
    Eof,
    /// The log ends mid-frame: a header or payload was cut short (the
    /// classic crash-during-append tail). Recovery truncates here.
    Truncated,
    /// A full frame is present but its payload fails the checksum (torn
    /// or tampered bytes). Recovery truncates here; everything after an
    /// unreadable frame is unreachable anyway (frame boundaries cannot be
    /// trusted past it).
    Corrupt,
}

/// Opens the frame whose header is `head` and whose payload starts
/// `body`, verifying the payload in place: [`FrameRead::Truncated`] when
/// `body` is shorter than the header announces, [`FrameRead::Corrupt`]
/// when the checksum disagrees. A frame's `end` counts from its header.
pub fn open_frame(head: [u8; FRAME_HEADER_BYTES], body: &[u8]) -> FrameRead<'_> {
    let header = FrameHeader::parse(head);
    let Some(payload) = body.get(..header.payload_len()) else {
        return FrameRead::Truncated;
    };
    if !header.seals(payload) {
        return FrameRead::Corrupt;
    }
    FrameRead::Frame {
        payload,
        end: FRAME_HEADER_BYTES + payload.len(),
    }
}

/// Reads the frame starting at byte `pos` of `log` ([`open_frame`]).
///
/// Returns [`FrameRead::Eof`] exactly when `pos == log.len()`; any other
/// shortfall is [`FrameRead::Truncated`], and a size-complete frame whose
/// checksum disagrees is [`FrameRead::Corrupt`].
pub fn read_frame(log: &[u8], pos: usize) -> FrameRead<'_> {
    let Some(rest) = log.get(pos..) else {
        return FrameRead::Truncated;
    };
    if rest.is_empty() {
        return FrameRead::Eof;
    }
    let Some((head, body)) = rest.split_first_chunk::<FRAME_HEADER_BYTES>() else {
        return FrameRead::Truncated;
    };
    match open_frame(*head, body) {
        FrameRead::Frame { payload, end } => FrameRead::Frame {
            payload,
            end: pos + end,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_of(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        write_frame(&mut frame, payload).expect("a Vec takes every byte");
        frame
    }

    #[test]
    fn seal_then_read_roundtrips() {
        let payload = b"hello segment".as_slice();
        let frame = frame_of(payload);
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + payload.len());
        match read_frame(&frame, 0) {
            FrameRead::Frame { payload: got, end } => {
                assert_eq!(got, payload);
                assert_eq!(end, frame.len());
            }
            other => panic!("expected a frame, got {other:?}"),
        }
        assert_eq!(read_frame(&frame, frame.len()), FrameRead::Eof);
    }

    #[test]
    fn header_bytes_roundtrip() {
        let header = FrameHeader::of(b"twelve bytes");
        assert_eq!(FrameHeader::parse(header.to_bytes()), header);
        assert_eq!(header.payload_len(), 12);
        assert!(header.seals(b"twelve bytes"));
        assert!(!header.seals(b"twelve byte"));
    }

    #[test]
    fn multiple_frames_chain_by_end_offset() {
        let mut log = frame_of(b"one");
        log.extend(frame_of(b""));
        log.extend(frame_of(b"three"));
        let mut pos = 0;
        let mut payloads = Vec::new();
        loop {
            match read_frame(&log, pos) {
                FrameRead::Frame { payload, end } => {
                    payloads.push(payload.to_vec());
                    pos = end;
                }
                FrameRead::Eof => break,
                other => panic!("clean log must not yield {other:?}"),
            }
        }
        assert_eq!(
            payloads,
            vec![b"one".to_vec(), Vec::new(), b"three".to_vec()]
        );
    }

    #[test]
    fn every_truncation_point_is_detected() {
        let mut log = frame_of(b"first frame");
        log.extend(frame_of(b"second"));
        let first_end = FRAME_HEADER_BYTES + b"first frame".len();
        // Cutting anywhere strictly inside the second frame leaves the
        // first intact and the tail Truncated (never silently Eof).
        for cut in first_end + 1..log.len() {
            let short = &log[..cut];
            match read_frame(short, 0) {
                FrameRead::Frame { end, .. } => {
                    assert_eq!(end, first_end);
                    assert_eq!(read_frame(short, end), FrameRead::Truncated, "cut at {cut}");
                }
                other => panic!("first frame must survive a tail cut, got {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let frame = frame_of(b"payload under test");
        // Flip each payload byte in turn: every flip must be caught.
        for i in FRAME_HEADER_BYTES..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert_eq!(read_frame(&bad, 0), FrameRead::Corrupt, "flip at {i}");
        }
    }

    #[test]
    fn absurd_length_header_is_corrupt_not_panic() {
        let mut bad = frame_of(b"x");
        bad[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        // Claimed length runs past the buffer: indistinguishable from a
        // truncated tail, and recovery truncates either way.
        assert!(matches!(
            read_frame(&bad, 0),
            FrameRead::Truncated | FrameRead::Corrupt
        ));
        assert_eq!(read_frame(&bad, bad.len() + 1), FrameRead::Truncated);
    }
}
