//! Length-framed wire protocol primitives for the serving tier.
//!
//! The multi-process backend (`hdk-core`'s `TcpNet`) ships the typed
//! [`rpc`](crate::rpc) messages over real sockets. This module owns the
//! *transport* half of that contract — a checksummed length-framed byte
//! stream, whose `[len][checksum][payload]` frame is `hdk_ir::segment`'s
//! (the on-disk segment logs use the same one) — and the *encoding* half:
//! the [`Wire`] trait, implemented once per encoded type.
//!
//! Design rules:
//!
//! - **Errors, never panics.** Truncated, corrupt or oversized frames
//!   from the network are [`WireError`]s; a malicious or buggy peer must
//!   not be able to bring a process down (pinned by
//!   `crates/core/tests/prop_wire.rs`).
//! - **One declaration per encoded type.** Registry access is
//!   unavailable, so there is no serde; instead a struct's field list
//!   ([`wire_record!`](crate::wire_record), [`wire_stats!`](crate::wire_stats))
//!   or an enum's tag ⇒ variant table ([`wire_enum!`](crate::wire_enum))
//!   is written once and both directions are derived from it. Only the
//!   types that *validate* (posting blocks, keys, stored entries) are
//!   implemented by hand.
//! - **Bounded frames.** A frame longer than [`MAX_FRAME_BYTES`] is
//!   rejected, a shorter one is buffered only as its bytes arrive, and a
//!   sequence's claimed length is checked against the bytes actually
//!   present ([`Wire::MIN_BYTES`]) — a hostile length prefix costs an
//!   error, not an allocation.

use crate::dht::{
    GossipMetering, GossipOutcome, HotConfig, HotStats, LossStats, MigrationStats, RepairStats,
};
use crate::gossip::{GossipConfig, GossipRound};
use crate::id::{KeyHash, PeerId};
use crate::store::RecoveryStats;
use crate::transport::{KindSnapshot, LatencyHistogram, TrafficSnapshot, NUM_KINDS};
use hdk_ir::segment::{self, FrameHeader, FrameRead, FRAME_HEADER_BYTES};
use hdk_ir::CompressedPostings;
use std::io::{Read, Write};

/// Hard upper bound on a single frame's payload (256 MiB). Far above any
/// legitimate message (a full insert round over a big corpus is a few MB)
/// but small enough that a corrupted length prefix cannot trigger a
/// multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 28;

/// Frame header: `[payload len: u32 LE][checksum: u64 LE]` —
/// `hdk_ir::segment`'s frame header.
pub const WIRE_HEADER_BYTES: usize = FRAME_HEADER_BYTES;

/// Largest payload buffered in one up-front allocation. The length prefix
/// is unauthenticated, so a longer frame's buffer grows only with the
/// bytes that actually arrive; every lookup frame is far below this.
const EAGER_FRAME_BYTES: usize = 64 << 10;

/// Everything that can go wrong on the wire. Deliberately coarse: the
/// serving tier's contract is that a dead or malicious peer costs an
/// error (usually a timeout), never a hang or a panic.
#[derive(Debug)]
pub enum WireError {
    /// The payload ended before the decoder was done (or a length prefix
    /// pointed past the end of the buffer).
    Truncated,
    /// The frame checksum did not match, or a decoded value was out of
    /// its domain (bad enum tag, invalid posting block, ...).
    Corrupt,
    /// A frame (announced by a peer, or about to be sent) exceeded
    /// [`MAX_FRAME_BYTES`].
    Oversized { len: usize, max: usize },
    /// The peer answered, but with something semantically wrong for the
    /// request (protocol-level error string from the remote side).
    Protocol(String),
    /// A socket-level read/write failure other than timeout/close.
    Io(std::io::Error),
    /// The per-request deadline elapsed.
    Timeout,
    /// The peer closed the connection cleanly mid-protocol.
    Closed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Corrupt => write!(f, "corrupt frame"),
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes (max {max})")
            }
            WireError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::Timeout => write!(f, "request timed out"),
            WireError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => WireError::Closed,
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => WireError::Timeout,
            _ => WireError::Io(e),
        }
    }
}

/// Wire results.
pub type WireResult<T> = Result<T, WireError>;

/// Writes one `[len][checksum][payload]` frame ([`segment::write_frame`])
/// and flushes. The flush matters: requests are written through buffered
/// sockets and the peer won't answer a frame it hasn't seen.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> WireResult<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(WireError::Oversized {
            len: payload.len(),
            max: MAX_FRAME_BYTES,
        });
    }
    segment::write_frame(w, payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, verifying length bound and checksum
/// ([`segment::open_frame`]); the payload is read into one buffer of its
/// size. `UnexpectedEof` maps to [`WireError::Closed`] (clean shutdown
/// between frames is how connections end), timeouts to
/// [`WireError::Timeout`].
pub fn read_frame(r: &mut impl Read) -> WireResult<Vec<u8>> {
    let mut head = [0u8; WIRE_HEADER_BYTES];
    r.read_exact(&mut head)?;
    let len = FrameHeader::parse(head).payload_len();
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized {
            len,
            max: MAX_FRAME_BYTES,
        });
    }
    let mut payload = Vec::with_capacity(len.min(EAGER_FRAME_BYTES));
    // A connection dying mid-frame is a truncation, not a clean close.
    if r.take(len as u64).read_to_end(&mut payload)? < len {
        return Err(WireError::Truncated);
    }
    match segment::open_frame(head, &payload) {
        FrameRead::Frame { .. } => Ok(payload),
        _ => Err(WireError::Corrupt),
    }
}

/// `[len: u32][bytes]` — the standard variable-length field.
#[inline]
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    assert!(bytes.len() <= u32::MAX as usize, "field exceeds u32 length");
    (bytes.len() as u32).put(buf);
    buf.extend_from_slice(bytes);
}

/// A bounds-checked cursor over a received payload. Every accessor
/// returns [`WireError::Truncated`] instead of slicing out of range, so
/// decoders compose with `?` and malformed input can never panic.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    pub fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `[len: u32][bytes]` field written by [`put_bytes`].
    #[inline]
    pub fn bytes(&mut self) -> WireResult<&'a [u8]> {
        let len = u32::get(self)? as usize;
        self.take(len)
    }

    /// Reads a `[count: u32]` collection-length prefix, bounding it by
    /// the bytes actually remaining (`min_elem_bytes` per element) so a
    /// corrupt count cannot pre-allocate gigabytes.
    #[inline]
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> WireResult<usize> {
        let n = u32::get(self)? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// Asserts the payload was consumed exactly — trailing garbage means
    /// encoder and decoder disagree, which is corruption, not slack.
    pub fn done(&self) -> WireResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Corrupt)
        }
    }
}

/// A type with one little-endian wire encoding.
pub trait Wire: Sized {
    /// The fewest bytes one encoded value occupies. [`WireReader::seq_len`]
    /// bounds a sequence's claimed length by it, so any lower bound is
    /// sound and a tight one rejects a hostile count sooner.
    const MIN_BYTES: usize;

    /// Appends the encoding to `buf`. Infallible — encoding only fails by
    /// running out of memory.
    fn put(&self, buf: &mut Vec<u8>);

    /// Decodes one value. Total over arbitrary bytes: malformed input is
    /// a [`WireError`], never a panic.
    fn get(r: &mut WireReader<'_>) -> WireResult<Self>;
}

/// Encodes `value` into a fresh frame payload.
pub fn encode(value: &impl Wire) -> Vec<u8> {
    let mut buf = Vec::new();
    value.put(&mut buf);
    buf
}

/// Decodes a full frame payload (trailing garbage is corruption).
pub fn decode<T: Wire>(payload: &[u8]) -> WireResult<T> {
    let mut r = WireReader::new(payload);
    let value = T::get(&mut r)?;
    r.done()?;
    Ok(value)
}

/// Values whose record — hot-tier and flat alike — is their wire encoding:
/// the integers and sequences a DHT over plain values stores; their view is
/// the value.
macro_rules! wire_records {
    ($($ty:ty),*) => {$(
        impl crate::store::Record for $ty {
            type Ref<'a> = $ty;
            fn put_record(&self, out: &mut Vec<u8>, _: Option<&mut Vec<std::sync::Arc<[u8]>>>) {
                self.put(out);
            }
            fn check(record: &[u8]) -> bool {
                decode::<Self>(record).is_ok()
            }
            fn from_record(record: &[u8], _: crate::store::Shared<'_>) -> Self {
                decode(record).expect("a record the store wrote or checked decodes")
            }
            fn view<'a>(record: &'a [u8], shared: crate::store::Shared<'a>) -> Self {
                Self::from_record(record, shared)
            }
        }
    )*};
}

wire_records!(u64, Vec<u8>, Vec<u32>);

/// A partial result that folds: replies of stripe-disjoint peer processes
/// into one reply, and per-stripe partials into one sweep result — the
/// same rule both times.
pub trait Absorb {
    /// Folds `other` into `self`.
    fn absorb(&mut self, other: Self);
}

/// Fixed-width little-endian integers.
macro_rules! wire_le {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            const MIN_BYTES: usize = std::mem::size_of::<$int>();
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
                let mut le = [0u8; std::mem::size_of::<$int>()];
                le.copy_from_slice(r.take(Self::MIN_BYTES)?);
                Ok(<$int>::from_le_bytes(le))
            }
        }
    )*};
}
wire_le!(u8, u32, u64);

impl Absorb for u64 {
    fn absorb(&mut self, other: u64) {
        *self += other;
    }
}

/// Travels as a `u64`, whatever the host's pointer width.
impl Wire for usize {
    const MIN_BYTES: usize = 8;
    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u64).put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        usize::try_from(u64::get(r)?).map_err(|_| WireError::Corrupt)
    }
}

/// Travels as its IEEE-754 bits.
impl Wire for f64 {
    const MIN_BYTES: usize = 8;
    fn put(&self, buf: &mut Vec<u8>) {
        self.to_bits().put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(f64::from_bits(u64::get(r)?))
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    #[inline]
    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Corrupt),
        }
    }
}

impl Wire for String {
    const MIN_BYTES: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self.as_bytes());
    }
    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        String::from_utf8(r.bytes()?.to_vec()).map_err(|_| WireError::Corrupt)
    }
}

/// `[0]` or `[1][value]`.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(value) => {
                buf.push(1);
                value.put(buf);
            }
        }
    }
    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            _ => Err(WireError::Corrupt),
        }
    }
}

/// Whichever side reported counts; both when both did.
impl<T: Absorb> Absorb for Option<T> {
    fn absorb(&mut self, other: Self) {
        match (self.as_mut(), other) {
            (Some(acc), Some(other)) => acc.absorb(other),
            (None, other) => *self = other,
            (Some(_), None) => {}
        }
    }
}

/// `[count: u32][items]`.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        assert!(
            self.len() <= u32::MAX as usize,
            "sequence exceeds u32 length"
        );
        (self.len() as u32).put(buf);
        for item in self {
            item.put(buf);
        }
    }
    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        let n = r.seq_len(T::MIN_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

/// Position-wise; the longer side's tail is kept as is (every process
/// reports the same logical peer set, a shorter vector is just earlier).
impl<T: Absorb> Absorb for Vec<T> {
    fn absorb(&mut self, other: Self) {
        let mut other = other.into_iter();
        for (acc, item) in self.iter_mut().zip(&mut other) {
            acc.absorb(item);
        }
        self.extend(other);
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn put(&self, buf: &mut Vec<u8>) {
        for item in self {
            item.put(buf);
        }
    }
    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::get(r)?;
        }
        Ok(out)
    }
}

impl<T: Absorb, const N: usize> Absorb for [T; N] {
    fn absorb(&mut self, other: Self) {
        for (acc, item) in self.iter_mut().zip(other) {
            acc.absorb(item);
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<T: Wire> Wire for Box<T> {
    const MIN_BYTES: usize = T::MIN_BYTES;
    fn put(&self, buf: &mut Vec<u8>) {
        (**self).put(buf);
    }
    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(Box::new(T::get(r)?))
    }
}

/// A posting block travels as its own validated framing, length-prefixed;
/// decoding copies it once, into the block itself when it fits inline and
/// into one allocation otherwise. (A doc-set travels only inside a stored
/// entry's flat record.)
impl Wire for CompressedPostings {
    const MIN_BYTES: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self.as_bytes());
    }
    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        CompressedPostings::from_bytes(r.bytes()?).ok_or(WireError::Corrupt)
    }
}

/// Derives [`Wire`] for a struct from its field list — `Type[min](fields)`:
/// fields travel in the listed order, each by its own [`Wire`] impl, and
/// `min` is the struct's [`Wire::MIN_BYTES`]. A tuple struct lists its
/// positions; one type parameter is supported.
#[macro_export]
macro_rules! wire_record {
    ($ty:ident $(<$g:ident>)? [$min:expr] ($($field:tt),* $(,)?)) => {
        impl $(<$g: $crate::wire::Wire>)? $crate::wire::Wire for $ty $(<$g>)? {
            const MIN_BYTES: usize = $min;
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                $($crate::wire::Wire::put(&self.$field, buf);)*
            }
            #[inline]
            fn get(r: &mut $crate::wire::WireReader<'_>) -> $crate::wire::WireResult<Self> {
                Ok(Self { $($field: $crate::wire::Wire::get(r)?,)* })
            }
        }
    };
}

/// [`wire_record!`] plus [`Absorb`] for a struct of counters —
/// `Type(fields)`, optionally `, max(fields)`: listed fields add, `max`
/// fields keep the larger side. Without an explicit `[min]` the struct
/// must consist of `u64`s and `u64` arrays only — then its in-memory size
/// *is* its encoded size.
#[macro_export]
macro_rules! wire_stats {
    ($ty:ident ($($sum:ident),* $(,)?) $(, max($($peak:ident),*))?) => {
        $crate::wire_stats!($ty [std::mem::size_of::<$ty>()] ($($sum),*) $(, max($($peak),*))?);
    };
    ($ty:ident [$min:expr] ($($sum:ident),* $(,)?) $(, max($($peak:ident),*))?) => {
        $crate::wire_record!($ty [$min] ($($sum,)* $($($peak,)*)?));
        impl $crate::wire::Absorb for $ty {
            fn absorb(&mut self, other: Self) {
                $($crate::wire::Absorb::absorb(&mut self.$sum, other.$sum);)*
                $($(self.$peak = self.$peak.max(other.$peak);)*)?
            }
        }
    };
}

/// Derives [`Wire`] for an enum from its `tag => Variant` table: one tag
/// byte, then the variant's fields in the listed order. Unit, tuple and
/// struct variants are supported; every type parameter must be [`Wire`].
/// An unknown tag decodes to [`WireError::Corrupt`].
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident $(<$($g:ident),*>)? {
        $($tag:literal => $variant:ident $(($($inner:ident),*))? $({$($field:ident),*})?),* $(,)?
    }) => {
        impl $(<$($g: $crate::wire::Wire),*>)? $crate::wire::Wire for $ty $(<$($g),*>)? {
            const MIN_BYTES: usize = 1;
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $(Self::$variant $(($($inner),*))? $({$($field),*})? => {
                        buf.push($tag);
                        $($($crate::wire::Wire::put($inner, buf);)*)?
                        $($($crate::wire::Wire::put($field, buf);)*)?
                    })*
                }
            }
            fn get(r: &mut $crate::wire::WireReader<'_>) -> $crate::wire::WireResult<Self> {
                Ok(match <u8 as $crate::wire::Wire>::get(r)? {
                    $($tag => Self::$variant
                        $(($($crate::wire_enum!(@get r $inner)),*))?
                        $({$($field: $crate::wire::Wire::get(r)?),*})?,)*
                    _ => return Err($crate::wire::WireError::Corrupt),
                })
            }
        }
    };
    (@get $r:ident $inner:ident) => {
        $crate::wire::Wire::get($r)?
    };
}

wire_record!(PeerId[8](0));
wire_record!(KeyHash[8](0));
wire_stats!(MigrationStats(keys_moved, postings_moved, bytes_moved));
wire_stats!(LossStats(
    keys_lost,
    postings_lost,
    bytes_lost,
    keys_degraded
));
wire_stats!(RepairStats(copies, postings, bytes));
wire_stats!(HotStats(promoted, demoted, copies, postings, bytes));
wire_stats!(RecoveryStats(
    frames_replayed,
    bytes_replayed,
    frames_discarded,
    copies_recovered,
    postings_recovered,
    copies_lost,
    keys_lost,
    postings_lost,
    bytes_lost,
    logs_refused
));
wire_stats!(KindSnapshot(messages, postings, bytes, hops, hop_bytes));
wire_stats!(
    LatencyHistogram(samples, total_ns, retries, retransmission_bytes, buckets),
    max(max_ns)
);
wire_stats!(TrafficSnapshot[NUM_KINDS
    * (KindSnapshot::MIN_BYTES + LatencyHistogram::MIN_BYTES)
    + 20](
    kinds,
    latency,
    inserted_by_peer,
    retrieved_by_peer,
    served_by_peer,
    failover_timeouts
));
wire_record!(GossipRound[40](
    round,
    pings,
    failed,
    bytes,
    new_suspects,
    confirmed,
    universally_confirmed
));
wire_record!(GossipOutcome[41](report, repair));
wire_record!(GossipConfig[28](fanout, suspicion_rounds, loss_prob, seed));
wire_record!(HotConfig[16](threshold, extra));
wire_enum!(GossipMetering {
    0 => All,
    1 => Partition { nprocs, index },
    2 => Mirror,
});

/// A fleet's processes advance identical gossip state in lockstep, so
/// their round reports agree; only the repair traffic each one's stripes
/// contributed adds up.
impl Absorb for GossipOutcome {
    fn absorb(&mut self, other: Self) {
        self.repair.absorb(other.repair);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let payload = b"hello hdk serving tier".to_vec();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(buf.len(), WIRE_HEADER_BYTES + payload.len());
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), payload);
        assert!(cursor.is_empty());
    }

    #[test]
    fn empty_frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[]).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn truncated_header_is_closed_or_truncated() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        // An empty stream is a clean close; a partial header is not.
        assert!(matches!(read_frame(&mut &buf[..0]), Err(WireError::Closed)));
        for cut in 1..buf.len() {
            let err = read_frame(&mut &buf[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Closed | WireError::Truncated),
                "cut at {cut} gave {err}"
            );
        }
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes").unwrap();
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            // Flipping any bit must never yield the original payload.
            if let Ok(p) = read_frame(&mut &bad[..]) {
                assert_ne!(p, b"payload bytes");
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        u32::MAX.put(&mut buf);
        0u64.put(&mut buf);
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn oversized_outgoing_frame_is_an_error_not_a_panic() {
        // Zeroed pages are never touched: the length is refused first.
        let payload = vec![0u8; MAX_FRAME_BYTES + 1];
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, &payload),
            Err(WireError::Oversized { .. })
        ));
        assert!(sink.is_empty(), "nothing may reach the socket");
    }

    #[test]
    fn stats_fold_and_roundtrip_from_one_field_list() {
        let mut a = LatencyHistogram {
            samples: 2,
            total_ns: 300,
            max_ns: 200,
            ..LatencyHistogram::default()
        };
        a.buckets[3] = 2;
        let mut b = LatencyHistogram {
            samples: 1,
            total_ns: 50,
            max_ns: 50,
            retries: 4,
            ..LatencyHistogram::default()
        };
        b.buckets[3] = 1;
        a.absorb(b);
        assert_eq!((a.samples, a.total_ns, a.retries), (3, 350, 4));
        assert_eq!(a.max_ns, 200, "a maximum keeps the larger side");
        assert_eq!(a.buckets[3], 3);
        let bytes = encode(&a);
        assert_eq!(bytes.len(), LatencyHistogram::MIN_BYTES);
        assert_eq!(decode::<LatencyHistogram>(&bytes).unwrap(), a);
        // Shorter vectors are earlier views of the same peers.
        let mut totals = vec![1u64, 2];
        totals.absorb(vec![10, 20, 30]);
        assert_eq!(totals, [11, 22, 30]);
    }

    #[test]
    fn reader_primitives_roundtrip_and_bound() {
        let mut buf = Vec::new();
        7u8.put(&mut buf);
        0xDEAD_BEEFu32.put(&mut buf);
        (u64::MAX - 1).put(&mut buf);
        put_bytes(&mut buf, b"var");
        let mut r = WireReader::new(&buf);
        assert_eq!(u8::get(&mut r).unwrap(), 7);
        assert_eq!(u32::get(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::get(&mut r).unwrap(), u64::MAX - 1);
        assert_eq!(r.bytes().unwrap(), b"var");
        r.done().unwrap();
        assert!(matches!(u8::get(&mut r), Err(WireError::Truncated)));
    }

    #[test]
    fn corrupt_seq_len_is_truncation_not_allocation() {
        let mut buf = Vec::new();
        u32::MAX.put(&mut buf); // claims 4 billion elements...
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.seq_len(8), Err(WireError::Truncated)));
        assert!(matches!(
            decode::<Vec<u64>>(&buf),
            Err(WireError::Truncated)
        ));
    }
}
