//! Shared by the segment-store test binaries that count descriptors (each
//! a binary of its own: the counts and the limit are process-wide).

use hdk_p2p::StoreCodec;

/// The value is its encoded bytes.
pub struct RawCodec;

impl StoreCodec<Vec<u8>> for RawCodec {
    fn encode(&self, value: &Vec<u8>, out: &mut Vec<u8>) {
        out.extend_from_slice(value);
    }

    fn decode(&self, bytes: &[u8]) -> Option<Vec<u8>> {
        Some(bytes.to_vec())
    }

    fn weight(&self, value: &Vec<u8>) -> u64 {
        value.len() as u64
    }
}

/// Open descriptors of this process (the directory listing's own
/// descriptor is in every count alike).
pub fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}
