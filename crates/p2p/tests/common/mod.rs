//! Shared by the segment-store test binaries that count descriptors (each
//! a binary of its own: the counts and the limit are process-wide).

use hdk_p2p::StoreCodec;

/// A byte string weighs its length.
pub struct RawCodec;

impl StoreCodec<Vec<u8>> for RawCodec {
    fn weight(&self, value: Vec<u8>) -> u64 {
        value.len() as u64
    }
}

/// Open descriptors of this process (the directory listing's own
/// descriptor is in every count alike).
pub fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}
