//! A run owns ONE CPU. On a few vCPUs of a shared host, how fast a parked
//! thread gets a second vCPU back is the hypervisor's business and differs
//! process to process; confined to one CPU, every hand-off between the
//! benchmark's threads and its `hdk-peer` children is a context switch on
//! a CPU that never idles. The program under test then sizes itself to
//! what it is given (`available_parallelism` = 1, so the rayon pool is 1).

/// glibc's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The highest-numbered CPU in `allowed` (interrupts tend to land on the
/// lowest), as a one-bit set.
fn last_cpu(allowed: &CpuSet) -> Option<(usize, CpuSet)> {
    let (word, bits) = allowed.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut only = [0u64; 16];
    only[word] = 1 << bit;
    Some((word * 64 + bit, only))
}

/// Confines the calling thread to the last CPU it may run on and returns
/// that CPU's number. Call before any thread or child exists: both inherit
/// the mask.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut allowed: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: both calls get a valid, correctly sized cpu_set_t; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let (cpu, only) = last_cpu(&allowed).ok_or("empty CPU set")?;
    if unsafe { sched_setaffinity(0, size, &only) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("CPU affinity is only set on Linux".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_allowed_cpu_is_chosen() {
        let mut allowed = [0u64; 16];
        assert!(last_cpu(&allowed).is_none());
        allowed[0] = 0b1011;
        assert_eq!(last_cpu(&allowed).unwrap().0, 3);
        allowed[1] = 0b100;
        let (cpu, only) = last_cpu(&allowed).unwrap();
        assert_eq!(cpu, 66);
        assert_eq!(only[1], 0b100);
        assert_eq!(only.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
    }
}
