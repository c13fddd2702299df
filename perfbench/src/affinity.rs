//! CPU affinity through the C library's `sched_getaffinity` and
//! `sched_setaffinity` (the standard library has no wrapper).
//!
//! serve-warm keeps its load generator and the server on different
//! CPUs: on a 2-CPU host, two client threads and two server workers
//! left to the scheduler change places from run to run, and the
//! request rate moved by a third between runs of the same code.

/// Words of a glibc `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;

#[repr(C)]
struct CpuSet([u64; WORDS]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs thread `tid` may run on (0 = the calling thread); empty if
/// the call fails.
pub fn get(tid: i32) -> Vec<usize> {
    let mut set = CpuSet([0; WORDS]);
    // SAFETY: `set` is a writable buffer of exactly the size passed,
    // laid out as the kernel's CPU bitmask; the call writes only
    // within it.
    let rc = unsafe { sched_getaffinity(tid, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..WORDS * 64)
        .filter(|&cpu| (set.0[cpu / 64] >> (cpu % 64)) & 1 == 1)
        .collect()
}

/// Restricts thread `tid` (0 = the calling thread) to `cpus`. Threads
/// it spawns afterwards inherit the restriction.
pub fn set(tid: i32, cpus: &[usize]) -> bool {
    let mut set = CpuSet([0; WORDS]);
    for &cpu in cpus.iter().filter(|&&cpu| cpu < WORDS * 64) {
        set.0[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a readable buffer of exactly the size passed,
    // laid out as the kernel's CPU bitmask; the call only reads it.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// Restricts every thread of process `pid` to `cpus`.
pub fn set_process(pid: u32, cpus: &[usize]) -> bool {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return false;
    };
    let mut all = true;
    for task in tasks.flatten() {
        if let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) {
            all &= set(tid, cpus);
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_can_narrow_and_restore_its_cpus() {
        std::thread::spawn(|| {
            let allowed = get(0);
            assert!(!allowed.is_empty());
            assert!(set(0, &allowed[..1]));
            assert_eq!(get(0), allowed[..1]);
            assert!(set(0, &allowed));
            assert_eq!(get(0), allowed);
        })
        .join()
        .expect("affinity thread");
    }
}
