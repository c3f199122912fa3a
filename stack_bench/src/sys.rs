//! The two things the harness needs from the OS that `std` does not offer:
//! pinning the process to one CPU, and the calling thread's CPU time.
//!
//! Both are calls into the C library `std` already links on Linux; on any
//! other system they report "unavailable" and the run goes on without.

#[cfg(target_os = "linux")]
mod linux {
    /// 1024 CPUs, the size of glibc's `cpu_set_t`.
    pub type CpuSet = [u64; 16];

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
}

/// Restricts the calling thread — and every thread it starts afterwards —
/// to the highest-numbered CPU it may run on, and returns that CPU.
///
/// With client, server reader, worker and writer on one CPU, a request is a
/// chain of plain context switches. Spread over the microVM's two vCPUs the
/// same chain crosses CPUs through wake-up interrupts and halted-vCPU exits,
/// whose cost belongs to the host and was bimodal between runs (depth-1
/// round trips of 30 µs or 90 µs for the same binary; 19.5–19.8 µs pinned).
///
/// The circuit workload is pinned too: `available_parallelism` then reads 1
/// and `tcam-core`'s `parallel_map` runs inline. On both vCPUs the fastest
/// of three `fig7_search(64×64)` read 4.37–4.77 s over six processes, on one
/// 6.32–6.52 s: whether the host has a second core free is not the
/// program's doing.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: linux::CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let got =
        unsafe { linux::sched_getaffinity(0, std::mem::size_of::<linux::CpuSet>(), &mut allowed) };
    if got != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)?;
    let mut only: linux::CpuSet = [0; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the size passed and is
    // only read; pid 0 names the calling thread.
    let set = unsafe { linux::sched_setaffinity(0, std::mem::size_of::<linux::CpuSet>(), &only) };
    (set == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Nanoseconds the calling thread has spent on a CPU. Time blocked — in an
/// `fsync` on the sandbox's virtio disk, say — does not count, which is
/// the point. `None` where the clock is unavailable.
#[cfg(target_os = "linux")]
pub fn thread_cpu_ns() -> Option<u64> {
    let mut ts = linux::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // every 64-bit Linux target) and the clock id is a constant of the ABI.
    let got = unsafe { linux::clock_gettime(linux::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (got == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_ns() -> Option<u64> {
    None
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_counts_work_and_not_sleep() {
        let t0 = thread_cpu_ns().expect("clock is available on Linux");
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = thread_cpu_ns().unwrap() - t0;
        crate::measure::canary_ms();
        let worked = thread_cpu_ns().unwrap() - t0 - slept;
        assert!(slept < 5_000_000, "sleeping cost {slept} ns of CPU");
        assert!(
            worked > 5_000_000,
            "a ~20 ms spin cost only {worked} ns of CPU"
        );
    }

    #[test]
    fn pinning_leaves_exactly_one_cpu() {
        // On its own thread: affinity is per thread, and the test runner's
        // other threads must keep theirs.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("affinity can be set");
            let mut now: linux::CpuSet = [0; 16];
            // SAFETY: as in `pin_to_one_cpu`.
            unsafe { linux::sched_getaffinity(0, std::mem::size_of::<linux::CpuSet>(), &mut now) };
            assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(now[cpu / 64] >> (cpu % 64) & 1, 1);
        })
        .join()
        .unwrap();
    }
}
