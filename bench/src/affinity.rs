//! Pinning a workload to one processor.
//!
//! On a shared virtual machine a wake-up that crosses virtual CPUs costs more
//! than the work it hands over, and how much more depends on the host at that
//! moment. Measured on the 2-CPU box this was written on, ten seeds each:
//!
//! | workload | both CPUs | one CPU |
//! |---|---|---|
//! | `net-closed-k1` | 14–19k acq/s, spread 12–23 %, 57–101 us CPU/acq | 21k acq/s, spread 5.5 %, 46 us |
//! | `net-churn` | 31–41k acq/s, spread 7–10 %, 41–51 us | 51k acq/s, spread 14 %, 19 us |
//! | `cluster-closed` | 26–29k acq/s, spread 7–18 %, 55–61 us | 37k acq/s, spread 6.6 %, 27 us |
//! | `net-open-zipf` | 112 us CPU/acq, spread 2–4 % | 79 us, spread 3 % |
//!
//! Every live workload is *faster* on one CPU, and the latency-bound ones
//! agree between identical runs four times better. So every workload pins
//! itself before it starts a thread or a process; everything it spawns
//! inherits the mask. What is lost — the cost of crossing CPUs, and any gain
//! from a second one — is listed under the README's blind spots.

use crate::report::Report;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on.
fn allowed_cpus() -> Option<Vec<usize>> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable, properly aligned 128-byte buffer and
    // the size passed is exactly its size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then(|| {
        (0..1024)
            .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Restrict the calling thread — and every thread and process it starts from
/// now on — to the first CPU it is currently allowed on. Returns that CPU, or
/// `None` if the mask could not be read or set (the workload then runs
/// unpinned and says so).
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus()?.first()?;
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live, properly aligned 128-byte buffer that the call
    // only reads, and the size passed is exactly its size; pid 0 names the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    (rc == 0).then_some(cpu)
}

/// Pin the calling workload to one CPU and say so in its report.
pub fn pin_workload(report: &mut Report) {
    match pin_to_one_cpu() {
        Some(cpu) => report.note(format!(
            "pinned to CPU {cpu} with everything it starts: no cross-CPU wake-up is measured"
        )),
        None => report.note("could not pin to one CPU: running unpinned, expect wider spread"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_exactly_one_cpu_and_children_inherit_it() {
        // In a thread of its own: the mask is per thread, and the other tests
        // of this process must keep theirs.
        std::thread::spawn(|| {
            let before = allowed_cpus().expect("affinity is readable on Linux");
            assert!(!before.is_empty());
            let cpu = pin_to_one_cpu().expect("a thread may always narrow its own mask");
            assert_eq!(cpu, before[0]);
            assert_eq!(allowed_cpus(), Some(vec![cpu]));
            assert_eq!(
                std::thread::available_parallelism().map(|p| p.get()).ok(),
                Some(1)
            );
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(child, Some(vec![cpu]));
        })
        .join()
        .unwrap();
    }
}
