//! CPU placement: every thread of a run — generator, reactor, workers,
//! in-process callers — on one CPU, and the other CPUs left alone.
//!
//! On a virtual machine a wake-up that crosses CPUs is an inter-processor
//! interrupt and usually a halted vCPU to wake: two exits to the host per
//! hand-off, whose price is the host's and changes from minute to minute. With
//! the generator on one CPU and the server on another (this file's first
//! version) a depth-1 request cost 70 µs of CPU against 37 µs with both on one
//! CPU, ran at half the rate, and spread two to three times as widely from
//! run to run; whatever else ran in the VM — the driver, a flusher thread —
//! took its time from one side or the other. On one CPU hand-offs are plain
//! context switches, and anything else the machine has to run finds the
//! other CPUs idle (see the README). The calls are the raw
//! `sched_setaffinity`/`sched_getaffinity`/`setpriority` from libc, which
//! `std` already links.

use std::sync::atomic::{AtomicBool, Ordering};

/// Words in the affinity mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;
/// `setpriority`'s `which` for "a process" (on Linux: the calling thread).
const PRIO_PROCESS: i32 = 0;
/// Nice value asked for: at −10 a normal-priority task that lands on the
/// run's CPU gets about a tenth of it instead of half.
const NICE: i32 = -10;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

/// The CPUs this thread may currently run on, ascending. Empty if the kernel
/// refuses the query.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread; the kernel writes at most that
    // many bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restrict the calling thread (and every thread it spawns afterwards) to
/// `cpus`. Returns whether the kernel accepted the mask.
fn pin_current(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        if cpu >= MASK_WORDS * 64 {
            return false;
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length passed and
    // is only read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Whether [`raise_priority`] was called and the kernel agreed.
static PRIORITY_RAISED: AtomicBool = AtomicBool::new(false);

/// Raise the scheduling priority of the calling thread and of every thread it
/// spawns afterwards. Needs root; without it the run is the same, only more
/// exposed to whatever shares its CPU.
pub fn raise_priority() {
    // SAFETY: plain integers; `who` 0 names the calling thread.
    let agreed = unsafe { setpriority(PRIO_PROCESS, 0, NICE) == 0 };
    PRIORITY_RAISED.store(agreed, Ordering::Relaxed);
}

/// Whether this process runs at the raised priority.
pub fn priority_raised() -> bool {
    PRIORITY_RAISED.load(Ordering::Relaxed)
}

/// Where a run's threads execute.
#[derive(Debug, Clone)]
pub struct CpuPlan {
    /// The one CPU the run is confined to; `None` means the kernel refused
    /// the mask, [`CpuPlan::pin`] is a no-op and the run reports itself as
    /// unpinned.
    pub cpu: Option<usize>,
    /// The CPUs the process could use before pinning.
    allowed: Vec<usize>,
}

impl CpuPlan {
    /// Choose the last of `cpus` — the first is where a small VM takes its
    /// interrupts and where everything else tends to start — after a trial:
    /// a cpuset that forbids the mask leaves the run unpinned.
    pub fn choose(cpus: &[usize]) -> CpuPlan {
        let cpu = cpus
            .last()
            .copied()
            .filter(|&cpu| pin_current(&[cpu]) && pin_current(cpus));
        CpuPlan {
            cpu,
            allowed: cpus.to_vec(),
        }
    }

    /// The plan for this process.
    pub fn detect() -> CpuPlan {
        CpuPlan::choose(&allowed_cpus())
    }

    /// Confine the calling thread, and every thread it spawns from now on, to
    /// the run's CPU.
    pub fn pin(&self) {
        if let Some(cpu) = self.cpu {
            pin_current(&[cpu]);
        }
    }

    /// Give the calling thread back every CPU it had before.
    pub fn release(&self) {
        if self.cpu.is_some() {
            pin_current(&self.allowed);
        }
    }

    /// Whether the run is confined to one CPU.
    pub fn pinned(&self) -> bool {
        self.cpu.is_some()
    }

    /// CPUs the process could use before pinning.
    pub fn host_cpus(&self) -> usize {
        self.allowed.len()
    }
}

/// CPUs the server's threads run on: one, shared with the generator, so
/// `ServerConfig.workers` is 1 whatever the host has.
pub const SERVER_CPUS: usize = 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_refused_mask_falls_back_to_unpinned() {
        // No host has CPU 1023 in a cpuset of two: the kernel answers EINVAL
        // for a mask with no usable CPU.
        assert!(!pin_current(&[1023]));
        assert!(!pin_current(&[MASK_WORDS * 64]));
        let plan = CpuPlan::choose(&[1022, 1023]);
        assert!(!plan.pinned());
        // The no-op pin must leave the thread where it was.
        let before = allowed_cpus();
        plan.pin();
        plan.release();
        assert_eq!(allowed_cpus(), before);
    }

    #[test]
    fn pin_confines_to_the_last_cpu_and_release_undoes_it() {
        let before = allowed_cpus();
        let plan = CpuPlan::detect();
        assert_eq!(plan.host_cpus(), before.len());
        if plan.pinned() {
            plan.pin();
            assert_eq!(allowed_cpus(), vec![*before.last().unwrap()]);
            // A thread spawned now inherits the mask.
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(child, vec![*before.last().unwrap()]);
            plan.release();
        }
        assert_eq!(allowed_cpus(), before);
    }

    #[test]
    fn no_cpus_means_unpinned() {
        assert!(!CpuPlan::choose(&[]).pinned());
    }
}
