//! What the operating system and the allocator charge the process: CPU
//! time, peak resident set, context switches, heap traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    /// `ru_ixrss` .. `ru_nsignals`.
    unused: [i64; 11],
    /// Voluntary and involuntary context switches.
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Whole-process totals since start, exited threads included — which
/// `/proc/self/task/*` would lose, as rank threads end with their world.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub peak_rss_mib: f64,
    pub ctx_switches: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` of the layout
        // 64-bit Linux defines (two `timeval`s, then fourteen `long`s:
        // 144 bytes); RUSAGE_SELF (0) is always a valid `who`.
        let rc = unsafe { getrusage(0, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
        Usage {
            user_s: secs(ru.utime),
            sys_s: secs(ru.stime),
            peak_rss_mib: ru.maxrss_kib as f64 / 1024.0,
            ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// CPU time of the whole machine so far, from the first line of
/// `/proc/stat`, in jiffies: all of it, and the part the hypervisor spent
/// elsewhere while a CPU of this guest had work to run (`steal`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineTime {
    pub total: u64,
    pub stolen: u64,
}

impl MachineTime {
    /// Zero where `/proc/stat` cannot be read: nothing then counts as
    /// stolen.
    pub fn now() -> MachineTime {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal; guest time is
        // already inside user.
        MachineTime {
            total: fields.iter().take(8).sum(),
            stolen: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of the machine's CPU time since `earlier` that was stolen.
    pub fn stolen_share_since(&self, earlier: &MachineTime) -> f64 {
        (self.stolen - earlier.stolen) as f64 / (self.total - earlier.total).max(1) as f64
    }
}

/// Counts heap allocations while armed; otherwise one relaxed load on
/// top of the system allocator. Install with `#[global_allocator]`.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are side effects
// that touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn count(bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if ARMED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Run `f` with allocation counting armed; returns its result and the
/// `(calls, bytes)` allocated meanwhile by every thread of the process.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    let calls = CALLS.load(Ordering::Relaxed) - before.0;
    let bytes = BYTES.load(Ordering::Relaxed) - before.1;
    (out, calls, bytes)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of a `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// Bind the calling thread — and every thread it later spawns — to the
/// `slot`-th CPU (modulo their number) of those the process may run on,
/// as an MPI launcher binds ranks to cores. Without it the kernel's
/// placement of rank threads decides whether a wake-up crosses CPUs,
/// which on a small virtual machine moves a round trip from 3 to 50 µs
/// and makes every number here bimodal. Returns the CPU chosen, or
/// `None` where the affinity calls are refused (the thread then stays
/// unbound).
pub fn bind_to_cpu(slot: usize) -> Option<usize> {
    let mut allowed = [0u64; CPU_SET_WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpus: Vec<usize> =
        (0..CPU_SET_WORDS * 64).filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1).collect();
    let cpu = *cpus.get(slot % cpus.len().max(1))?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed, naming a
    // CPU the kernel just reported as allowed; pid 0 names the calling
    // thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}
