//! The `HostCpu` clock and peak memory of this process.

/// Parse `VmHWM` (kB) out of `/proc/<pid>/status`.
pub fn parse_status_vmhwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// `struct timespec` of the 64-bit Linux ABIs.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    // From the C library `std` already links; not a new dependency.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time (user + system, all threads, exited ones included) this
/// process has consumed so far, in milliseconds, at the clock's own
/// (nanosecond) resolution. `utime + stime` of `/proc/self/stat` count
/// the same time in 10 ms ticks — a quarter of one timed pass.
pub fn process_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of
    // the call, which writes nothing else and keeps no pointer to it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_vmhwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}
