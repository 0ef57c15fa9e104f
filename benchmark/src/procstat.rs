//! The process's own resource usage, from `getrusage(2)`: CPU time at
//! microsecond resolution, peak resident set (the counter `/proc` shows
//! as `VmHWM`) and voluntary context switches, all summed over every
//! thread the process has had — reactor and server workers that have
//! already exited included, which per-task `/proc` files would miss.

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen longs.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    maxrss_kb: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// `RUSAGE_SELF`: the calling process, all threads.
const RUSAGE_SELF: i32 = 0;

/// A reading of the process's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// CPU seconds spent in user mode.
    pub user_s: f64,
    /// CPU seconds spent in the kernel.
    pub sys_s: f64,
    /// Peak resident set size, MB (10⁶ bytes).
    pub peak_rss_mb: f64,
    /// Voluntary context switches.
    pub vol_ctx_switches: u64,
}

impl Usage {
    /// The counters now.
    ///
    /// # Panics
    ///
    /// Panics if the kernel rejects the call, which it does only for a
    /// bad `who` or pointer — a bug in this file.
    #[must_use]
    pub fn now() -> Usage {
        let mut raw = RUsage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` with the
        // layout the 64-bit Linux ABI defines (checked by the `cfg` on
        // `RUsage`), and `RUSAGE_SELF` is a valid `who`.
        let status = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(status, 0, "getrusage(RUSAGE_SELF) failed");
        Usage {
            user_s: raw.utime_sec as f64 + raw.utime_usec as f64 * 1e-6,
            sys_s: raw.stime_sec as f64 + raw.stime_usec as f64 * 1e-6,
            peak_rss_mb: raw.maxrss_kb as f64 * 1024.0 * 1e-6,
            vol_ctx_switches: raw.nvcsw.max(0) as u64,
        }
    }

    /// What was used since `earlier` (the peak is not a difference: it
    /// stays the process's peak).
    #[must_use]
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            peak_rss_mb: self.peak_rss_mb,
            vol_ctx_switches: self.vol_ctx_switches.saturating_sub(earlier.vol_ctx_switches),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_and_peak_rss_are_positive_and_monotonic() {
        let before = Usage::now();
        let mut block = vec![1u8; 8 << 20];
        for (i, byte) in block.iter_mut().enumerate() {
            *byte = (i * 31) as u8;
        }
        std::hint::black_box(&block);
        let after = Usage::now();
        assert!(after.peak_rss_mb > 8.0, "peak RSS {} MB", after.peak_rss_mb);
        assert!(after.peak_rss_mb >= before.peak_rss_mb);
        assert!(after.since(&before).user_s + after.since(&before).sys_s >= 0.0);
        assert!(after.user_s + after.sys_s > 0.0);
    }
}
