//! Host facts and process counters read from outside the program: CPU
//! time, peak resident memory and hypervisor steal.

use std::fs;

/// Total CPU time (user + system, all threads) this process has used, in
/// nanoseconds.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime writes one Timespec through a valid pointer and
    // has no other effects; the struct layout matches the Linux x86-64 and
    // aarch64 ABIs.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Hands freed heap back to the kernel and restarts the `VmHWM` high-water
/// mark from the current resident set (Linux >= 4.0), so [`rss_peak_mb`]
/// covers only what runs after this call and not the set-up before it.
///
/// # Errors
///
/// Fails when `/proc/self/clear_refs` does not take the reset; the peak
/// would then silently include set-up.
pub fn reset_rss_peak() -> Result<(), String> {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only returns free glibc heap pages to the
        // kernel; it takes no pointer and leaves live allocations alone.
        unsafe {
            malloc_trim(0);
        }
    }
    fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting VmHWM through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size (`VmHWM`) of this process, in MiB, since the last
/// [`reset_rss_peak`].
pub fn rss_peak_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Aggregate CPU tick counters from the first line of `/proc/stat`.
#[derive(Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    pub fn now() -> Self {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return Self::default();
        };
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        Self {
            // user nice system idle iowait irq softirq steal guest guest_nice;
            // guest time is already counted in user, so the total stops at steal.
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// Steal ticks since `earlier` and their share of all ticks, in percent.
    pub fn steal_since(self, earlier: CpuTicks) -> (u64, f64) {
        let steal = self.steal.saturating_sub(earlier.steal);
        let total = self.total.saturating_sub(earlier.total);
        let pct = if total > 0 {
            steal as f64 / total as f64 * 100.0
        } else {
            0.0
        };
        (steal, pct)
    }
}

/// Number of CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string())
}
