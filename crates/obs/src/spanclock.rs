//! Telemetry span timing at sub-`Instant` cost.
//!
//! `Instant::now()` is a vDSO `clock_gettime` call (~25–30 ns on the
//! reference container). A serving hot path that needs several boundary
//! timestamps per sample pays more for the clock than for the histograms it
//! feeds, so on x86_64 [`SpanStamp::now`] reads the invariant TSC instead
//! (~7 ns) and converts tick deltas to nanoseconds with a once-calibrated
//! rate. Other architectures fall back to `Instant` transparently.
//!
//! **Scope: telemetry spans, same machine.** Same-thread spans are always
//! exact. Cross-thread spans (queue wait, end-to-end latency) are reliable
//! on the machines this crate targets: every x86_64 part from the last
//! decade advertises an *invariant* TSC that ticks in lockstep across all
//! cores of a socket, and the non-x86_64 fallback is `Instant`, which is
//! globally monotonic by definition. The residual hazard — a vCPU migration
//! on a hypervisor without TSC scaling — makes a span come out negative, and
//! [`SpanStamp::duration_since`] saturates that to zero rather than
//! wrapping, so a skewed stamp can shorten one observed span but never
//! poison a histogram with a garbage outlier. Correctness-critical timing
//! (deadlines, rate limits) should still use `Instant`.

use std::time::Duration;

/// One boundary timestamp of a telemetry span.
///
/// Obtain with [`SpanStamp::now`], turn two into a [`Duration`] with
/// [`SpanStamp::duration_since`]. Copyable and 8 bytes on x86_64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStamp(imp::Inner);

impl SpanStamp {
    /// Reads the current stamp (one `rdtsc` on x86_64, `Instant::now`
    /// elsewhere).
    #[inline]
    pub fn now() -> Self {
        SpanStamp(imp::now())
    }

    /// Nanosecond span from `earlier` to `self`, saturating to zero if the
    /// clock appears to have gone backwards.
    #[inline]
    pub fn duration_since(self, earlier: SpanStamp) -> Duration {
        imp::duration_since(self.0, earlier.0)
    }

    /// [`duration_since`](Self::duration_since) as raw nanoseconds — the
    /// hot-path variant that skips the `Duration` round trip when the span
    /// feeds a nanosecond-keyed histogram directly.
    #[inline]
    pub fn nanos_since(self, earlier: SpanStamp) -> u64 {
        imp::nanos_since(self.0, earlier.0)
    }
}

/// Forces the tick-rate calibration to run now instead of lazily inside the
/// first measured span. Call once at substrate setup (cheap no-op after the
/// first call, and on non-x86_64 targets).
pub fn warm() {
    imp::warm();
}

#[cfg(target_arch = "x86_64")]
mod imp {
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    pub(super) type Inner = u64;

    #[inline]
    pub(super) fn now() -> Inner {
        // SAFETY: RDTSC is unprivileged and has no memory effects.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    /// Nanoseconds per TSC tick as a 32.32 fixed-point factor, measured
    /// once against the monotonic clock over a ~200 µs spin window. The
    /// boundary-read error (one clock read plus one TSC read) is under 0.1%
    /// of the window. Fixed point keeps the per-span conversion to one
    /// widening multiply: no `u64`↔`f64` round trip on the hot path.
    fn ns_per_tick_q32() -> u64 {
        static RATE: OnceLock<u64> = OnceLock::new();
        *RATE.get_or_init(|| {
            // LINT-ALLOW: instant-hot-path — this IS the once-per-process TSC calibration the rule points hot paths at.
            let started = Instant::now();
            let c0 = now();
            while started.elapsed() < Duration::from_micros(200) {
                std::hint::spin_loop();
            }
            let c1 = now();
            let elapsed = started.elapsed();
            let ticks = c1.wrapping_sub(c0);
            if ticks == 0 {
                // A TSC that does not advance across 200 µs is unusable;
                // degrade to "1 tick = 1 ns" rather than divide by zero.
                1 << 32
            } else {
                (elapsed.as_nanos() as f64 / ticks as f64 * (1u64 << 32) as f64) as u64
            }
        })
    }

    #[inline]
    pub(super) fn duration_since(later: Inner, earlier: Inner) -> Duration {
        Duration::from_nanos(nanos_since(later, earlier))
    }

    #[inline]
    pub(super) fn nanos_since(later: Inner, earlier: Inner) -> u64 {
        let ticks = later.saturating_sub(earlier);
        let ns = (u128::from(ticks) * u128::from(ns_per_tick_q32())) >> 32;
        u64::try_from(ns).unwrap_or(u64::MAX)
    }

    pub(super) fn warm() {
        ns_per_tick_q32();
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod imp {
    use std::time::{Duration, Instant};

    pub(super) type Inner = Instant;

    #[inline]
    pub(super) fn now() -> Inner {
        // LINT-ALLOW: instant-hot-path — non-x86_64 fallback: Instant is the best monotonic source when there is no TSC.
        Instant::now()
    }

    #[inline]
    pub(super) fn duration_since(later: Inner, earlier: Inner) -> Duration {
        later.saturating_duration_since(earlier)
    }

    #[inline]
    pub(super) fn nanos_since(later: Inner, earlier: Inner) -> u64 {
        u64::try_from(later.saturating_duration_since(earlier).as_nanos()).unwrap_or(u64::MAX)
    }

    pub(super) fn warm() {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn span_tracks_the_monotonic_clock() {
        warm();
        // Spin for ~2 ms measured by Instant and check the SpanStamp span
        // agrees within a generous tolerance (covers calibration error and
        // scheduler preemption in CI).
        // LINT-ALLOW: instant-hot-path — test oracle: the wall clock is the reference the span is checked against.
        let wall = Instant::now();
        let s0 = SpanStamp::now();
        while wall.elapsed() < Duration::from_millis(2) {
            std::hint::spin_loop();
        }
        let s1 = SpanStamp::now();
        let span = s1.duration_since(s0);
        let wall = wall.elapsed();
        assert!(
            span >= wall / 2 && span <= wall * 2,
            "span {span:?} diverges from wall {wall:?}"
        );
    }

    #[test]
    fn reversed_stamps_saturate_to_zero() {
        let a = SpanStamp::now();
        let b = SpanStamp::now();
        assert_eq!(a.duration_since(b), Duration::ZERO);
    }
}
