//! The host clock every end-to-end time is read from: CPU time of this
//! process.
//!
//! On a shared host the benchmark's process is descheduled whenever
//! something else wants its cores; wall time counts those pauses and CPU
//! time does not. The benchmark is single-threaded (see `main`), so with
//! nothing else running the two agree. Spans of the traced pass stay on
//! the cheaper monotonic wall clock (`span.rs`).

/// Process CPU time since an arbitrary origin, in seconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
pub fn now() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` and the clock id
    // is one Linux defines; the call writes only through `tp`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere: wall time since the first call, in seconds.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn now() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Seconds of [`now`] elapsed since `t0`.
pub fn since(t0: f64) -> f64 {
    now() - t0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_with_work_and_never_goes_back() {
        // Tests run on parallel threads, all charged to this process, so
        // only lower bounds hold here.
        let t0 = now();
        let mut x = 0u64;
        while since(t0) < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let t1 = now();
        assert!(t1 - t0 >= 0.02);
        assert!(now() >= t1);
    }
}
