//! Order statistics over timing samples.

use std::time::{Duration, Instant};

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Samples a percentile needs so that at least ten lie beyond it.
pub fn samples_for_tail(q: f64) -> usize {
    (10.0 / (1.0 - q) - 1e-9).ceil() as usize
}

/// On-CPU time of this process so far: every thread, user and system, as
/// the kernel accounts it (`CLOCK_PROCESS_CPUTIME_ID`). Time a thread spends
/// runnable but waiting for a core is not in it, whether the core went to
/// another process or, on a virtual machine with steal-time accounting, to
/// another guest; time blocked on I/O or a lock is not either.
pub fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Wall time and on-CPU time of one timed call, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall_ms: f64,
    pub cpu_ms: f64,
}

impl Timed {
    /// Times one call of `f`.
    pub fn call<T>(f: impl FnOnce() -> T) -> (T, Timed) {
        let (t, c) = (Instant::now(), cpu_time());
        let out = f();
        let timed = Timed {
            wall_ms: t.elapsed().as_secs_f64() * 1e3,
            cpu_ms: (cpu_time().saturating_sub(c)).as_secs_f64() * 1e3,
        };
        (out, timed)
    }
}

/// The wall times (ms) of a sample.
pub fn wall(s: &[Timed]) -> Vec<f64> {
    s.iter().map(|t| t.wall_ms).collect()
}

/// The on-CPU times (ms) of a sample.
pub fn cpu(s: &[Timed]) -> Vec<f64> {
    s.iter().map(|t| t.cpu_ms).collect()
}

/// Median wall time of `reps` calls of `f`, in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Runs `f` until both `min_samples` calls and `budget` are spent; returns
/// each call's wall and on-CPU time.
pub fn time_loop(min_samples: usize, budget: Duration, f: impl FnMut()) -> Vec<Timed> {
    time_loop_after(min_samples, budget, || {}, f)
}

/// [`time_loop`], running `before` untimed ahead of every timed call.
pub fn time_loop_after(
    min_samples: usize,
    budget: Duration,
    mut before: impl FnMut(),
    mut f: impl FnMut(),
) -> Vec<Timed> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_samples || start.elapsed() < budget {
        before();
        out.push(Timed::call(&mut f).1);
    }
    out
}

/// Whether [`evict`] works on this host: it needs the x86-64 `clflushopt`
/// instruction (plain `clflush` took 145 ms for 52 MB on the reference
/// host, `clflushopt` about 3 ms).
pub fn evicts() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static HAS: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        // CPUID leaf 7, EBX bit 23: CLFLUSHOPT.
        *HAS.get_or_init(|| std::arch::x86_64::__cpuid_count(7, 0).ebx & (1 << 23) != 0)
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Writes `data` back to memory and drops it from every cache level, so the
/// next call that reads it streams it from memory whatever else shares the
/// host's last-level cache. Does nothing where [`evicts`] is false.
pub fn evict(data: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    if evicts() {
        const LINE: usize = 64;
        let base = data.as_ptr() as *const u8;
        // SAFETY: every flushed address lies inside `data`; the processor
        // supports `clflushopt` (checked above), and the fence orders the
        // flushes before whatever the caller times next.
        unsafe {
            for off in (0..std::mem::size_of_val(data)).step_by(LINE) {
                std::arch::asm!(
                    "clflushopt [{0}]",
                    in(reg) base.add(off),
                    options(nostack, preserves_flags)
                );
            }
            std::arch::x86_64::_mm_mfence();
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_sample_counts_leave_ten_beyond() {
        assert_eq!(samples_for_tail(0.99), 1000);
        assert_eq!(samples_for_tail(0.95), 200);
        assert_eq!(samples_for_tail(0.9), 100);
    }

    #[test]
    fn time_loop_meets_the_minimum_count() {
        let mut n = 0;
        let s = time_loop(7, Duration::ZERO, || n += 1);
        assert_eq!((s.len(), n), (7, 7));
    }

    #[test]
    fn evict_leaves_the_data_unchanged() {
        let v: Vec<f64> = (0..10_000).map(f64::from).collect();
        let before = v.clone();
        evict(&v);
        evict(&v[3..17]);
        evict(&[]);
        assert_eq!(v, before);
    }

    #[test]
    fn cpu_time_counts_work_and_not_sleep() {
        let (_, slept) = Timed::call(|| std::thread::sleep(Duration::from_millis(50)));
        assert!(slept.wall_ms >= 50.0 && slept.cpu_ms < 25.0, "{slept:?}");
        let (_, busy) = Timed::call(|| {
            let t = Instant::now();
            while t.elapsed() < Duration::from_millis(30) {
                std::hint::black_box(0);
            }
        });
        assert!(busy.cpu_ms > 1.0, "{busy:?}");
    }
}
