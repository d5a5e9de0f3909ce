//! Machine-speed calibration: a fixed kernel, timed around every job and
//! set-up, that tracks how fast this machine is running at the moment.
//!
//! On a shared machine the speed of identical work drifts by up to 1.5×
//! from one minute to the next, far more than the changes the benchmark
//! must resolve. Each timed interval is therefore also reported in
//! *reference seconds*: wall seconds scaled by `KERNEL_REF_S` over the
//! kernel's median time in a window around the interval. The kernel mixes
//! the placer's two kinds of work in about equal time: small allocating,
//! sorting and floating-point steps like the annealers', and indexed gathers
//! over a CSR-shaped sparse matrix larger than the L2 cache like the
//! evaluation's. It is not program code, so a faster program never changes
//! the scale.

use crate::inputs::secs;
use crate::trace::Clock;
use std::hint::black_box;

const ROWS: usize = 1 << 16;
const PER_ROW: usize = 8;
const SWEEPS: usize = 6;
const CURVES: usize = 2500;

/// Kernel seconds that define one reference second: the kernel's typical
/// time on the 2-vCPU x86-64 machine the benchmark was tuned on.
pub const KERNEL_REF_S: f64 = 0.010;

/// Kernel samples within this many nanoseconds of an interval scale it.
const WINDOW_NS: u64 = 1_000_000_000;

/// Seconds of work per kernel sample taken after an interval (about 5%).
const SAMPLE_EVERY_S: f64 = 0.2;

/// The kernel's inputs and every sample taken so far.
pub struct Calibrator {
    clock: Clock,
    cols: Vec<u32>,
    vals: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    /// (timestamp, kernel seconds), in time order.
    samples: Vec<(u64, f64)>,
}

impl Calibrator {
    pub fn new(clock: Clock) -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let cols = (0..ROWS * PER_ROW).map(|_| (next() % ROWS as u64) as u32).collect();
        let vals = (0..ROWS * PER_ROW).map(|_| (next() % 1000) as f64 * 1e-4).collect();
        Self { clock, cols, vals, x: vec![1.0; ROWS], y: vec![0.0; ROWS], samples: Vec::new() }
    }

    /// The annealer-like half: build, sort and prune many small shape
    /// curves (allocation, branches and floating point in L1).
    fn curves(&mut self) -> f64 {
        let mut acc = 0.0;
        for r in 0..CURVES {
            let mut curve: Vec<(f64, f64)> = (0..64)
                .map(|i| {
                    let w = ((i * 37 + r * 11) % 97) as f64 + 1.0;
                    (w, 4096.0 / w)
                })
                .collect();
            curve.sort_by(|a, b| a.0.total_cmp(&b.0));
            curve.dedup_by(|b, a| b.1 >= a.1);
            acc += curve.iter().map(|&(w, h)| w * h).sum::<f64>() / curve.len() as f64;
        }
        acc
    }

    /// The evaluation-like half: a sparse matrix–vector sweep.
    fn sweep(&mut self) {
        for (row, y) in self.y.iter_mut().enumerate() {
            let span = row * PER_ROW..(row + 1) * PER_ROW;
            let mut acc = 0.0;
            for (&c, &v) in self.cols[span.clone()].iter().zip(&self.vals[span]) {
                acc += v * self.x[c as usize];
            }
            *y = acc;
        }
        for (x, y) in self.x.iter_mut().zip(&self.y) {
            *x = 0.5 * *x + 0.5 * y.sqrt();
        }
    }

    /// Times one run of the kernel. One untimed sweep first brings its
    /// working set into cache, so what the measured program left in cache
    /// does not move the sample.
    fn sample(&mut self) {
        self.x.fill(1.0);
        self.sweep();
        let start = self.clock.now();
        for _ in 0..SWEEPS {
            self.sweep();
        }
        black_box(self.curves());
        black_box(&self.x);
        let end = self.clock.now();
        self.samples.push((end, secs(start, end)));
    }

    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Samples the kernel after an interval of `seconds`: about 5% of it,
    /// at least once.
    pub fn after(&mut self, seconds: f64) {
        let n = (seconds / SAMPLE_EVERY_S).ceil().max(1.0) as usize;
        for _ in 0..n {
            self.sample();
        }
    }

    /// The interval `start..end` in reference seconds: its wall seconds
    /// scaled by the reference over the median kernel sample within a
    /// second of it.
    pub fn reference_s(&self, start: u64, end: u64) -> f64 {
        let lo = start.saturating_sub(WINDOW_NS);
        let hi = end.saturating_add(WINDOW_NS);
        let mut near: Vec<f64> =
            self.samples.iter().filter(|(t, _)| (lo..=hi).contains(t)).map(|&(_, s)| s).collect();
        if near.is_empty() {
            near = self.samples.iter().map(|&(_, s)| s).collect();
        }
        let kernel = crate::stats::median(&near).unwrap_or(KERNEL_REF_S);
        secs(start, end) * KERNEL_REF_S / kernel
    }

    /// Median of every kernel sample so far.
    pub fn kernel_s(&self) -> f64 {
        crate::stats::median(&self.samples.iter().map(|&(_, s)| s).collect::<Vec<_>>())
            .unwrap_or(f64::NAN)
    }
}

/// Pins the process to the CPU it is running on, so every job, the
/// engine's worker threads and the kernel share one CPU and the kernel
/// measures the speed the jobs saw. Threads spawned later inherit the pin.
/// Returns the CPU, or `None` where pinning is unavailable.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reports which CPU
    // the calling thread is on.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // a `cpu_set_t`: 1024 bits
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed, laid out
    // as a `cpu_set_t`; the call only reads it. Pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_seconds_scale_by_nearby_samples_only() {
        let mut c = Calibrator::new(Clock::new());
        let s = 1_000_000_000u64;
        // a slow phase (kernel at twice the reference) far from a fast one
        c.samples =
            vec![(s, 2.0 * KERNEL_REF_S), (2 * s, 2.0 * KERNEL_REF_S), (9 * s, KERNEL_REF_S)];
        assert!((c.reference_s(s, 2 * s) - 0.5).abs() < 1e-12);
        assert!((c.reference_s(9 * s, 10 * s) - 1.0).abs() < 1e-12);
        // no sample nearby: the median of all of them
        assert!((c.reference_s(30 * s, 31 * s) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn kernel_is_timed() {
        let mut c = Calibrator::new(Clock::new());
        c.after(0.0);
        assert_eq!(c.samples.len(), 1);
        assert!(c.kernel_s() > 0.0);
    }
}
