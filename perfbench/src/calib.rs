//! Reference-speed timing.
//!
//! The benchmark runs on a few virtual CPUs of a shared host, whose speed
//! swings by up to a factor of two for seconds to minutes at a time as
//! other tenants come and go. A wall-clock time taken in a slow phase
//! says as much about the neighbours as about the program. So every
//! timed stretch of compute-bound work (the library's calls, set-ups) is
//! followed by a fixed calibration kernel of the same kind of work, and
//! its wall time is scaled by how fast the kernel ran around it compared
//! with [`REF_KERNEL_S`], the kernel's time on a quiet reference machine
//! (2 vCPUs of an Intel Xeon VM). The result is the time the work would
//! have taken at the reference speed: the program's own speed-ups and
//! slow-downs show in full, while a slow phase of the host slows the
//! kernel and the work alike and cancels. The kernel is the benchmark's
//! own code, so no change to the program moves it.
//!
//! Request traffic is another matter: a busy host mostly delays the
//! wake-ups a round trip is made of, by more than any kernel showed and
//! by a different factor each time, so the TCP workloads measure their
//! capacity in CPU time instead (see [`crate::load::drive`]).

use crate::stats::median;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The kernel's median wall time on the reference machine, in seconds.
pub const REF_KERNEL_S: f64 = 0.0200;

/// Entries of the table the kernel reads: 256 KiB, a private-cache
/// working set like the engine's spatial index and flag buffers.
const TABLE: usize = 1 << 15;
/// Kernel steps.
const STEPS: usize = 400_000;
/// Kernel runs on each side of a stretch of work that set its speed: the
/// mean of a few runs is steadier than one, weighs a stretch that spans
/// a change of phase by both sides, and the host's phases last far longer
/// than the few stretches the window covers.
const WINDOW: usize = 3;

/// The kernel: dependent table reads mixed with the square roots and arc
/// tangents the coverage geometry is made of.
fn kernel(seed: u64) -> f64 {
    static TABLE_DATA: OnceLock<Vec<f64>> = OnceLock::new();
    let table = TABLE_DATA.get_or_init(|| (0..TABLE).map(|i| (i as f64).sin()).collect());
    let (mut x, mut acc) = (seed | 1, 0.0f64);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = table[(x as usize ^ acc.to_bits() as usize) % TABLE];
        acc += (v * v + 1.0).sqrt().atan2(acc.abs() + 1.0);
    }
    acc
}

/// Runs the kernel on the calling thread; returns its wall time, s. (On
/// one thread per CPU, the scheduler now and then started both threads
/// on one CPU, doubling the kernel's time while the work's stayed put.)
pub fn kernel_s() -> f64 {
    let t = Instant::now();
    black_box(kernel(black_box(1)));
    t.elapsed().as_secs_f64()
}

/// A stopwatch in reference seconds. [`RefClock::time`] runs the kernel
/// after each stretch of work; [`RefClock::ref_s`] scales a stretch's
/// wall time by the mean kernel time of the `WINDOW` runs before it and
/// the `WINDOW` after it.
pub struct RefClock {
    /// Kernel times: one before the first stretch, one after each.
    kernels: Vec<f64>,
    /// Wall time of each stretch, s.
    walls: Vec<f64>,
}

impl RefClock {
    pub fn new() -> RefClock {
        RefClock {
            kernels: vec![kernel_s()],
            walls: Vec::new(),
        }
    }

    /// Runs `f` as the next stretch; returns its result and its index.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, usize) {
        let t = Instant::now();
        let value = f();
        self.walls.push(t.elapsed().as_secs_f64());
        self.kernels.push(kernel_s());
        (value, self.walls.len() - 1)
    }

    /// Wall time of stretch `i`, s.
    pub fn wall_s(&self, i: usize) -> f64 {
        self.walls[i]
    }

    /// Wall time of the kernel run that followed stretch `i`, s.
    pub fn kernel_after_s(&self, i: usize) -> f64 {
        self.kernels[i + 1]
    }

    /// Time of stretch `i` at the reference speed, s.
    pub fn ref_s(&self, i: usize) -> f64 {
        // Stretch i ran between kernel runs i and i + 1.
        let lo = (i + 1).saturating_sub(WINDOW);
        let hi = (i + WINDOW).min(self.kernels.len() - 1);
        let around = &self.kernels[lo..=hi];
        self.walls[i] * REF_KERNEL_S * around.len() as f64 / around.iter().sum::<f64>()
    }

    /// Median kernel time over the run, s (the host's speed, for the log).
    pub fn median_kernel_s(&self) -> f64 {
        median(&self.kernels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_by_the_kernel_around_each_stretch() {
        // Four stretches in a normal phase, then five in a phase three
        // times slower, where the same work takes three times as long.
        let mut kernels = vec![1.0; 4];
        kernels.extend([3.0; 6]);
        let mut walls = vec![2.0; 4];
        walls.extend([6.0; 5]);
        let clock = RefClock { kernels, walls };
        let close = |a: f64, b: f64| (a / b - 1.0).abs() < 1e-12;
        assert!(close(clock.ref_s(0), 2.0 * REF_KERNEL_S));
        assert!(close(clock.ref_s(8), clock.ref_s(0)));
        assert_eq!(clock.wall_s(8), 6.0);
        // A stretch at the edge of the phase takes the mean of the six
        // kernel runs around it, two of them in the normal phase.
        assert!(close(clock.ref_s(4), 6.0 * REF_KERNEL_S * 6.0 / 14.0));
    }
}
