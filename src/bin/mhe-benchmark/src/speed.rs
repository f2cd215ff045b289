//! A fixed reference kernel that tracks how fast the host runs right
//! now.
//!
//! On a shared host the same binary's CPU-bound timings drift by up to
//! 1.7× over minutes while a spin loop and a DRAM-bound loop keep their
//! speed, which points at neighbours competing for the core's caches. A
//! small set-associative LRU simulation over a fixed synthetic stream —
//! the same kind of work as the program's cache simulators, written here
//! so that no change to the program can change it — slows down with them.
//! Sampling it just before and just after a CPU-bound timing gives the
//! factor that scales that timing back to a machine on which the kernel
//! takes its nominal time.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Kernel time on a quiet reference machine (2-vCPU Xeon VM at 2.0 GHz);
/// normalized timings read as if measured there.
pub const NOMINAL_KERNEL_S: f64 = 0.0045;

const SETS: usize = 1 << 14;
const WAYS: usize = 4;
const ACCESSES: usize = 1_000_000;
/// Passes per kernel sample.
const PASSES: usize = 3;

/// A fixed mix of random and sequential word addresses, built once and
/// kept: freeing and rebuilding it would leave the allocator holding a
/// varying amount of it, which would show in `peak_rss_mb`.
fn stream() -> &'static [u64] {
    static STREAM: OnceLock<Vec<u64>> = OnceLock::new();
    STREAM.get_or_init(|| {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        (0..ACCESSES as u64)
            .map(|i| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                if i.is_multiple_of(3) {
                    (state >> 40) & 0xF_FFFF
                } else {
                    (i * 8) & 0x3F_FFFF
                }
            })
            .collect()
    })
}

fn kernel_pass() -> f64 {
    let stream = stream();
    let mut sets = vec![[u64::MAX; WAYS]; SETS];
    let start = Instant::now();
    let mut misses = 0u64;
    for &addr in black_box(stream) {
        let line = addr >> 3;
        let set = &mut sets[line as usize % SETS];
        match set.iter().position(|&tag| tag == line) {
            Some(way) => set[..=way].rotate_right(1),
            None => {
                misses += 1;
                set.rotate_right(1);
                set[0] = line;
            }
        }
    }
    black_box(misses);
    start.elapsed().as_secs_f64()
}

/// Seconds one pass of the kernel takes now: the fastest of [`PASSES`]
/// passes, so that a preemption during one pass does not read as a slow
/// machine.
pub fn kernel_seconds() -> f64 {
    (0..PASSES).map(|_| kernel_pass()).fold(f64::INFINITY, f64::min)
}

/// Runs `work` between two kernel samples. Returns its output, its wall
/// time and the mean of the two samples: the kernel time around the
/// work, which one sample before a work of several seconds tracks
/// poorly.
pub fn bracketed<R>(work: impl FnOnce() -> R) -> (R, Duration, f64) {
    let before = kernel_seconds();
    let start = Instant::now();
    let out = work();
    let wall = start.elapsed();
    (out, wall, (before + kernel_seconds()) / 2.0)
}

/// Nominal ÷ median kernel time: below 1 while the machine runs slower
/// than the reference. Reported alongside the metrics it scaled.
pub fn factor(samples: &[f64]) -> Option<f64> {
    crate::stats::median(samples).map(|m| NOMINAL_KERNEL_S / m)
}

/// Seconds as if measured on the reference machine: each wall time
/// scaled by nominal ÷ its own kernel sample. Without kernel samples the
/// wall times are returned as they are.
pub fn normalized(walls: &[Duration], kernels: &[f64]) -> Vec<f64> {
    if kernels.is_empty() {
        return walls.iter().map(Duration::as_secs_f64).collect();
    }
    walls.iter().zip(kernels).map(|(w, k)| w.as_secs_f64() * NOMINAL_KERNEL_S / k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_work_and_scales_by_nominal_over_sample() {
        assert_eq!(stream().len(), ACCESSES);
        assert!(kernel_seconds() > 0.0);
        let (out, wall, kernel) = bracketed(|| 7);
        assert!(out == 7 && wall < Duration::from_secs(1) && kernel > 0.0);
        let slow = NOMINAL_KERNEL_S * 2.0;
        assert_eq!(factor(&[slow, slow, 1.0]), Some(0.5));
        assert_eq!(factor(&[]), None);
        let walls = [Duration::from_millis(100), Duration::from_millis(300)];
        assert_eq!(normalized(&walls, &[slow, NOMINAL_KERNEL_S]), vec![0.05, 0.3]);
        assert_eq!(normalized(&walls, &[]), vec![0.1, 0.3]);
    }
}
