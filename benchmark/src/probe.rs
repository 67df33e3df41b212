//! The host-speed probe: a fixed amount of benchmark-owned arithmetic,
//! timed on as many threads as the workload computes on.
//!
//! The reference host is a 2-vCPU VM whose vCPUs slow down by 25–40 % for
//! 10–20 minutes at a time when a neighbour loads the sibling hardware
//! threads. A workload that computes on both vCPUs is gated by the slower
//! one, so its raw seconds are bimodal and no statistic taken inside one
//! run can tell a slow host from a slow program. The probe can: it shares
//! no code with the repository (a change to the program cannot move it),
//! it is gated by the slower thread exactly as a statically chunked
//! parallel region is, and it is short enough (2 ms) to run between steps
//! or, at a 2 % duty cycle, beside a job that owns both vCPUs.

use std::sync::Barrier;
use std::time::Instant;

/// What the probe reads on the reference host (2-vCPU Xeon 2.1 GHz VM)
/// when it is quiet. Timings are divided by `probe / PROBE_REF_S`, so a
/// reported second is a second of the quiet reference host.
pub const PROBE_REF_S: f64 = 110.0e-6;

const REPS: usize = 16;
const LEN: usize = 2048;
const PASSES: usize = 48;

/// One repetition: `PASSES` sweeps of `y ← (y·c + x) / 2` over `LEN`
/// complex numbers (64 KiB of state, cache-resident like the program's
/// FFT grids and orbital blocks); `|c| = 1`, so the values stay bounded.
fn kernel(x: &[(f64, f64)], y: &mut [(f64, f64)]) -> f64 {
    let (cr, ci) = (0.6, 0.8);
    for _ in 0..PASSES {
        for (yy, xx) in y.iter_mut().zip(x) {
            let re = yy.0 * cr - yy.1 * ci + xx.0;
            let im = yy.0 * ci + yy.1 * cr + xx.1;
            *yy = (re * 0.5, im * 0.5);
        }
    }
    y.iter().map(|v| v.0 + v.1).sum()
}

fn repetitions(barrier: &Barrier, lane: usize) -> Vec<f64> {
    let x: Vec<(f64, f64)> = (0..LEN)
        .map(|i| ((i + lane) as f64 * 1e-3, 1.0 - i as f64 * 1e-4))
        .collect();
    let mut y = x.clone();
    (0..REPS)
        .map(|_| {
            barrier.wait();
            let t0 = Instant::now();
            std::hint::black_box(kernel(&x, &mut y));
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// Seconds one repetition takes on this host right now: the median over
/// `REPS` barrier-synchronised repetitions of the slowest of `threads`
/// threads (the caller's thread is one of them). About 2 ms.
pub fn host_probe(threads: usize) -> f64 {
    let barrier = Barrier::new(threads);
    let lanes: Vec<Vec<f64>> = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads)
            .map(|lane| {
                let barrier = &barrier;
                s.spawn(move || repetitions(barrier, lane))
            })
            .collect();
        let mut lanes = vec![repetitions(&barrier, 0)];
        lanes.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked")),
        );
        lanes
    });
    let slowest: Vec<f64> = (0..REPS)
        .map(|rep| lanes.iter().map(|lane| lane[rep]).fold(0.0, f64::max))
        .collect();
    crate::stats::median(&slowest)
}

/// How much slower than the quiet reference host the host is running,
/// given probe readings taken around (or during) an interval.
pub fn slowdown(probes: &[f64]) -> f64 {
    crate::stats::mean(probes) / PROBE_REF_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reads_a_positive_time_and_the_kernel_stays_bounded() {
        let x = vec![(1.0, -1.0); LEN];
        let mut y = x.clone();
        for _ in 0..20 {
            let sum = kernel(&x, &mut y);
            assert!(sum.is_finite() && sum.abs() < 1e6);
        }
        let t = host_probe(2);
        assert!(t > 0.0 && t < 1.0, "{t}");
    }
}
