//! Steady-state 3-D transforms — full (row-batched x pass included) and
//! sphere-limited — perform no heap allocation: scratch is one buffer per
//! thread, grown on that thread's first transform (ROADMAP 1(b), the FFT
//! share of it).
//!
//! One `#[test]` in a binary of its own, counting per thread, so neither the
//! harness nor a sibling test can add to the tally.

use pt_fft::Fft3;
use pt_num::c64;

#[global_allocator]
static ALLOCATOR: pt_num::CountingAlloc = pt_num::CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = pt_num::allocations();
    f();
    pt_num::allocations() - before
}

#[test]
fn warm_transforms_allocate_nothing() {
    // the benchmark's wavefunction (8³) and dense (15³) grids
    for n in [8usize, 15] {
        let fft = Fft3::new(n, n, n);
        let mut data: Vec<c64> = (0..fft.len())
            .map(|i| c64::new(i as f64, -(i as f64)))
            .collect();
        // first call on this thread (or first on a larger grid) grows scratch
        fft.forward_serial(&mut data);
        fft.inverse_serial(&mut data);
        let serial = allocations_during(|| {
            for _ in 0..100 {
                fft.forward_serial(&mut data);
                fft.inverse_serial(&mut data);
            }
        });
        assert_eq!(serial, 0, "{n}³ serial pairs allocated");

        let pool = pt_par::ThreadPool::new(1);
        pool.install(|| {
            fft.forward(&mut data);
            fft.inverse(&mut data);
        });
        let pooled = allocations_during(|| {
            pool.install(|| {
                for _ in 0..100 {
                    fft.forward(&mut data);
                    fft.inverse(&mut data);
                }
            })
        });
        assert_eq!(pooled, 0, "{n}³ pairs on a 1-thread pool allocated");

        // a quarter-width box of coefficients around G = 0, as a sphere
        // sits on its grid; stage blocks come out of the same scratch
        let near_zero = |i: usize| i <= n / 4 || i >= n - n / 4;
        let index: Vec<usize> = (0..fft.len())
            .filter(|i| near_zero(i % n) && near_zero(i / n % n) && near_zero(i / (n * n)))
            .collect();
        let map = fft.sphere_map(&index);
        let mut coeffs = vec![c64::ONE; index.len()];
        fft.synthesis_serial(&map, &coeffs, &mut data);
        fft.analysis_serial(&map, &mut data, &mut coeffs);
        let limited = allocations_during(|| {
            for _ in 0..100 {
                fft.synthesis_serial(&map, &coeffs, &mut data);
                fft.analysis_serial(&map, &mut data, &mut coeffs);
                coeffs
                    .iter_mut()
                    .for_each(|c| *c = c.scale(1.0 / fft.len() as f64));
            }
        });
        assert_eq!(limited, 0, "{n}³ sphere-limited pairs allocated");
    }
}
