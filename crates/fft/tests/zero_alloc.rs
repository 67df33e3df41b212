//! Steady-state 3-D transforms — full (row-batched x pass included) and
//! sphere-limited — perform no heap allocation: scratch is one buffer per
//! thread, grown on that thread's first transform (ROADMAP 1(b), the FFT
//! share of it).
//!
//! One `#[test]` in a binary of its own, counting per thread, so neither the
//! harness nor a sibling test can add to the tally.

use pt_fft::Fft3;
use pt_num::c64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` without a destructor, so bumping it neither allocates
// nor touches freed TLS.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `layout` is the caller's, passed through as received.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `System` under this `layout` (all three
    // methods forward there).
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: `ptr`/`layout` describe a live `System` block, as above.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
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
