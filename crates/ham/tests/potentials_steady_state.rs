//! A warm `KsSystem::potentials` call is a fixed amount of work: 7 dense
//! transforms for PBE (2 for LDA) and one heap allocation — the `v_total`
//! it returns; every work array is per-thread scratch.
//!
//! One `#[test]` in a binary of its own: the allocation count is per thread
//! but `pt_trace`'s counters are process-global, so no sibling test may run
//! transforms beside it (same layout as `crates/fft/tests/zero_alloc.rs`).

use pt_ham::KsSystem;
use pt_lattice::silicon_cubic_supercell;
use pt_trace::Counter;
use pt_xc::XcKind;
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

#[test]
fn warm_potentials_calls_allocate_once_and_run_a_fixed_transform_count() {
    const CALLS: u64 = 50;
    pt_trace::set_enabled(true);
    for (xc, transforms) in [(XcKind::Pbe, 7), (XcKind::Lda, 2)] {
        let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(xc)
            .build()
            .expect("valid test system");
        let n = sys.grids.n_dense();
        let rho: Vec<f64> = (0..n)
            .map(|i| 32.0 / sys.grids.volume * (1.0 + 0.5 * (0.37 * i as f64).sin()))
            .collect();
        // one thread: a wider pool's transform stages its z-columns in
        // per-call task lists
        let pool = pt_par::ThreadPool::new(1);
        pool.install(|| {
            // first call on this thread grows the scratch
            let mut sink = sys.potentials(&rho).e_xc;
            let mark = pt_trace::mark();
            let before = ALLOCATIONS.with(Cell::get);
            for _ in 0..CALLS {
                sink += sys.potentials(&rho).e_xc;
            }
            let allocations = ALLOCATIONS.with(Cell::get) - before;
            let counted = pt_trace::counters_since(&mark).get(Counter::FftTransforms);
            assert!(sink.is_finite());
            assert!(allocations <= CALLS, "{xc:?}: {allocations} allocations");
            assert_eq!(counted, transforms * CALLS, "{xc:?} transforms");
        });
    }
}
