//! A warm `KsSystem::potentials` call is a fixed amount of work: 7 dense
//! transforms for PBE (2 for LDA) and one heap allocation — the `v_total`
//! it returns; every work array is per-thread scratch.
//!
//! One `#[test]` in a binary of its own: the allocation count is per thread
//! but `pt_trace`'s counters are process-global, so no sibling test may run
//! transforms beside it (same layout as `crates/fft/tests/zero_alloc.rs`).

mod common;

use common::cost_of;
use pt_ham::KsSystem;
use pt_lattice::silicon_cubic_supercell;
use pt_trace::Counter;
use pt_xc::XcKind;

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
            let (allocated, counted) = cost_of(|| {
                for _ in 0..CALLS {
                    sink += sys.potentials(&rho).e_xc;
                }
            });
            let counted = counted.get(Counter::FftTransforms);
            assert!(sink.is_finite());
            assert!(allocated <= CALLS, "{xc:?}: {allocated} allocations");
            assert_eq!(counted, transforms * CALLS, "{xc:?} transforms");
        });
    }
}
