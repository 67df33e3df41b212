//! A warm Fock-free `Hamiltonian::apply_block` is two sphere-limited dense
//! transforms per band and one heap allocation (the kinetic diagonal); a
//! warm `density_from_orbitals` is one transform per band and allocates
//! only its chunk partials, their list and the result. Per-band work arrays
//! are per-thread scratch.
//!
//! One `#[test]` in a binary of its own, like `potentials_steady_state.rs`:
//! the allocation count is per thread but `pt_trace`'s counters are
//! process-global.

mod common;

use pt_ham::{density_from_orbitals, KsSystem};
use pt_lattice::silicon_cubic_supercell;
use pt_linalg::CMat;
use pt_trace::Counter;

/// Allocations on this thread and transforms in the process during `f`.
fn cost_of(f: impl FnOnce()) -> (u64, u64) {
    let (allocated, counted) = common::cost_of(f);
    (allocated, counted.get(Counter::FftTransforms))
}

#[test]
fn warm_local_h_and_density_allocate_no_per_band_work_arrays() {
    const CALLS: u64 = 20;
    pt_trace::set_enabled(true);
    let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
        .ecut(2.0)
        .build()
        .expect("valid test system");
    let (ng, nd) = (sys.grids.ng(), sys.grids.n_dense());
    let rho = vec![32.0 / sys.grids.volume; nd];
    let h = sys
        .local_hamiltonian(&rho, [0.0, 0.0, 0.01])
        .expect("density of the right extent");
    // one thread, so every task runs (and counts) on this one
    pt_par::ThreadPool::new(1).install(|| {
        for nb in [4usize, 16] {
            let psi = CMat::rand_normalized(ng, nb, 3);
            let occ = vec![2.0; nb];
            let mut out = CMat::zeros(ng, nb);
            // first calls on this thread grow the scratch
            h.apply_block(&psi, &mut out);
            let mut sink = density_from_orbitals(&sys.grids, &psi, &occ)[0];

            let (allocations, transforms) = cost_of(|| {
                for _ in 0..CALLS {
                    h.apply_block(&psi, &mut out);
                }
            });
            assert!(
                allocations <= CALLS,
                "apply_block, {nb} bands: {allocations} allocations"
            );
            assert_eq!(transforms, 2 * nb as u64 * CALLS, "apply_block, {nb} bands");

            let (allocations, transforms) = cost_of(|| {
                for _ in 0..CALLS {
                    sink += density_from_orbitals(&sys.grids, &psi, &occ)[0];
                }
            });
            // one partial per band chunk, the list of them, and ρ itself
            let per_call = pt_par::chunk_count(nb) as u64 + 2;
            assert!(
                allocations <= per_call * CALLS,
                "density, {nb} bands: {allocations} allocations"
            );
            assert_eq!(transforms, nb as u64 * CALLS, "density, {nb} bands");
            assert!(sink.is_finite() && out.data().iter().all(|z| z.re.is_finite()));
        }
    });
}
