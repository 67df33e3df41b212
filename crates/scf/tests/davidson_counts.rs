//! Davidson applies H once per new direction: the initial block once, then
//! only the expansion columns each iteration keeps — never X again, whose
//! image is carried through the Rayleigh–Ritz rotations. Counted in pair
//! solves on a hybrid Hamiltonian, whose exchange operator solves n_φ pairs
//! for every column it is applied to (the general schedule).
//!
//! One `#[test]` in a binary of its own: `pt_trace`'s counters are
//! process-global.

use pt_ham::{HybridConfig, KsSystem};
use pt_lattice::silicon_cubic_supercell;
use pt_linalg::CMat;
use pt_scf::{lowest_eigenpairs, DavidsonOptions};
use pt_trace::Counter;
use pt_xc::XcKind;

#[test]
fn davidson_applies_h_once_per_new_direction() {
    let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
        .ecut(2.0)
        .xc(XcKind::Pbe)
        .hybrid(HybridConfig::hse06())
        .build()
        .unwrap();
    let ne: f64 = sys.occupations.iter().sum();
    let rho = vec![ne / sys.grids.volume; sys.grids.n_dense()];
    let (ng, nb) = (sys.grids.ng(), sys.n_bands());
    // Φ: the lowest states of the semi-local Hamiltonian
    let mut phi = CMat::rand_normalized(ng, nb, 11);
    let local = sys.local_hamiltonian(&rho, [0.0; 3]).unwrap();
    let opts = DavidsonOptions {
        max_iter: 20,
        tol: 1e-6,
    };
    lowest_eigenpairs(&local, &mut phi, opts);
    let h = sys.hamiltonian(&rho, Some(&phi), [0.0; 3]).unwrap();

    pt_trace::set_enabled(true);
    let mut x = CMat::rand_normalized(ng, nb, 5);
    let before = pt_trace::counters();
    let r = lowest_eigenpairs(
        &h,
        &mut x,
        DavidsonOptions {
            max_iter: 6,
            tol: 1e-12,
        },
    );
    let solves = pt_trace::counters()
        .delta_since(&before)
        .get(Counter::PairFfts);
    let (n_phi, nb, iterations) = (phi.ncols() as u64, nb as u64, r.iterations as u64);
    // at least two expansions, so re-applying H to X or to [X | W] even
    // once would overshoot the bound
    assert!(iterations >= 3, "{iterations} iterations");
    assert!(solves >= n_phi * nb, "the initial block: {solves} solves");
    assert!(
        solves <= n_phi * nb * (iterations + 1),
        "{solves} pair solves for {iterations} iterations of {nb} bands against {n_phi}"
    );
}
