//! Integration tests spanning crates: ground state → PT-CN propagation →
//! observables, for both semi-local and hybrid functionals — all through
//! the `Propagator` trait and builder-based setup.

use pwdft_rt::prelude::*;
use std::sync::OnceLock;

fn lda_ground_state(ecut: f64) -> (KsSystem, ScfResult) {
    let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
        .ecut(ecut)
        .xc(XcKind::Lda)
        .build()
        .expect("valid system");
    let o = ScfOptions {
        rho_tol: 1e-7,
        ..Default::default()
    };
    let r = scf_loop(&sys, o).expect("SCF converges");
    (sys, r)
}

/// The LDA ecut-2.5 ground state, converged once per test binary.
fn lda_25() -> &'static (KsSystem, ScfResult) {
    static GS: OnceLock<(KsSystem, ScfResult)> = OnceLock::new();
    GS.get_or_init(|| lda_ground_state(2.5))
}

/// The HSE06 ecut-2.5 ground state, converged once per test binary.
fn hse_25() -> &'static (KsSystem, ScfResult) {
    static GS: OnceLock<(KsSystem, ScfResult)> = OnceLock::new();
    GS.get_or_init(|| {
        let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.5)
            .xc(XcKind::Pbe)
            .hybrid(HybridConfig::hse06())
            .build()
            .expect("valid hybrid system");
        let o = ScfOptions {
            rho_tol: 1e-6,
            max_phi_updates: 3,
            ..Default::default()
        };
        let r = scf_loop(&sys, o).expect("hybrid SCF converges");
        (sys, r)
    })
}

#[test]
fn hybrid_scf_lowers_gap_relative_to_lda_bandwidth() {
    // HSE-like exchange opens the eigenvalue gap relative to LDA — the
    // qualitative reason the paper's users want hybrid functionals. The
    // HOMO is the last occupied of 16 bands; the occupied spectrum spread
    // stands in for the gap (no empty bands are solved here).
    let (lda, hyb) = (&lda_25().1, &hse_25().1);
    let (e_lda, e_hyb) = (lda.energies.total(), hyb.energies.total());
    // both converged to sane energies; exchange lowers the total energy
    assert!(e_lda.is_finite() && e_hyb.is_finite());
    assert!(e_hyb < e_lda + 5.0, "hybrid energy not crazy vs LDA");
    // occupied bandwidth differs between functionals (exchange acts)
    let bw = |e: &[f64]| e.last().unwrap() - e.first().unwrap();
    assert!((bw(&lda.eigenvalues) - bw(&hyb.eigenvalues)).abs() > 1e-3);
}

#[test]
fn ptcn_50as_step_conserves_invariants_field_free() {
    let (sys, gs) = lda_25();
    let mut prop = PtCnPropagator::default();
    let mut st = TdState::new(gs.orbitals.clone());
    let e0 = gs.energies.total();
    for _ in 0..3 {
        let stats = prop
            .step(sys, None, &mut st, attosecond_to_au(50.0))
            .unwrap();
        assert!(stats.rho_residual < 1e-5);
    }
    assert!(orthonormality_error(&st.psi) < 1e-8);
    let rho = sys.density(&st.psi);
    let e = sys.energies(&st.psi, &rho, [0.0; 3]).total();
    assert!(
        (e - e0).abs() < 5e-4,
        "field-free energy drift over 150 as: {:.2e}",
        e - e0
    );
    // the state must stay in the ground-state manifold
    assert!(density_matrix_distance(&gs.orbitals, &st.psi) < 1e-2);
}

#[test]
fn ptcn_and_rk4_agree_on_driven_dynamics() {
    let (sys, gs) = lda_ground_state(2.0);
    let laser = LaserPulse {
        a0: 0.05,
        omega: 0.25,
        t0: 0.0,
        sigma: 50.0,
        polarization: [0.0, 0.0, 1.0],
    };
    let dt = attosecond_to_au(4.0);
    let mut prop = PtCnPropagator::new(PtCnOptions {
        rho_tol: 1e-9,
        ..Default::default()
    });
    let mut st_pt = TdState::new(gs.orbitals.clone());
    for _ in 0..2 {
        prop.step(&sys, Some(&laser), &mut st_pt, dt).unwrap();
    }
    let mut rk = Rk4Propagator::default();
    let mut st_rk = TdState::new(gs.orbitals.clone());
    for _ in 0..80 {
        rk.step(&sys, Some(&laser), &mut st_rk, dt / 40.0).unwrap();
    }
    let d = density_matrix_distance(&st_pt.psi, &st_rk.psi);
    assert!(d < 5e-4, "PT-CN(2×4as) vs RK4(80×0.1as): {d:.2e}");
}

#[test]
fn hybrid_ptcn_counts_match_paper_bookkeeping() {
    // §7: one PT-CN step = n_scf + 2 exchange-bearing HΨ applications
    let (sys, gs) = hse_25();
    let mut prop = PtCnPropagator::default();
    let mut st = TdState::new(gs.orbitals.clone());
    let stats = prop
        .step(sys, None, &mut st, attosecond_to_au(50.0))
        .unwrap();
    assert_eq!(stats.h_applications, stats.scf_iterations + 1);
    assert!(stats.scf_iterations >= 1);
    assert!(orthonormality_error(&st.psi) < 1e-9);
}
