//! The SCF driver: semi-local in one loop, hybrid with the inner/outer
//! (frozen-Φ) structure.

use crate::davidson::{lowest_eigenpairs, DavidsonOptions};
use crate::mixing::AndersonMixer;
use pt_ham::{density_residual, Energies, KsSystem, PtError};
use pt_linalg::CMat;
use pt_num::c64;
use pt_num::rng::XorShift64;

/// SCF options.
#[derive(Clone, Copy, Debug)]
pub struct ScfOptions {
    /// Density convergence threshold (max |Δρ| integrated, e⁻).
    pub rho_tol: f64,
    /// Max density iterations (per Φ cycle for hybrids).
    pub max_scf: usize,
    /// Max outer Φ refreshes for hybrid functionals.
    pub max_phi_updates: usize,
    /// Eigensolver settings per SCF step.
    pub davidson: DavidsonOptions,
    /// Anderson depth / mixing step.
    pub mix_depth: usize,
    /// Linear mixing parameter β (positive).
    pub mix_beta: f64,
}

impl Default for ScfOptions {
    fn default() -> Self {
        ScfOptions {
            rho_tol: 1e-6,
            max_scf: 60,
            max_phi_updates: 8,
            davidson: DavidsonOptions {
                max_iter: 12,
                tol: 1e-8,
            },
            mix_depth: 6,
            mix_beta: 0.5,
        }
    }
}

/// Converged ground state.
pub struct ScfResult {
    /// Occupied orbitals (columns, sphere coefficients).
    pub orbitals: CMat,
    /// Band eigenvalues (Ha).
    pub eigenvalues: Vec<f64>,
    /// Converged density (dense grid).
    pub rho: Vec<f64>,
    /// Energy breakdown.
    pub energies: Energies,
    /// Density iterations used (all cycles).
    pub scf_iterations: usize,
    /// Final density residual.
    pub rho_residual: f64,
}

fn initial_orbitals(sys: &KsSystem) -> CMat {
    // lowest-kinetic plane waves (sphere is |G|²-sorted) + small noise to
    // break degeneracies
    let ng = sys.grids.ng();
    let nb = sys.n_bands();
    let mut rng = XorShift64::new(0x5EED_5EED);
    CMat::from_fn(ng, nb, |i, j| {
        let base = if i == j { 1.0 } else { 0.0 };
        c64::new(
            base + 0.01 * rng.next_centered(),
            0.01 * rng.next_centered(),
        )
    })
}

/// Run the ground-state SCF for `sys`. A run that exhausts its iteration
/// budget above `opts.rho_tol` returns [`PtError::NotConverged`].
///
/// The whole loop runs under the system's configured thread pool
/// ([`KsSystem::install`]), so every Davidson/FFT/GEMM/Fock kernel inside
/// runs on the pool of the system's `KsSystemBuilder::layout`.
pub fn scf_loop(sys: &KsSystem, opts: ScfOptions) -> Result<ScfResult, PtError> {
    let _sp = pt_trace::span("scf_loop");
    sys.install(|| scf_loop_inner(sys, opts))
}

fn scf_loop_inner(sys: &KsSystem, opts: ScfOptions) -> Result<ScfResult, PtError> {
    if !opts.rho_tol.is_finite() || opts.rho_tol <= 0.0 {
        return Err(PtError::InvalidConfig(format!(
            "SCF density tolerance must be positive and finite, got {}",
            opts.rho_tol
        )));
    }
    if opts.max_scf == 0 {
        return Err(PtError::InvalidConfig("max_scf must be at least 1".into()));
    }
    if sys.hybrid.is_some() && opts.max_phi_updates < 2 {
        // cycle 0 is the semi-local bootstrap; exact exchange only enters
        // from the first Φ refresh onward
        return Err(PtError::InvalidConfig(format!(
            "hybrid SCF needs max_phi_updates >= 2 (cycle 0 bootstraps without exchange), got {}",
            opts.max_phi_updates
        )));
    }
    if opts.mix_depth == 0 {
        return Err(PtError::InvalidConfig(
            "Anderson mixing depth must be at least 1".into(),
        ));
    }
    // β = 0 never moves the density: the loop would burn `max_scf`
    // iterations before reporting `NotConverged`
    if !opts.mix_beta.is_finite() || opts.mix_beta <= 0.0 {
        return Err(PtError::InvalidConfig(format!(
            "mixing parameter beta must be positive and finite, got {}",
            opts.mix_beta
        )));
    }
    let nd = sys.grids.n_dense();
    let ne: f64 = pt_num::reduce::sum_f64(sys.occupations.iter().copied());
    // neutral uniform start
    let mut rho = vec![ne / sys.grids.volume; nd];
    let mut orbitals = initial_orbitals(sys);
    let mut eigenvalues = vec![0.0; sys.n_bands()];
    let mut total_iters = 0;
    let mut rho_residual = f64::INFINITY;
    let mut converged = false;
    let dv = sys.grids.volume / nd as f64;

    let phi_cycles = if sys.hybrid.is_some() {
        opts.max_phi_updates
    } else {
        1
    };
    for cycle in 0..phi_cycles {
        // freeze Φ for the exchange operator (hybrid only). On the first
        // cycle bootstrap from a semi-local pass by passing None.
        let phi_frozen: Option<CMat> = if sys.hybrid.is_some() && cycle > 0 {
            Some(orbitals.clone())
        } else {
            None
        };
        let hybrid_active = phi_frozen.is_some();
        let mut mixer = AndersonMixer::new(opts.mix_depth, opts.mix_beta);
        converged = false;
        for _ in 0..opts.max_scf {
            total_iters += 1;
            pt_trace::counter_add(pt_trace::Counter::ScfIterations, 1);
            let h = if hybrid_active {
                sys.hamiltonian(&rho, phi_frozen.as_ref(), [0.0; 3])?
            } else {
                // semi-local bootstrap Hamiltonian
                sys.local_hamiltonian(&rho, [0.0; 3])?
            };
            let r = lowest_eigenpairs(&h, &mut orbitals, opts.davidson);
            eigenvalues.copy_from_slice(&r.eigenvalues);
            let rho_new = sys.density(&orbitals);
            rho_residual = density_residual(&rho_new, &rho, sys.grids.volume);
            if rho_residual < opts.rho_tol {
                rho = rho_new;
                converged = true;
                break;
            }
            let f: Vec<f64> = rho_new.iter().zip(&rho).map(|(a, b)| a - b).collect();
            rho = mixer.step(&rho, &f);
            // keep the mixed density physical
            let mut q = 0.0;
            for v in rho.iter_mut() {
                *v = v.max(0.0);
                q += *v;
            }
            let scale = ne / (q * dv);
            for v in rho.iter_mut() {
                *v *= scale;
            }
        }
        // converged this cycle; for hybrids continue until the Φ refresh no
        // longer moves the density
        if sys.hybrid.is_none() && converged {
            break;
        }
        if hybrid_active && converged && cycle + 1 < phi_cycles {
            // quick stationarity check: one more Φ refresh happens anyway;
            // stop when the refreshed density is already consistent
            let rho_chk = sys.density(&orbitals);
            if density_residual(&rho_chk, &rho, sys.grids.volume) < opts.rho_tol * 10.0 {
                break;
            }
        }
    }
    if !converged {
        return Err(PtError::NotConverged {
            context: "ground-state SCF",
            residual: rho_residual,
            tol: opts.rho_tol,
            iterations: total_iters,
        });
    }
    let energies = sys.energies(&orbitals, &rho, [0.0; 3]);
    Ok(ScfResult {
        orbitals,
        eigenvalues,
        rho,
        energies,
        scf_iterations: total_iters,
        rho_residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_lattice::silicon_cubic_supercell;
    use pt_xc::XcKind;

    #[test]
    fn lda_si8_converges_and_is_insulating() {
        let s = silicon_cubic_supercell(1, 1, 1);
        let sys = pt_ham::KsSystem::builder(s)
            .ecut(3.0)
            .xc(XcKind::Lda)
            .build()
            .unwrap();
        let r = scf_loop(&sys, ScfOptions::default()).expect("SCF converges");
        assert!(r.rho_residual < 1e-6, "residual {}", r.rho_residual);
        // density integrates to 32 electrons
        let q: f64 = r.rho.iter().sum::<f64>() * sys.grids.volume / sys.grids.n_dense() as f64;
        assert!((q - 32.0).abs() < 1e-8, "charge {q}");
        // eigenvalues ascending, all finite
        for w in r.eigenvalues.windows(2) {
            assert!(w[0] <= w[1] + 1e-10);
        }
        // total energy sane for 8 Si atoms (loose band at this tiny cutoff:
        // GTH-LDA bulk Si is ≈ −3.9 Ha/atom converged; under-converged
        // cutoffs land higher)
        let epa = r.energies.total() / 8.0;
        assert!(epa < -2.0 && epa > -6.0, "E/atom = {epa}");
        // orbitals stay orthonormal
        let mut s = pt_linalg::CMat::zeros(16, 16);
        pt_linalg::gemm(
            c64::ONE,
            &r.orbitals,
            pt_linalg::Op::ConjTrans,
            &r.orbitals,
            pt_linalg::Op::None,
            c64::ZERO,
            &mut s,
        );
        assert!(s.max_diff(&pt_linalg::CMat::eye(16)) < 1e-8);
    }

    #[test]
    fn hybrid_scf_rejects_too_few_phi_updates() {
        // with max_phi_updates < 2 only the semi-local bootstrap cycle runs
        // and the "hybrid" result never saw exact exchange
        let s = silicon_cubic_supercell(1, 1, 1);
        let sys = pt_ham::KsSystem::builder(s)
            .ecut(2.0)
            .hybrid(pt_ham::HybridConfig::hse06())
            .build()
            .unwrap();
        for max_phi_updates in [0, 1] {
            let o = ScfOptions {
                max_phi_updates,
                ..Default::default()
            };
            assert!(matches!(
                scf_loop(&sys, o).map(|r| r.rho_residual),
                Err(PtError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn scf_rejects_a_mixing_step_that_cannot_move_the_density() {
        let s = silicon_cubic_supercell(1, 1, 1);
        let sys = pt_ham::KsSystem::builder(s)
            .ecut(2.0)
            .xc(XcKind::Lda)
            .build()
            .unwrap();
        for mix_beta in [0.0, -0.5, f64::NAN] {
            let o = ScfOptions {
                mix_beta,
                max_scf: 3,
                ..Default::default()
            };
            assert!(
                matches!(
                    scf_loop(&sys, o).map(|r| r.rho_residual),
                    Err(PtError::InvalidConfig(_))
                ),
                "beta {mix_beta}"
            );
        }
    }

    #[test]
    fn starved_scf_returns_not_converged() {
        let s = silicon_cubic_supercell(1, 1, 1);
        let sys = pt_ham::KsSystem::builder(s)
            .ecut(2.0)
            .xc(XcKind::Lda)
            .build()
            .unwrap();
        let o = ScfOptions {
            max_scf: 1,
            rho_tol: 1e-14,
            ..Default::default()
        };
        match scf_loop(&sys, o) {
            Err(PtError::NotConverged {
                context,
                iterations,
                ..
            }) => {
                assert_eq!(context, "ground-state SCF");
                assert_eq!(iterations, 1);
            }
            other => panic!(
                "expected NotConverged, got {:?}",
                other.map(|r| r.rho_residual)
            ),
        }
    }
}
