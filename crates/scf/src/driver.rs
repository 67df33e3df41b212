//! The SCF driver: one density loop, run once for a semi-local system and
//! twice for a hybrid — a semi-local bootstrap, then one solve under the
//! exchange operator of the bootstrap's orbitals.

use crate::davidson::{lowest_eigenpairs, DavidsonOptions};
use pt_ham::{density_residual, Energies, KsSystem, PtError};
use pt_linalg::{Anderson, CMat};
use pt_num::c64;
use pt_num::rng::XorShift64;

/// Anderson history depth of the density mixer.
const MIX_DEPTH: usize = 6;
/// Relaxation β of the density mixer.
const MIX_BETA: f64 = 0.5;

/// SCF options.
#[derive(Clone, Copy, Debug)]
pub struct ScfOptions {
    /// Density convergence threshold (max |Δρ| integrated, e⁻).
    pub rho_tol: f64,
    /// Max density iterations per solve (a hybrid runs two: the semi-local
    /// bootstrap and the frozen-Φ solve).
    pub max_scf: usize,
    /// Eigensolver settings per SCF step (`max_iter` ≥ 1, `tol` positive
    /// and finite).
    pub davidson: DavidsonOptions,
}

impl Default for ScfOptions {
    fn default() -> Self {
        ScfOptions {
            rho_tol: 1e-6,
            max_scf: 60,
            davidson: DavidsonOptions {
                max_iter: 12,
                tol: 1e-8,
            },
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
    /// Density iterations used, summed over both solves of a hybrid.
    pub scf_iterations: usize,
    /// Final density residual.
    pub rho_residual: f64,
}

/// Run the ground-state SCF for `sys`. A run that exhausts its iteration
/// budget above `opts.rho_tol` returns [`PtError::NotConverged`], and so
/// does one whose eigensolve turns non-finite, at that iteration.
///
/// A hybrid system runs two density loops of up to `opts.max_scf`
/// iterations each: a semi-local bootstrap, whose orbitals define the
/// exchange operator's Φ whether it converged or not, then one solve with
/// V_x[Φ] frozen, which must converge. Φ is not refreshed: the ground state
/// is not self-consistent in its exchange (DESIGN.md, "Ground state").
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
    // no Davidson iteration, or a tolerance every residual passes (+∞),
    // never leaves the span of the initial plane waves, and ρ "converges"
    // to their density; one no residual can pass (≤ 0, NaN) silently turns
    // the eigensolver's stop test off
    if opts.davidson.max_iter == 0 {
        return Err(PtError::InvalidConfig(
            "Davidson max_iter must be at least 1".into(),
        ));
    }
    if !opts.davidson.tol.is_finite() || opts.davidson.tol <= 0.0 {
        return Err(PtError::InvalidConfig(format!(
            "Davidson tolerance must be positive and finite, got {}",
            opts.davidson.tol
        )));
    }
    let mut s = DensityLoop::start(sys);
    let mut converged = s.solve(sys, &opts, None)?;
    if sys.hybrid.is_some() {
        let phi = s.orbitals.clone();
        converged = s.solve(sys, &opts, Some(&phi))?;
    }
    if !converged {
        return Err(PtError::NotConverged {
            context: "ground-state SCF",
            residual: s.rho_residual,
            tol: opts.rho_tol,
            iterations: s.iterations,
        });
    }
    let energies = sys.energies(&s.orbitals, &s.rho, [0.0; 3]);
    Ok(ScfResult {
        orbitals: s.orbitals,
        eigenvalues: s.eigenvalues,
        rho: s.rho,
        energies,
        scf_iterations: s.iterations,
        rho_residual: s.rho_residual,
    })
}

/// Where the density iteration stands: the density, the orbitals and
/// eigenvalues of its last eigensolve, and the iterations spent so far.
struct DensityLoop {
    /// electrons the density integrates to
    ne: f64,
    orbitals: CMat,
    eigenvalues: Vec<f64>,
    rho: Vec<f64>,
    rho_residual: f64,
    iterations: usize,
}

impl DensityLoop {
    /// The neutral uniform density and the lowest-kinetic plane waves (the
    /// sphere is |G|²-sorted) with small noise to break degeneracies.
    fn start(sys: &KsSystem) -> Self {
        let ne = pt_num::reduce::sum_f64(sys.occupations.iter().copied());
        let mut rng = XorShift64::new(0x5EED_5EED);
        let orbitals = CMat::from_fn(sys.grids.ng(), sys.n_bands(), |i, j| {
            let base = if i == j { 1.0 } else { 0.0 };
            c64::new(
                base + 0.01 * rng.next_centered(),
                0.01 * rng.next_centered(),
            )
        });
        DensityLoop {
            ne,
            orbitals,
            eigenvalues: vec![0.0; sys.n_bands()],
            rho: vec![ne / sys.grids.volume; sys.grids.n_dense()],
            rho_residual: f64::INFINITY,
            iterations: 0,
        }
    }

    /// Iterate Davidson → ρ → residual → Anderson → clamp and renormalise
    /// until the residual is below `opts.rho_tol` (`Ok(true)`) or
    /// `opts.max_scf` iterations are spent (`Ok(false)`). `phi` freezes a
    /// hybrid's exchange operator; `None` is the semi-local Hamiltonian.
    /// Each iteration's phases are the `pt_trace` spans `scf_hamiltonian`,
    /// `scf_davidson`, `scf_density` and `scf_mix` (the last skipped by the
    /// iteration that converges).
    fn solve(
        &mut self,
        sys: &KsSystem,
        opts: &ScfOptions,
        phi: Option<&CMat>,
    ) -> Result<bool, PtError> {
        let dv = sys.grids.volume / sys.grids.n_dense() as f64;
        let mut mixer = Anderson::new(MIX_DEPTH, MIX_BETA);
        for _ in 0..opts.max_scf {
            self.iterations += 1;
            pt_trace::counter_add(pt_trace::Counter::ScfIterations, 1);
            let sp = pt_trace::span("scf_hamiltonian");
            let h = match phi {
                Some(_) => sys.hamiltonian(&self.rho, phi, [0.0; 3])?,
                None => sys.local_hamiltonian(&self.rho, [0.0; 3])?,
            };
            drop(sp);
            let sp = pt_trace::span("scf_davidson");
            let r = lowest_eigenpairs(&h, &mut self.orbitals, opts.davidson);
            drop(sp);
            // a NaN or infinity in H poisons every later iteration: stop
            // here instead of spending the rest of `max_scf`
            if !r.residual.is_finite() {
                return Err(PtError::NotConverged {
                    context: "ground-state SCF",
                    residual: r.residual,
                    tol: opts.rho_tol,
                    iterations: self.iterations,
                });
            }
            self.eigenvalues.copy_from_slice(&r.eigenvalues);
            let sp = pt_trace::span("scf_density");
            let rho_new = sys.density(&self.orbitals);
            self.rho_residual = density_residual(&rho_new, &self.rho, sys.grids.volume);
            drop(sp);
            if self.rho_residual < opts.rho_tol {
                self.rho = rho_new;
                return Ok(true);
            }
            let _sp = pt_trace::span("scf_mix");
            let f: Vec<f64> = rho_new.iter().zip(&self.rho).map(|(a, b)| a - b).collect();
            // the history keeps ρ and f; the next iterate overwrites ρ_new
            let x = std::mem::replace(&mut self.rho, rho_new);
            mixer.step(x, f, &mut self.rho);
            // keep the mixed density physical
            let mut q = 0.0;
            for v in self.rho.iter_mut() {
                *v = v.max(0.0);
                q += *v;
            }
            let scale = self.ne / (q * dv);
            for v in self.rho.iter_mut() {
                *v *= scale;
            }
        }
        Ok(false)
    }
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

    fn hse_si8(occupations: Option<Vec<f64>>) -> KsSystem {
        let mut b = pt_ham::KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(XcKind::Pbe)
            .hybrid(pt_ham::HybridConfig::hse06());
        if let Some(occ) = occupations {
            b = b.occupations(occ);
        }
        b.build().unwrap()
    }

    /// A hybrid SCF that cannot converge says so after the bootstrap and
    /// one Φ solve, without spending pair solves on Φ-refresh retries that
    /// end in the same error.
    #[test]
    fn an_unconvergeable_hybrid_scf_stops_after_one_phi_solve() {
        let o = ScfOptions {
            max_scf: 1,
            rho_tol: 1e-14,
            ..Default::default()
        };
        match scf_loop(&hse_si8(None), o) {
            Err(PtError::NotConverged {
                context,
                iterations,
                ..
            }) => {
                assert_eq!(context, "ground-state SCF");
                assert_eq!(iterations, 2, "the bootstrap plus one Φ solve");
            }
            other => panic!(
                "expected NotConverged, got {:?}",
                other.map(|r| r.rho_residual)
            ),
        }
    }

    /// The bootstrap's orbitals define Φ whether the bootstrap converged
    /// or not; only the Φ solve must converge. Four doubly occupied bands
    /// of HSE Si-8 (the rank tests' system) spend the whole bootstrap
    /// budget unconverged and then converge under V_x[Φ].
    #[test]
    fn an_unconverged_bootstrap_still_defines_phi() {
        let sys = hse_si8(Some(vec![2.0; 4]));
        let opts = ScfOptions::default();
        let mut bootstrap = DensityLoop::start(&sys);
        let converged = bootstrap.solve(&sys, &opts, None).unwrap();
        assert!(!converged, "residual {}", bootstrap.rho_residual);
        assert_eq!(bootstrap.iterations, opts.max_scf);
        let r = scf_loop(&sys, opts).expect("the Φ solve converges");
        assert!(r.rho_residual < opts.rho_tol);
        assert!(r.scf_iterations > opts.max_scf, "{}", r.scf_iterations);
    }

    #[test]
    fn scf_rejects_a_davidson_without_iterations_or_a_usable_tolerance() {
        let s = silicon_cubic_supercell(1, 1, 1);
        let sys = pt_ham::KsSystem::builder(s)
            .ecut(2.0)
            .xc(XcKind::Lda)
            .build()
            .unwrap();
        let default = ScfOptions::default().davidson;
        let zero_iterations = DavidsonOptions {
            max_iter: 0,
            ..default
        };
        let bad_tols =
            [0.0, -1e-8, f64::NAN, f64::INFINITY].map(|tol| DavidsonOptions { tol, ..default });
        for davidson in std::iter::once(zero_iterations).chain(bad_tols) {
            let o = ScfOptions {
                davidson,
                ..Default::default()
            };
            assert!(
                matches!(
                    scf_loop(&sys, o).map(|r| r.rho_residual),
                    Err(PtError::InvalidConfig(_))
                ),
                "{davidson:?}"
            );
        }
    }

    /// A NaN in the local pseudopotential used to run every Davidson
    /// iteration on NaN (and panic in the eigensolver's sort); now the
    /// first iteration reports it.
    #[test]
    fn a_non_finite_hamiltonian_stops_the_scf_at_its_first_iteration() {
        let s = silicon_cubic_supercell(1, 1, 1);
        let mut sys = pt_ham::KsSystem::builder(s)
            .ecut(2.0)
            .xc(XcKind::Lda)
            .build()
            .unwrap();
        sys.vps_loc_r[0] = f64::NAN;
        match scf_loop(&sys, ScfOptions::default()) {
            Err(PtError::NotConverged {
                context,
                residual,
                iterations,
                ..
            }) => {
                assert_eq!(context, "ground-state SCF");
                assert!(residual.is_nan());
                assert_eq!(iterations, 1);
            }
            other => panic!(
                "expected NotConverged, got {:?}",
                other.map(|r| r.rho_residual)
            ),
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
