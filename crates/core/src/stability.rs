//! RK4 stability ceiling from the spectrum.
//!
//! §6: "The time step for RK4 is 0.5 as. This is close to the largest time
//! step allowed by RK4 due to the stability constraint." RK4's stability
//! region reaches `2√2` up the imaginary axis, so on `i∂tψ = Hψ` a step is
//! stable while `dt · λ_max ≤ 2√2`, λ_max being the largest |eigenvalue| of
//! H: the kinetic cutoff plus what the potentials add on the highest plane
//! waves. A short Lanczos run on the Hamiltonian of the given state finds
//! it; no RK4 step is taken.

use pt_ham::{KsSystem, PtError};
use pt_linalg::{eigh, CMat};
use pt_num::c64;
use pt_num::complex::zdotc;
use pt_num::reduce::max_f64;

/// Lanczos steps. The top Ritz value approaches λ_max from below; on Si-8
/// LDA 60 steps agree with 200 to 1e-7 at E_cut = 2.5, 5 and 10 Ha, where
/// plain power iteration is still 8e-4 low after 400 `HΨ` (5 Ha).
const LANCZOS_STEPS: usize = 60;

/// Largest stable RK4 step (a.u.) on the field-free Hamiltonian of `psi0`,
/// `2√2 / λ_max(H[ρ(Ψ₀), Φ = Ψ₀])`. λ_max is the largest |Ritz value| of a
/// fixed-length Lanczos run from a fixed-seed random vector, so the same
/// inputs always give the same bound. A spectrum that is not finite
/// (non-finite orbitals) is [`PtError::InvalidConfig`].
pub fn max_stable_rk4_dt(sys: &KsSystem, psi0: &CMat) -> Result<f64, PtError> {
    let h = sys.hamiltonian(&sys.density(psi0), sys.hybrid.map(|_| psi0), [0.0; 3])?;
    let ng = psi0.nrows();
    // H v_k = β_{k−1} v_{k−1} + α_k v_k + β_k v_{k+1}, not reorthogonalized:
    // lost orthogonality only repeats Ritz values that have converged
    let (mut alpha, mut beta) = (Vec::new(), Vec::new());
    let mut v = CMat::rand_normalized(ng, 1, 0x5eed);
    let mut v_prev = CMat::zeros(ng, 1);
    let mut w = CMat::zeros(ng, 1);
    let mut b = 0.0;
    for _ in 0..LANCZOS_STEPS.min(ng) {
        h.apply_block(&v, &mut w);
        let a = zdotc(v.data(), w.data()).re;
        for ((w, v), p) in w.data_mut().iter_mut().zip(v.data()).zip(v_prev.data()) {
            *w = *w - v.scale(a) - p.scale(b);
        }
        b = w.norm_fro();
        alpha.push(a);
        beta.push(b);
        std::mem::swap(&mut v_prev, &mut v);
        for (v, w) in v.data_mut().iter_mut().zip(w.data()) {
            *v = w.scale(1.0 / b);
        }
    }
    let n = alpha.len();
    let t = CMat::from_fn(n, n, |i, j| match i.abs_diff(j) {
        0 => c64::new(alpha[i], 0.0),
        1 => c64::new(beta[i.min(j)], 0.0),
        _ => c64::ZERO,
    });
    let lambda_max = max_f64(eigh(&t).0.iter().map(|r| r.abs()));
    if !lambda_max.is_finite() {
        return Err(PtError::InvalidConfig(format!(
            "the RK4 stability ceiling needs a finite spectrum of H[ψ₀]; λ_max = {lambda_max}"
        )));
    }
    Ok(2.0 * std::f64::consts::SQRT_2 / lambda_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagator::{Propagator, TdState};
    use pt_lattice::silicon_cubic_supercell;
    use pt_linalg::orthonormalize_columns;
    use pt_scf::{scf_loop, ScfOptions};
    use pt_xc::XcKind;

    /// RK4 steps of size `dt` from `psi0` before ‖Ψ‖ leaves the 2 % band,
    /// counted up to `max_steps`.
    fn steps_in_norm_band(sys: &KsSystem, psi0: &CMat, dt: f64, max_steps: usize) -> usize {
        let norm0 = psi0.norm_fro();
        let mut st = TdState::new(psi0.clone());
        for n in 0..max_steps {
            Propagator::Rk4.step(sys, None, &mut st, dt).unwrap();
            let drift = (st.psi.norm_fro() / norm0 - 1.0).abs();
            if !drift.is_finite() || drift > 0.02 {
                return n;
            }
        }
        max_steps
    }

    /// The bound is where RK4 turns unstable: from a ground state seeded
    /// with white noise on the top half of the kinetic spectrum (the modes
    /// a ground state leaves empty), RK4 keeps its norm at 0.9× the bound
    /// and loses it at 1.1× — and the paper's 50 as PT-CN step is far past
    /// it.
    #[test]
    fn rk4_turns_unstable_at_the_spectral_bound() {
        let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.5)
            .xc(XcKind::Lda)
            .build()
            .unwrap();
        let o = ScfOptions {
            rho_tol: 1e-6,
            ..Default::default()
        };
        let gs = scf_loop(&sys, o).unwrap();
        let dt_max = max_stable_rk4_dt(&sys, &gs.orbitals).unwrap();

        let kinetic = sys.grids.kinetic_diag([0.0; 3]);
        let half_top = 0.5 * max_f64(kinetic.iter().copied());
        let (ng, nb) = (gs.orbitals.nrows(), gs.orbitals.ncols());
        let noise = CMat::rand_normalized(ng, nb, 7);
        let mut psi0 = gs.orbitals.clone();
        for j in 0..nb {
            for (g, &k) in kinetic.iter().enumerate() {
                if k > half_top {
                    psi0[(g, j)] += noise[(g, j)].scale(1e-3);
                }
            }
        }
        orthonormalize_columns(&mut psi0, 0.0);

        let below = steps_in_norm_band(&sys, &psi0, 0.9 * dt_max, 200);
        assert_eq!(below, 200, "RK4 at 0.9x the bound {dt_max} left the band");
        let above = steps_in_norm_band(&sys, &psi0, 1.1 * dt_max, 50);
        assert!(above < 50, "RK4 at 1.1x the bound {dt_max} kept its norm");

        // the headline gap: PT-CN's 50 as step is far beyond RK4's ceiling
        let dt_ptcn = pt_num::units::attosecond_to_au(50.0);
        assert!(
            dt_ptcn > 1.5 * dt_max,
            "PT-CN step {dt_ptcn} should exceed the RK4 ceiling {dt_max}"
        );
    }

    /// Non-finite orbitals have no spectrum to bound: a typed error, not a
    /// NaN or infinite step.
    #[test]
    fn non_finite_orbitals_are_refused() {
        let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(XcKind::Lda)
            .build()
            .unwrap();
        let mut psi = CMat::rand_normalized(sys.grids.ng(), sys.n_bands(), 3);
        psi[(3, 1)].re = f64::NAN;
        assert!(matches!(
            max_stable_rk4_dt(&sys, &psi),
            Err(PtError::InvalidConfig(_))
        ));
    }
}
