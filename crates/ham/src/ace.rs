//! Adaptively Compressed Exchange (ACE; Lin, JCTC 12, 2242 (2016) —
//! reference [24] of the paper).
//!
//! ACE compresses the Fock operator into a rank-N_φ projector
//! `V_ACE = −ξ ξ^H` with `ξ = W L^{-H}`, `W = V_X Φ`, `−Φ^H W = L L^H`.
//! Applying it costs two skinny GEMMs instead of N_e Poisson solves, but
//! building it costs one full exchange application over Φ.
//!
//! The paper's finding (§1): on CPUs, PT-CN + ACE wins (ref [22]); with
//! GPU-accelerated FFTs, plain PT wins on Summit because the exchange
//! application is cheap enough and ACE's construction cannot be amortized
//! across the few SCF iterations of a PT-CN step. On this CPU runtime the
//! CPU trade-off applies: the PT-CN propagator refreshes ξ once per
//! `ace_refresh_interval` steps and applies `V_ACE` inside every
//! fixed-point iteration (`ExchangeMode::Ace` in `system.rs`).

use crate::error::PtError;
use crate::fock::FockOperator;
use crate::grids::PwGrids;
use pt_linalg::{gemm, try_cholesky_in_place, CMat, Op};
use pt_num::c64;

/// The compressed exchange operator.
#[derive(Clone, Debug)]
pub struct AceOperator {
    /// The adaptively compressed projector columns ξ (N_G × N_φ).
    xi: CMat,
}

impl AceOperator {
    /// Build from the exact operator and its defining orbitals Φ:
    /// one exact exchange application over the block, one small Cholesky.
    ///
    /// Fails with [`PtError::InvalidConfig`] when `−Φ^H W` is not positive
    /// definite (rank-deficient / degenerate Φ) — the Cholesky pivot and
    /// offending column are reported instead of panicking.
    pub fn new(grids: &PwGrids, fock: &FockOperator, phi: &CMat) -> Result<Self, PtError> {
        let (ng, nb) = (phi.nrows(), phi.ncols());
        let mut w = CMat::zeros(ng, nb);
        fock.apply_block(grids, phi, &mut w);
        Self::from_w(phi, w)
    }

    /// Build from a precomputed `W = V_X Φ` (columns matching `phi`).
    /// This is the seam the distributed path uses: the rank team computes
    /// W with the Alg. 2 broadcast loop, the driver factors it here.
    pub fn from_w(phi: &CMat, w: CMat) -> Result<Self, PtError> {
        let nb = phi.ncols();
        if w.nrows() != phi.nrows() || w.ncols() != nb {
            return Err(PtError::ShapeMismatch {
                context: "ACE W block",
                expected: phi.nrows() * nb,
                got: w.nrows() * w.ncols(),
            });
        }
        // M = −Φ^H W is Hermitian positive semi-definite (V_X ⪯ 0)
        let mut m = CMat::zeros(nb, nb);
        gemm(
            -c64::ONE,
            phi,
            Op::ConjTrans,
            &w,
            Op::None,
            c64::ZERO,
            &mut m,
        );
        // tiny ridge for rank-deficient Φ (e.g. orbitals outside the
        // screened interaction range)
        for i in 0..nb {
            m[(i, i)] += c64::real(1e-14);
        }
        let mut l = m;
        if let Err((col, pivot)) = try_cholesky_in_place(&mut l) {
            return Err(PtError::InvalidConfig(format!(
                "ACE build failed: -Phi^H W is not positive definite \
                 (Cholesky pivot {pivot:.3e} at column {col}) — the defining \
                 orbitals Phi are rank-deficient or degenerate"
            )));
        }
        // ξ = W L^{-H}: solve L ξ^H-column systems; equivalently apply the
        // right-triangular solve used for orthogonalization
        let mut xi = w;
        pt_linalg::trsm_right_lh(&mut xi, &l);
        Ok(AceOperator { xi })
    }

    /// Reconstruct from previously captured projector columns (checkpoint
    /// restore): resuming mid-refresh-window must reuse the exact ξ that
    /// was live, not one rebuilt from the restored Ψ.
    pub fn from_xi(xi: CMat) -> Self {
        AceOperator { xi }
    }

    /// The projector columns ξ (N_G × N_φ).
    pub fn xi(&self) -> &CMat {
        &self.xi
    }

    /// Apply: `out += V_ACE ψ = −ξ (ξ^H ψ)` for a block of orbitals.
    ///
    /// Band-parallel on the installed pool: each output column `j` owns
    /// its own projections `ξ^H ψ_j` and its own rank-N_φ update, so the
    /// work is self-contained per column and the results are bit-identical
    /// for every thread count (and, because the distributed path splits by
    /// whole bands, every rank count).
    pub fn apply_block(&self, psi: &CMat, out: &mut CMat) {
        assert_eq!(psi.nrows(), self.xi.nrows(), "ACE apply: row mismatch");
        assert_eq!(out.nrows(), psi.nrows());
        assert_eq!(out.ncols(), psi.ncols());
        let ng = self.xi.nrows();
        let nb = self.xi.ncols();
        pt_par::parallel_chunks_mut(out.data_mut(), ng, |j, ocol| {
            let psi_j = psi.col(j);
            for i in 0..nb {
                let xi_i = self.xi.col(i);
                let p = pt_num::complex::zdotc(xi_i, psi_j);
                for (o, x) in ocol.iter_mut().zip(xi_i) {
                    *o -= *x * p;
                }
            }
        });
    }

    /// Rank of the compression (N_φ).
    pub fn rank(&self) -> usize {
        self.xi.ncols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fock::{FockMode, ScreenedKernel};
    use pt_lattice::silicon_cubic_supercell;

    fn setup() -> (PwGrids, CMat, FockOperator) {
        let s = silicon_cubic_supercell(1, 1, 1);
        let grids = PwGrids::new(&s, 2.0);
        let ng = grids.ng();
        let nb = 4;
        let mut rng = pt_num::rng::XorShift64::new(11u64);
        let mut phi = CMat::from_fn(ng, nb, |_, _| {
            c64::new(rng.next_centered(), rng.next_centered())
        });
        pt_linalg::orthonormalize_columns(&mut phi, 0.0);
        let kern = ScreenedKernel::new(&grids, 0.11);
        let fock = FockOperator::new(&grids, &phi, 0.25, kern, FockMode::Batched);
        (grids, phi, fock)
    }

    #[test]
    fn ace_is_exact_on_the_defining_orbitals() {
        // The ACE identity: V_ACE Φ = V_X Φ exactly.
        let (grids, phi, fock) = setup();
        let ace = AceOperator::new(&grids, &fock, &phi).unwrap();
        let mut exact = CMat::zeros(phi.nrows(), phi.ncols());
        fock.apply_block(&grids, &phi, &mut exact);
        let mut compressed = CMat::zeros(phi.nrows(), phi.ncols());
        ace.apply_block(&phi, &mut compressed);
        let err = exact.max_diff(&compressed);
        assert!(err < 1e-9, "ACE must reproduce V_X on span(Φ): {err}");
    }

    #[test]
    fn ace_energy_matches_exact_exchange_energy() {
        let (grids, phi, fock) = setup();
        let ace = AceOperator::new(&grids, &fock, &phi).unwrap();
        let occ = vec![2.0; phi.ncols()];
        let e_exact = fock.energy(&grids, &phi, &occ);
        // E_x = ½ Σ_j f_j ⟨φ_j|V_ACE φ_j⟩
        let mut v = CMat::zeros(phi.nrows(), phi.ncols());
        ace.apply_block(&phi, &mut v);
        let e_ace: f64 = (0..phi.ncols())
            .map(|j| 0.5 * occ[j] * pt_num::complex::zdotc(phi.col(j), v.col(j)).re)
            .sum();
        assert!(
            (e_exact - e_ace).abs() < 1e-9 * e_exact.abs(),
            "{e_exact} vs {e_ace}"
        );
        assert!(e_exact < 0.0);
    }

    #[test]
    fn ace_is_negative_semidefinite_everywhere() {
        // off span(Φ), V_ACE underestimates |V_X| but never changes sign
        let (grids, phi, fock) = setup();
        let ace = AceOperator::new(&grids, &fock, &phi).unwrap();
        let ng = grids.ng();
        let mut rng = pt_num::rng::XorShift64::new(99u64);
        for trial in 0..5 {
            let v = CMat::from_fn(ng, 1, |_, _| {
                c64::new(rng.next_centered(), rng.next_centered())
            });
            let mut out = CMat::zeros(ng, 1);
            ace.apply_block(&v, &mut out);
            let q = pt_num::complex::zdotc(v.col(0), out.col(0)).re;
            assert!(q <= 1e-10, "trial {trial}: ⟨v|V_ACE v⟩ = {q} > 0");
        }
        assert_eq!(ace.rank(), phi.ncols());
    }

    #[test]
    fn rank_deficient_phi_is_a_typed_error() {
        // Duplicated columns make P = ΦΦ* rank-deficient; scaled up they
        // push the Gram matrix past the 1e-14 ridge into a non-positive
        // Cholesky pivot. This used to panic inside cholesky_in_place.
        let (grids, phi, _fock) = setup();
        let ng = grids.ng();
        let mut bad = CMat::zeros(ng, 3);
        for i in 0..ng {
            let v = phi[(i, 0)].scale(1e4);
            bad[(i, 0)] = v;
            bad[(i, 1)] = v;
            bad[(i, 2)] = v;
        }
        let kern = ScreenedKernel::new(&grids, 0.11);
        let fock = FockOperator::new(&grids, &bad, 0.25, kern, FockMode::Batched);
        let err = AceOperator::new(&grids, &fock, &bad).unwrap_err();
        match err {
            PtError::InvalidConfig(msg) => {
                assert!(
                    msg.contains("rank-deficient") && msg.contains("pivot"),
                    "unexpected message: {msg}"
                );
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn from_w_rejects_mismatched_shapes() {
        let (grids, phi, _fock) = setup();
        let w = CMat::zeros(grids.ng(), phi.ncols() + 1);
        assert!(matches!(
            AceOperator::from_w(&phi, w),
            Err(PtError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn apply_block_is_bit_identical_across_thread_counts() {
        let (grids, phi, fock) = setup();
        let ace = AceOperator::new(&grids, &fock, &phi).unwrap();
        let psi = CMat::rand_normalized(grids.ng(), 3, 42);
        let run = |threads: usize| {
            let pool = pt_par::ThreadPool::new(threads);
            pool.install(|| {
                let mut out = CMat::rand_normalized(grids.ng(), 3, 7);
                ace.apply_block(&psi, &mut out);
                out
            })
        };
        let o1 = run(1);
        let o4 = run(4);
        for (a, b) in o1.data().iter().zip(o4.data()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn xi_round_trips_through_from_xi() {
        let (grids, phi, fock) = setup();
        let ace = AceOperator::new(&grids, &fock, &phi).unwrap();
        let restored = AceOperator::from_xi(ace.xi().clone());
        let psi = CMat::rand_normalized(grids.ng(), 2, 5);
        let mut a = CMat::zeros(grids.ng(), 2);
        let mut b = CMat::zeros(grids.ng(), 2);
        ace.apply_block(&psi, &mut a);
        restored.apply_block(&psi, &mut b);
        assert_eq!(a.max_diff(&b), 0.0, "from_xi must reproduce bits");
    }
}
