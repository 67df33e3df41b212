//! The assembled Kohn–Sham Hamiltonian and its application `HΨ`.

use crate::fock::FockOperator;
use crate::grids::PwGrids;
use crate::scratch::SCRATCH;
use pt_linalg::CMat;
use pt_num::{c64, with_scratch};
use pt_pseudo::NonlocalPs;
use std::sync::Arc;

/// `H = ½|G+A|² + V_loc(r) + V_NL + V_X[P]` bound to fixed potentials.
///
/// The local potential lives on the dense grid; applying it costs one
/// dense-grid FFT round trip per band. The Fock part is optional (None =
/// semi-local functional) — and in the ACE propagation modes the PT-CN
/// step assembles the Fock-free Hamiltonian (`KsSystem::local_hamiltonian`)
/// and adds the frozen rank-N_φ [`crate::AceOperator`] projector instead,
/// so this operator's pair-FFT loop runs only at projector refreshes.
pub struct Hamiltonian {
    /// Shared grids.
    pub grids: Arc<PwGrids>,
    /// Total local potential on the dense grid (pseudo + Hartree + XC).
    pub vloc_r: Vec<f64>,
    /// Nonlocal pseudopotential.
    pub nonlocal: Arc<NonlocalPs>,
    /// Exchange operator (hybrid functionals).
    pub fock: Option<Arc<FockOperator>>,
    /// Velocity-gauge vector potential A(t) (laser coupling).
    pub a_field: [f64; 3],
}

impl Hamiltonian {
    /// Kinetic factors ½|G+A|² over the sphere.
    pub fn kinetic_diag(&self) -> Vec<f64> {
        self.grids
            .sphere
            .g_cart
            .iter()
            .map(|g| {
                let kx = g[0] + self.a_field[0];
                let ky = g[1] + self.a_field[1];
                let kz = g[2] + self.a_field[2];
                0.5 * (kx * kx + ky * ky + kz * kz)
            })
            .collect()
    }

    /// Apply to a block, parallel over bands (band-index layout of §3.1):
    /// kinetic + local + nonlocal run one band per pool task with serial
    /// FFTs inside, then the Fock part (if any) is applied band-pair
    /// parallel at the block level by [`FockOperator::apply_block`].
    pub fn apply_block(&self, psi: &CMat, out: &mut CMat) {
        assert_eq!(psi.nrows(), self.grids.ng());
        assert_eq!(out.nrows(), psi.nrows());
        assert_eq!(out.ncols(), psi.ncols());
        let kin = self.kinetic_diag();
        let ng = self.grids.ng();
        pt_par::parallel_chunks_mut(out.data_mut(), ng, |j, ocol| {
            self.apply_serial_local(psi.col(j), ocol, &kin);
        });
        if let Some(f) = &self.fock {
            f.apply_block(&self.grids, psi, out);
        }
    }

    /// Single-band kinetic/local/nonlocal application with serial FFTs,
    /// which `apply_block` runs one band per pool task.
    fn apply_serial_local(&self, psi: &[c64], out: &mut [c64], kin: &[f64]) {
        let g = &self.grids;
        for ((o, p), k) in out.iter_mut().zip(psi).zip(kin) {
            *o = p.scale(*k);
        }
        with_scratch(&SCRATCH, g.n_dense() + g.ng(), |work| {
            let (dense, vloc_psi) = work.split_at_mut(g.n_dense());
            g.to_real_dense(psi, dense);
            for (z, &v) in dense.iter_mut().zip(&self.vloc_r) {
                *z = z.scale(v);
            }
            g.to_coeffs_dense(dense, vloc_psi);
            for (o, v) in out.iter_mut().zip(vloc_psi.iter()) {
                *o += *v;
            }
        });
        self.nonlocal.apply(psi, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fock::{FockMode, ScreenedKernel};
    use pt_lattice::{silicon_cubic_supercell, GSphere};

    fn make_h(with_fock: bool) -> (Arc<PwGrids>, Hamiltonian) {
        let s = silicon_cubic_supercell(1, 1, 1);
        let grids = Arc::new(PwGrids::new(&s, 2.5));
        let sphere: &GSphere = &grids.sphere;
        let _ = sphere;
        let nl = Arc::new(pt_pseudo::NonlocalPs::new(&s, &grids.sphere).unwrap());
        // a smooth local potential
        let vloc: Vec<f64> = (0..grids.n_dense())
            .map(|i| 0.05 * ((i % 7) as f64 - 3.0))
            .collect();
        let fock = if with_fock {
            let phi = rand_block(grids.ng(), 2, 5);
            let kern = ScreenedKernel::new(&grids, 0.11);
            Some(Arc::new(FockOperator::new(
                &grids,
                &phi,
                0.25,
                kern,
                FockMode::Batched,
            )))
        } else {
            None
        };
        let h = Hamiltonian {
            grids: Arc::clone(&grids),
            vloc_r: vloc,
            nonlocal: nl,
            fock,
            a_field: [0.0; 3],
        };
        (grids, h)
    }

    fn rand_block(ng: usize, nb: usize, seed: u64) -> CMat {
        CMat::rand_normalized(ng, nb, seed)
    }

    /// `H ψ` for a one-column block.
    fn apply_one(h: &Hamiltonian, psi: &CMat) -> CMat {
        let mut out = CMat::zeros(psi.nrows(), 1);
        h.apply_block(psi, &mut out);
        out
    }

    #[test]
    fn hamiltonian_is_hermitian() {
        for with_fock in [false, true] {
            let (g, h) = make_h(with_fock);
            let a = rand_block(g.ng(), 1, 1);
            let b = rand_block(g.ng(), 1, 2);
            let (ha, hb) = (apply_one(&h, &a), apply_one(&h, &b));
            let lhs = pt_num::complex::zdotc(a.col(0), hb.col(0));
            let rhs = pt_num::complex::zdotc(ha.col(0), b.col(0));
            assert!(
                (lhs - rhs).abs() < 1e-9,
                "fock={with_fock}: {lhs:?} vs {rhs:?}"
            );
        }
    }

    #[test]
    fn block_apply_matches_single() {
        let (g, h) = make_h(true);
        let psi = rand_block(g.ng(), 3, 9);
        let mut out = CMat::zeros(g.ng(), 3);
        h.apply_block(&psi, &mut out);
        for j in 0..3 {
            let col = apply_one(&h, &CMat::from_vec(g.ng(), 1, psi.col(j).to_vec()));
            let err = col
                .col(0)
                .iter()
                .zip(out.col(j))
                .map(|(x, y)| (*x - *y).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-11, "band {j}: {err}");
        }
    }

    #[test]
    fn vector_potential_shifts_kinetic() {
        let (g, mut h) = make_h(false);
        h.a_field = [0.1, -0.2, 0.05];
        let kin = h.kinetic_diag();
        for (k, gc) in kin.iter().zip(&g.sphere.g_cart) {
            let want =
                0.5 * ((gc[0] + 0.1).powi(2) + (gc[1] - 0.2).powi(2) + (gc[2] + 0.05).powi(2));
            assert!((k - want).abs() < 1e-14);
        }
    }

    #[test]
    fn band_energies_real_and_bounded_below() {
        let (g, h) = make_h(false);
        let psi = rand_block(g.ng(), 4, 21);
        let mut hpsi = CMat::zeros(g.ng(), 4);
        h.apply_block(&psi, &mut hpsi);
        // kinetic is ≥ 0; local is bounded by max|V|; NL by Σ|h|·‖β‖² — just
        // check the Rayleigh quotients are finite and not absurd
        for j in 0..4 {
            let v = pt_num::complex::zdotc(psi.col(j), hpsi.col(j)).re;
            assert!(v.is_finite() && v.abs() < 1e3);
        }
    }
}
