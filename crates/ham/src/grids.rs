//! The two plane-wave grids and the transforms between spaces.
//!
//! Orbitals live as coefficient vectors over the wavefunction G-sphere
//! (`ψ(r) = Ω^{-1/2} Σ_G c_G e^{iG·r}`, `|G|²/2 ≤ E_cut`) — the `N_G` of
//! the paper. Two FFT grids serve them:
//!
//! * the **wavefunction grid** (holds the E_cut sphere) — where Alg. 2
//!   solves its Poisson-like equations,
//! * the **dense grid** (2× linear size, 4·E_cut sphere) — where the
//!   density, Hartree and XC potentials live alias-free.
//!
//! With this coefficient normalization, plane-wave coefficient vectors are
//! orthonormal under the plain ℓ² inner product, so all `pt-linalg` overlap
//! machinery applies unchanged.

use pt_fft::{Fft3, SphereMap};
use pt_lattice::{fft_dims_for_cutoff, GSphere, GridGVectors, Structure};
use pt_num::c64;

/// Grids, spheres and FFT plans for one structure + cutoff.
pub struct PwGrids {
    /// Kinetic cutoff (Ha).
    pub ecut: f64,
    /// Cell volume (bohr³).
    pub volume: f64,
    /// Wavefunction G-sphere (coefficients of every orbital).
    pub sphere: GSphere,
    /// Wavefunction-grid FFT.
    pub fft_wfc: Fft3,
    /// G vectors over the full wavefunction grid (exchange kernel).
    pub gv_wfc: GridGVectors,
    /// Dense-grid FFT (density/potentials).
    pub fft_dense: Fft3,
    /// G vectors over the full dense grid.
    pub gv_dense: GridGVectors,
    /// Sphere → dense-grid scatter indices.
    pub sphere_in_dense: Vec<usize>,
    /// The lines of the wavefunction grid the sphere touches.
    map_wfc: SphereMap,
    /// The lines of the dense grid the sphere touches.
    map_dense: SphereMap,
}

impl PwGrids {
    /// Build grids for `structure` at cutoff `ecut`.
    pub fn new(structure: &Structure, ecut: f64) -> Self {
        let wdims = fft_dims_for_cutoff(&structure.cell, ecut);
        let ddims = fft_dims_for_cutoff(&structure.cell, 4.0 * ecut);
        let sphere = GSphere::new(&structure.cell, ecut, wdims);
        let sphere_in_dense = sphere.fft_index_in(ddims);
        let fft_wfc = Fft3::new(wdims.0, wdims.1, wdims.2);
        let fft_dense = Fft3::new(ddims.0, ddims.1, ddims.2);
        PwGrids {
            ecut,
            volume: structure.cell.volume(),
            map_wfc: fft_wfc.sphere_map(&sphere.fft_index),
            fft_wfc,
            gv_wfc: GridGVectors::new(&structure.cell, wdims),
            map_dense: fft_dense.sphere_map(&sphere_in_dense),
            fft_dense,
            gv_dense: GridGVectors::new(&structure.cell, ddims),
            sphere_in_dense,
            sphere,
        }
    }

    /// Number of plane waves (paper's N_G).
    #[inline]
    pub fn ng(&self) -> usize {
        self.sphere.len()
    }

    /// Points on the wavefunction grid.
    #[inline]
    pub fn n_wfc(&self) -> usize {
        self.fft_wfc.len()
    }

    /// Points on the dense grid.
    #[inline]
    pub fn n_dense(&self) -> usize {
        self.fft_dense.len()
    }

    /// Real-space orbital values on the **wavefunction grid** (serial FFT;
    /// used inside batched loops).
    pub fn to_real_wfc(&self, coeffs: &[c64], out: &mut [c64]) {
        self.synthesis(&self.fft_wfc, &self.map_wfc, coeffs, out);
    }

    /// Gather real-space values on the wavefunction grid back to sphere
    /// coefficients (adjoint of [`PwGrids::to_real_wfc`]); `values` is
    /// work space.
    pub fn to_coeffs_wfc(&self, values: &mut [c64], out: &mut [c64]) {
        self.analysis(&self.fft_wfc, &self.map_wfc, values, out);
    }

    /// Real-space orbital values on the **dense grid**.
    pub fn to_real_dense(&self, coeffs: &[c64], out: &mut [c64]) {
        self.synthesis(&self.fft_dense, &self.map_dense, coeffs, out);
    }

    /// Gather dense-grid real-space values to sphere coefficients;
    /// `values` is work space.
    pub fn to_coeffs_dense(&self, values: &mut [c64], out: &mut [c64]) {
        self.analysis(&self.fft_dense, &self.map_dense, values, out);
    }

    /// Sphere coefficients to Ω^{-1/2}-normalized real-space values:
    /// `ψ(r_j) = Ω^{-1/2} Σ_G c_G e^{iG·r_j}` is the *unscaled* inverse
    /// transform times the one factor 1/√Ω.
    fn synthesis(&self, fft: &Fft3, map: &SphereMap, coeffs: &[c64], out: &mut [c64]) {
        fft.synthesis_serial(map, coeffs, out);
        let s = 1.0 / self.volume.sqrt();
        for z in out.iter_mut() {
            *z = z.scale(s);
        }
    }

    /// The adjoint of [`PwGrids::synthesis`] under the grid quadrature
    /// `Ω/N Σ_j`: the forward transform at the sphere's G times √Ω/N.
    fn analysis(&self, fft: &Fft3, map: &SphereMap, values: &mut [c64], out: &mut [c64]) {
        fft.analysis_serial(map, values, out);
        let s = self.volume.sqrt() / fft.len() as f64;
        for c in out.iter_mut() {
            *c = c.scale(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_lattice::silicon_cubic_supercell;

    fn norm_block(n: usize, seed: u64) -> Vec<c64> {
        pt_linalg::CMat::rand_normalized(n, 1, seed).col(0).to_vec()
    }

    #[test]
    fn roundtrip_wfc_and_dense() {
        let s = silicon_cubic_supercell(1, 1, 1);
        let g = PwGrids::new(&s, 4.0);
        let c = norm_block(g.ng(), 5);
        let mut real = vec![c64::ZERO; g.n_wfc()];
        g.to_real_wfc(&c, &mut real);
        let mut back = vec![c64::ZERO; g.ng()];
        g.to_coeffs_wfc(&mut real.clone(), &mut back);
        let err = c
            .iter()
            .zip(&back)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-12, "wfc roundtrip {err}");

        let mut rd = vec![c64::ZERO; g.n_dense()];
        g.to_real_dense(&c, &mut rd);
        let mut back2 = vec![c64::ZERO; g.ng()];
        g.to_coeffs_dense(&mut rd.clone(), &mut back2);
        let err2 = c
            .iter()
            .zip(&back2)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max);
        assert!(err2 < 1e-12, "dense roundtrip {err2}");
    }

    #[test]
    fn parseval_normalization() {
        // unit-norm coefficients ⇒ ∫|ψ|² dr = (Ω/N) Σ_j |ψ(r_j)|² = 1,
        // on both grids
        let s = silicon_cubic_supercell(1, 1, 1);
        let g = PwGrids::new(&s, 4.0);
        let c = norm_block(g.ng(), 17);
        let mut real = vec![c64::ZERO; g.n_wfc()];
        g.to_real_wfc(&c, &mut real);
        let int_w: f64 =
            real.iter().map(|z| z.norm_sqr()).sum::<f64>() * g.volume / g.n_wfc() as f64;
        assert!((int_w - 1.0).abs() < 1e-11, "wfc norm {int_w}");
        let mut rd = vec![c64::ZERO; g.n_dense()];
        g.to_real_dense(&c, &mut rd);
        let int_d: f64 =
            rd.iter().map(|z| z.norm_sqr()).sum::<f64>() * g.volume / g.n_dense() as f64;
        assert!((int_d - 1.0).abs() < 1e-11, "dense norm {int_d}");
    }

    #[test]
    fn constant_orbital_is_g0() {
        let s = silicon_cubic_supercell(1, 1, 1);
        let g = PwGrids::new(&s, 2.0);
        let mut c = vec![c64::ZERO; g.ng()];
        c[0] = c64::ONE; // sphere is sorted: G=0 first
        let mut real = vec![c64::ZERO; g.n_wfc()];
        g.to_real_wfc(&c, &mut real);
        let want = 1.0 / g.volume.sqrt();
        for z in &real {
            assert!((z.re - want).abs() < 1e-12 && z.im.abs() < 1e-13);
        }
    }
}
