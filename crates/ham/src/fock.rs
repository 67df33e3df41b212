//! The Fock exchange operator `V_X[P]` — Eq. (3) / Alg. 2 of the paper.
//!
//! `(V_X ψ_j)(r) = −α Σ_i φ_i(r) ∫ K(r−r') φ_i*(r') ψ_j(r') dr'`
//!
//! Each (i, j) pair costs one forward + one inverse FFT on the wavefunction
//! grid (a "Poisson-like equation"); a full application is N_φ × N_ψ such
//! solves — the N_e² scaling that makes hybrid functionals ~95 % of CPU
//! time. The screened HSE kernel
//! `K(G) = 4π (1 − e^{−G²/4ω²})/G²` has the finite limit `π/ω²` at G = 0,
//! so Γ-point calculations need no divergence correction.
//!
//! [`FockMode`] selects the execution layout, mirroring the paper's GPU
//! optimization stages (§3.2): `BandByBand` parallelizes inside one 3-D
//! FFT at a time (stage 1); `Batched` runs many pair-FFTs concurrently
//! (stage 2, the batched-CUFFT analogue).
//!
//! In the PT-CN hot path this operator is rarely applied directly: the
//! [ACE compression](crate::AceOperator) spends one block application
//! (`W = V_X Φ`) per projector refresh and replaces every subsequent
//! exchange apply with two rank-N_φ GEMMs — see [`crate::ace`] and
//! `ExchangeMode` on the system builder for the refresh policy.

use crate::grids::PwGrids;
use pt_linalg::CMat;
use pt_num::c64;

/// The (possibly screened) electron–electron interaction kernel in G-space.
#[derive(Clone, Debug)]
pub struct ScreenedKernel {
    /// Kernel values at every wavefunction-grid G point.
    pub values: Vec<f64>,
    /// Screening parameter ω (bohr⁻¹); 0 = bare Coulomb.
    pub omega: f64,
}

impl ScreenedKernel {
    /// Tabulate the kernel on the wavefunction grid. `omega > 0` gives the
    /// short-range erfc-screened interaction of HSE (G = 0 value π/ω²);
    /// `omega = 0` gives the bare 4π/G² with the G = 0 term dropped
    /// (the simple Γ-point convention, exposed for ablations).
    pub fn new(grids: &PwGrids, omega: f64) -> Self {
        let pi = std::f64::consts::PI;
        let values = grids
            .gv_wfc
            .g2
            .iter()
            .map(|&g2| {
                if g2 > 1e-12 {
                    if omega > 0.0 {
                        4.0 * pi / g2 * (1.0 - (-g2 / (4.0 * omega * omega)).exp())
                    } else {
                        4.0 * pi / g2
                    }
                } else if omega > 0.0 {
                    pi / (omega * omega)
                } else {
                    0.0
                }
            })
            .collect();
        ScreenedKernel { values, omega }
    }
}

/// Execution layout for the pair-FFT loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FockMode {
    /// One pair at a time, parallelism inside each 3-D FFT (paper stage 1).
    BandByBand,
    /// All pairs of one `ψ_j` batched, parallel across pairs (stage 2+).
    Batched,
}

/// The exchange operator with a frozen set of defining orbitals Φ.
pub struct FockOperator {
    /// Real-space values of the defining orbitals on the wavefunction grid
    /// (precomputed once per Φ update — N_φ × N_wfc).
    phi_real: Vec<Vec<c64>>,
    /// Mixing fraction α (0.25 for HSE06).
    pub alpha: f64,
    kernel: ScreenedKernel,
    mode: FockMode,
}

impl FockOperator {
    /// Freeze `phi` (columns = orbitals, sphere coefficients) as the
    /// density-matrix factor of `V_X[P]`, P = Φ Φ*.
    pub fn new(
        grids: &PwGrids,
        phi: &CMat,
        alpha: f64,
        kernel: ScreenedKernel,
        mode: FockMode,
    ) -> Self {
        assert_eq!(phi.nrows(), grids.ng());
        let phi_real: Vec<Vec<c64>> = pt_par::parallel_map(phi.ncols(), |i| {
            let mut r = vec![c64::ZERO; grids.n_wfc()];
            grids.to_real_wfc(phi.col(i), &mut r);
            r
        });
        FockOperator {
            phi_real,
            alpha,
            kernel,
            mode,
        }
    }

    /// Number of defining orbitals N_φ.
    pub fn n_phi(&self) -> usize {
        self.phi_real.len()
    }

    /// Execution mode.
    pub fn mode(&self) -> FockMode {
        self.mode
    }

    /// Change the execution mode (used by the stage-ablation benches).
    pub fn set_mode(&mut self, mode: FockMode) {
        self.mode = mode;
    }

    /// Apply to one orbital: `out += (V_X ψ)` in sphere coefficients.
    pub fn apply(&self, grids: &PwGrids, psi: &[c64], out: &mut [c64]) {
        let nw = grids.n_wfc();
        let mut psi_real = vec![c64::ZERO; nw];
        grids.to_real_wfc(psi, &mut psi_real);
        let acc_real = self.apply_real(grids, &psi_real);
        // back to sphere coefficients and accumulate
        let mut acc = acc_real;
        let mut coeffs = vec![c64::ZERO; grids.ng()];
        grids.to_coeffs_wfc(&mut acc, &mut coeffs);
        for (o, c) in out.iter_mut().zip(&coeffs) {
            *o += *c;
        }
    }

    /// Core pair loop on real-space input, returning `(V_X ψ)(r)` on the
    /// wavefunction grid. Exposed for the distributed Alg. 2 driver.
    pub fn apply_real(&self, grids: &PwGrids, psi_real: &[c64]) -> Vec<c64> {
        let nw = grids.n_wfc();
        // one Poisson-like solve per defining orbital, either mode
        pt_trace::counter_add(pt_trace::Counter::PairFfts, self.phi_real.len() as u64);
        match self.mode {
            FockMode::BandByBand => {
                let mut acc = vec![c64::ZERO; nw];
                let mut pair = vec![c64::ZERO; nw];
                for phi in &self.phi_real {
                    // charge-like quantity φ_i*(r) ψ(r)
                    for ((p, f), s) in pair.iter_mut().zip(phi).zip(psi_real) {
                        *p = f.conj() * *s;
                    }
                    // Poisson-like solve with the screened kernel
                    grids.fft_wfc.forward(&mut pair);
                    for (z, &k) in pair.iter_mut().zip(&self.kernel.values) {
                        *z = z.scale(k);
                    }
                    grids.fft_wfc.inverse(&mut pair);
                    // accumulate −α φ_i(r) v_i(r); the grid convolution
                    // IFFT(K·FFT(pair)) is the exact integral, no volume
                    // factor (see uniform-orbital test for the pinning)
                    for ((o, f), v) in acc.iter_mut().zip(phi).zip(&pair) {
                        *o += (*f * *v).scale(-self.alpha);
                    }
                }
                acc
            }
            FockMode::Batched => {
                // one accumulator (and one pair scratch) per φ-chunk, φ in
                // index order inside a chunk
                let n_phi = self.phi_real.len();
                let kc = pt_par::chunk_count(n_phi);
                let partials: Vec<Vec<c64>> = pt_par::parallel_map(kc, |c| {
                    let mut acc = vec![c64::ZERO; nw];
                    let mut pair = vec![c64::ZERO; nw];
                    for phi in &self.phi_real[pt_par::chunk_range(n_phi, kc, c)] {
                        for ((p, f), s) in pair.iter_mut().zip(phi).zip(psi_real) {
                            *p = f.conj() * *s;
                        }
                        grids.fft_wfc.forward_serial(&mut pair);
                        for (z, &k) in pair.iter_mut().zip(&self.kernel.values) {
                            *z = z.scale(k);
                        }
                        grids.fft_wfc.inverse_serial(&mut pair);
                        for ((o, f), v) in acc.iter_mut().zip(phi).zip(&pair) {
                            *o += (*f * *v).scale(-self.alpha);
                        }
                    }
                    acc
                });
                // chunk-ordered left accumulate from zero (not a pairwise
                // tree: the pinned trajectories carry this association)
                let mut acc = vec![c64::ZERO; nw];
                for part in &partials {
                    for (x, y) in acc.iter_mut().zip(part) {
                        *x += *y;
                    }
                }
                acc
            }
        }
    }

    /// Apply to a block: `out[:, j] += V_X ψ_j`.
    ///
    /// In [`FockMode::Batched`] this is **band-pair parallel**: the
    /// N_φ × N_ψ pair solves are cut into `(ψ-band, φ-chunk)` pool tasks
    /// (the paper's batched-CUFFT stage over Alg. 2's pair loop), each
    /// running its FFTs serially. The φ-chunking depends only on the two
    /// band counts, and per-band partials are combined in φ-chunk order,
    /// so results are bit-identical for every thread count.
    /// [`FockMode::BandByBand`] keeps the stage-1 layout: one pair at a
    /// time with parallelism inside each 3-D FFT.
    pub fn apply_block(&self, grids: &PwGrids, psi: &CMat, out: &mut CMat) {
        assert_eq!(psi.nrows(), grids.ng());
        assert_eq!(out.nrows(), psi.nrows());
        assert_eq!(out.ncols(), psi.ncols());
        if self.mode == FockMode::BandByBand {
            for j in 0..psi.ncols() {
                // split borrow: copy column out, apply, write back
                let mut col = out.col(j).to_vec();
                self.apply(grids, psi.col(j), &mut col);
                out.col_mut(j).copy_from_slice(&col);
            }
            return;
        }
        let n_psi = psi.ncols();
        let n_phi = self.phi_real.len();
        if n_psi == 0 || n_phi == 0 {
            return;
        }
        let nw = grids.n_wfc();
        let ng = grids.ng();
        pt_trace::counter_add(pt_trace::Counter::PairFfts, (n_phi * n_psi) as u64);
        // ψ_j → real space, band-parallel
        let psi_real: Vec<Vec<c64>> = pt_par::parallel_map(n_psi, |j| {
            let mut r = vec![c64::ZERO; nw];
            grids.to_real_wfc(psi.col(j), &mut r);
            r
        });
        // pair solves: task (j, c) owns ψ_j against the c-th φ-chunk
        let kc = pair_phi_chunks(n_phi, n_psi);
        let partials: Vec<Vec<c64>> = pt_par::parallel_map(n_psi * kc, |t| {
            let (j, c) = (t / kc, t % kc);
            let mut acc = vec![c64::ZERO; nw];
            let mut pair = vec![c64::ZERO; nw];
            for i in pt_par::chunk_range(n_phi, kc, c) {
                let phi = &self.phi_real[i];
                for ((p, f), s) in pair.iter_mut().zip(phi).zip(&psi_real[j]) {
                    *p = f.conj() * *s;
                }
                grids.fft_wfc.forward_serial(&mut pair);
                for (z, &k) in pair.iter_mut().zip(&self.kernel.values) {
                    *z = z.scale(k);
                }
                grids.fft_wfc.inverse_serial(&mut pair);
                for ((o, f), v) in acc.iter_mut().zip(phi).zip(&pair) {
                    *o += (*f * *v).scale(-self.alpha);
                }
            }
            acc
        });
        // per band: combine φ-chunks in order, back to sphere coefficients
        pt_par::parallel_chunks_mut(out.data_mut(), ng, |j, ocol| {
            let mut acc = vec![c64::ZERO; nw];
            for part in &partials[j * kc..(j + 1) * kc] {
                for (x, y) in acc.iter_mut().zip(part) {
                    *x += *y;
                }
            }
            let mut coeffs = vec![c64::ZERO; ng];
            grids.to_coeffs_wfc(&mut acc, &mut coeffs);
            for (o, z) in ocol.iter_mut().zip(&coeffs) {
                *o += *z;
            }
        });
    }

    /// Exchange energy `E_x = ½ Σ_j f_j ⟨ψ_j|V_X ψ_j⟩` for the orbitals
    /// that define the operator (with occupations `occ`).
    pub fn energy(&self, grids: &PwGrids, psi: &CMat, occ: &[f64]) -> f64 {
        assert_eq!(psi.ncols(), occ.len());
        let mut v = CMat::zeros(grids.ng(), psi.ncols());
        self.apply_block(grids, psi, &mut v);
        pt_num::reduce::sum_f64(
            (0..psi.ncols())
                .map(|j| 0.5 * occ[j] * pt_num::complex::zdotc(psi.col(j), v.col(j)).re),
        )
    }
}

/// Number of φ-chunks the pair loop is cut into. Depends only on the band
/// counts (never the thread count) so chunk-ordered accumulation stays
/// bit-deterministic; sized so a full block application yields ~64 tasks.
fn pair_phi_chunks(n_phi: usize, n_psi: usize) -> usize {
    (64 / n_psi.max(1)).clamp(1, n_phi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_lattice::silicon_cubic_supercell;

    fn grids() -> (pt_lattice::Structure, PwGrids) {
        let s = silicon_cubic_supercell(1, 1, 1);
        let g = PwGrids::new(&s, 2.5);
        (s, g)
    }

    fn rand_block(ng: usize, nb: usize, seed: u64) -> CMat {
        CMat::rand_normalized(ng, nb, seed)
    }

    #[test]
    fn kernel_g0_limit_is_pi_over_omega_sq() {
        let (_s, g) = grids();
        let k = ScreenedKernel::new(&g, 0.11);
        // G = 0 is grid index 0
        let want = std::f64::consts::PI / (0.11 * 0.11);
        assert!((k.values[0] - want).abs() < 1e-10);
        // for large G the screened kernel approaches bare Coulomb
        let kbare = ScreenedKernel::new(&g, 0.0);
        let idx = g
            .gv_wfc
            .g2
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((k.values[idx] / kbare.values[idx] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn modes_agree() {
        let (_s, g) = grids();
        let phi = rand_block(g.ng(), 3, 11);
        let psi = rand_block(g.ng(), 2, 22);
        let kern = ScreenedKernel::new(&g, 0.11);
        let f1 = FockOperator::new(&g, &phi, 0.25, kern.clone(), FockMode::BandByBand);
        let f2 = FockOperator::new(&g, &phi, 0.25, kern, FockMode::Batched);
        let mut o1 = CMat::zeros(g.ng(), 2);
        let mut o2 = CMat::zeros(g.ng(), 2);
        f1.apply_block(&g, &psi, &mut o1);
        f2.apply_block(&g, &psi, &mut o2);
        assert!(o1.max_diff(&o2) < 1e-11, "{}", o1.max_diff(&o2));
    }

    #[test]
    fn operator_is_hermitian_and_negative() {
        let (_s, g) = grids();
        let phi = rand_block(g.ng(), 4, 33);
        let kern = ScreenedKernel::new(&g, 0.2);
        let f = FockOperator::new(&g, &phi, 0.25, kern, FockMode::Batched);
        let a = rand_block(g.ng(), 1, 44);
        let b = rand_block(g.ng(), 1, 55);
        let mut va = vec![c64::ZERO; g.ng()];
        let mut vb = vec![c64::ZERO; g.ng()];
        f.apply(&g, a.col(0), &mut va);
        f.apply(&g, b.col(0), &mut vb);
        let lhs = pt_num::complex::zdotc(a.col(0), &vb);
        let rhs = pt_num::complex::zdotc(&va, b.col(0));
        assert!((lhs - rhs).abs() < 1e-10, "hermiticity: {lhs:?} vs {rhs:?}");
        // negative semidefinite: ⟨ψ|V_X ψ⟩ ≤ 0 (K > 0, α > 0)
        let diag = pt_num::complex::zdotc(a.col(0), &va).re;
        assert!(diag <= 1e-12, "⟨ψ|V_X ψ⟩ = {diag} must be ≤ 0");
    }

    #[test]
    fn exchange_energy_invariant_under_unitary_rotation() {
        // E_x depends only on the density matrix P = ΦΦ*, a gauge/rotation
        // invariant — the foundation of the parallel-transport idea.
        let (_s, g) = grids();
        let mut phi_o = rand_block(g.ng(), 3, 66);
        pt_linalg::orthonormalize_columns(&mut phi_o, 0.0);
        // random unitary from eigendecomposition of a Hermitian matrix
        let h = {
            let a = rand_block(3, 3, 77);
            let mut h = CMat::zeros(3, 3);
            for j in 0..3 {
                for i in 0..3 {
                    h[(i, j)] = (a[(i, j)] + a[(j, i)].conj()).scale(0.5);
                }
            }
            h
        };
        let (_w, u) = pt_linalg::eigh(&h);
        let mut phi_rot = CMat::zeros(g.ng(), 3);
        pt_linalg::gemm(
            c64::ONE,
            &phi_o,
            pt_linalg::Op::None,
            &u,
            pt_linalg::Op::None,
            c64::ZERO,
            &mut phi_rot,
        );
        let kern = ScreenedKernel::new(&g, 0.11);
        let occ = vec![2.0; 3];
        let f1 = FockOperator::new(&g, &phi_o, 0.25, kern.clone(), FockMode::Batched);
        let f2 = FockOperator::new(&g, &phi_rot, 0.25, kern, FockMode::Batched);
        let e1 = f1.energy(&g, &phi_o, &occ);
        let e2 = f2.energy(&g, &phi_rot, &occ);
        assert!((e1 - e2).abs() < 1e-9 * e1.abs(), "{e1} vs {e2}");
        assert!(e1 < 0.0, "exchange energy must be negative");
    }

    #[test]
    fn uniform_orbital_exchange_known_value() {
        // Single constant orbital ψ = Ω^{-1/2}: pair density is uniform,
        // only G = 0 survives: V_X ψ = −α K(0) / Ω · ψ.
        let (_s, g) = grids();
        let mut phi = CMat::zeros(g.ng(), 1);
        phi[(0, 0)] = c64::ONE;
        let omega = 0.3;
        let kern = ScreenedKernel::new(&g, omega);
        let f = FockOperator::new(&g, &phi, 0.25, kern, FockMode::Batched);
        let mut out = vec![c64::ZERO; g.ng()];
        f.apply(&g, phi.col(0), &mut out);
        let want = -0.25 * std::f64::consts::PI / (omega * omega) / g.volume;
        assert!(
            (out[0].re - want).abs() < 1e-10 * want.abs(),
            "{} vs {want}",
            out[0].re
        );
        for (k, z) in out.iter().enumerate().skip(1) {
            assert!(z.abs() < 1e-10, "G component {k} should vanish, got {z:?}");
        }
    }

    #[test]
    fn multi_phi_chunks_are_thread_count_independent() {
        // 70 defining orbitals > 64 chunks: some chunks fold two φ before
        // the chunk-ordered accumulate — the association no fixture reaches
        let s = silicon_cubic_supercell(1, 1, 1);
        let g = PwGrids::new(&s, 2.0);
        let phi = rand_block(g.ng(), 70, 88);
        let psi = rand_block(g.ng(), 1, 99);
        let kern = ScreenedKernel::new(&g, 0.11);
        let f = FockOperator::new(&g, &phi, 0.25, kern, FockMode::Batched);
        let run = |threads: usize| {
            pt_par::ThreadPool::new(threads).install(|| {
                let mut out = vec![c64::ZERO; g.ng()];
                f.apply(&g, psi.col(0), &mut out);
                out
            })
        };
        let (o1, o4) = (run(1), run(4));
        assert!(o1.iter().zip(&o4).all(|(a, b)| {
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
        }));
    }
}
