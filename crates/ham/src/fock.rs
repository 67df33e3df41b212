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
//! There is **one** body of the pair solve in this crate
//! (`pair_accumulate`: product → forward FFT → kernel → inverse FFT →
//! accumulate) and one loop around it (`PairLoop`): every ψ band owns an
//! accumulator that folds `φ_i`, `i = 0..N_φ`, in ascending order from
//! zero, one ψ-band chunk per pool task (the paper's batched-CUFFT stage,
//! §3.2). [`FockOperator::apply_block`] feeds it all of Φ at once; the
//! distributed Alg. 2 driver ([`crate::distributed_fock_apply`]) feeds it
//! one broadcast band at a time — so the in-process result is the
//! `N_p = 1` case of the distributed one, bit for bit, on every
//! ranks × threads layout.
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

/// Execution layout for the pair-FFT loop. A single layout is left (one
/// ψ-band chunk per pool task, serial FFTs inside); the enum stays only
/// because the frozen `benchmark/src/layers.rs` names `FockMode::Batched`
/// in its `FockOperator::new` calls.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FockMode {
    /// All pairs of one `ψ_j` folded by one task, parallel across bands.
    Batched,
}

/// One Poisson-like pair solve of Alg. 2, accumulated:
/// `acc(r) += −α φ_i(r) · IFFT[K · FFT(φ_i* ψ_j)](r)`, all on the
/// wavefunction grid with serial FFTs (`pair` is caller-owned scratch).
/// `kernel_over_n` is `K(G)/N`: the inverse transform's 1/N rides on the
/// kernel multiply, so the inverse itself runs unscaled. The grid
/// convolution is the exact integral, no volume factor (the
/// uniform-orbital test pins it).
fn pair_accumulate(
    grids: &PwGrids,
    kernel_over_n: &[f64],
    alpha: f64,
    phi: &[c64],
    psi: &[c64],
    pair: &mut [c64],
    acc: &mut [c64],
) {
    // charge-like quantity φ_i*(r) ψ_j(r)
    for ((p, f), s) in pair.iter_mut().zip(phi).zip(psi) {
        *p = f.conj() * *s;
    }
    grids.fft_wfc.forward_serial(pair);
    for (z, &k) in pair.iter_mut().zip(kernel_over_n) {
        *z = z.scale(k);
    }
    grids.fft_wfc.inverse_unscaled_serial(pair);
    for ((o, f), v) in acc.iter_mut().zip(phi).zip(pair.iter()) {
        *o += (*f * *v).scale(-alpha);
    }
}

/// The ψ side of Alg. 2's pair loop: the real-space ψ bands and one
/// accumulator per band, cut into shape-only chunks (one pool task each,
/// carrying its own pair scratch so folding allocates nothing).
///
/// Each accumulator is owned by exactly one task and folds the φ it is
/// handed in call order from zero, so `V_X ψ_j` depends on neither the
/// thread count nor on how the caller batches [`PairLoop::accumulate`]
/// calls — all of Φ at once in process, one broadcast band at a time
/// under a `Comm`.
pub(crate) struct PairLoop<'a> {
    grids: &'a PwGrids,
    /// `K(G)/N` on the wavefunction grid (see [`pair_accumulate`]).
    kernel_over_n: Vec<f64>,
    alpha: f64,
    psi_real: Vec<Vec<c64>>,
    chunks: Vec<BandChunk>,
}

struct BandChunk {
    /// First ψ band of this chunk.
    start: usize,
    /// One accumulator per band in the chunk (real-space `V_X ψ_j`).
    accs: Vec<Vec<c64>>,
    /// Scratch for the pair density / Poisson solve.
    pair: Vec<c64>,
}

impl<'a> PairLoop<'a> {
    /// ψ (columns, sphere coefficients) to real space, zeroed accumulators.
    pub(crate) fn new(grids: &'a PwGrids, kernel: &ScreenedKernel, alpha: f64, psi: &CMat) -> Self {
        assert_eq!(psi.nrows(), grids.ng());
        let (nw, n_psi) = (grids.n_wfc(), psi.ncols());
        let kernel_over_n = kernel.values.iter().map(|k| k / nw as f64).collect();
        let psi_real: Vec<Vec<c64>> = pt_par::parallel_map(n_psi, |j| {
            let mut r = vec![c64::ZERO; nw];
            grids.to_real_wfc(psi.col(j), &mut r);
            r
        });
        // min 1 so a ψ block without bands keeps a valid chunk size
        let band_chunk = n_psi.div_ceil(pt_par::chunk_count(n_psi.max(1))).max(1);
        let chunks = (0..n_psi.div_ceil(band_chunk))
            .map(|c| {
                let start = c * band_chunk;
                let end = (start + band_chunk).min(n_psi);
                BandChunk {
                    start,
                    accs: (start..end).map(|_| vec![c64::ZERO; nw]).collect(),
                    pair: vec![c64::ZERO; nw],
                }
            })
            .collect();
        PairLoop {
            grids,
            kernel_over_n,
            alpha,
            psi_real,
            chunks,
        }
    }

    /// Fold the real-space defining orbitals `phis`, in slice order, onto
    /// every ψ band's accumulator: `phis.len() × N_ψ` pair solves.
    pub(crate) fn accumulate(&mut self, phis: &[Vec<c64>]) {
        pt_trace::counter_add(
            pt_trace::Counter::PairFfts,
            (phis.len() * self.psi_real.len()) as u64,
        );
        let (grids, kernel, alpha, psi_real) =
            (self.grids, &self.kernel_over_n, self.alpha, &self.psi_real);
        pt_par::parallel_chunks_mut(&mut self.chunks, 1, |_c, chunk| {
            let BandChunk { start, accs, pair } = &mut chunk[0];
            for phi in phis {
                for (dj, acc) in accs.iter_mut().enumerate() {
                    pair_accumulate(grids, kernel, alpha, phi, &psi_real[*start + dj], pair, acc);
                }
            }
        });
    }

    /// Back to sphere coefficients: column `j` is `V_X ψ_j`.
    pub(crate) fn finish(mut self) -> CMat {
        let (grids, ng) = (self.grids, self.grids.ng());
        // band-parallel; each accumulator is replaced by its coefficients
        pt_par::parallel_chunks_mut(&mut self.chunks, 1, |_c, chunk| {
            for acc in chunk[0].accs.iter_mut() {
                let mut coeffs = vec![c64::ZERO; ng];
                grids.to_coeffs_wfc(acc, &mut coeffs);
                *acc = coeffs;
            }
        });
        let mut out = CMat::zeros(ng, self.psi_real.len());
        for chunk in &self.chunks {
            for (dj, coeffs) in chunk.accs.iter().enumerate() {
                out.col_mut(chunk.start + dj).copy_from_slice(coeffs);
            }
        }
        out
    }
}

/// The exchange operator with a frozen set of defining orbitals Φ.
pub struct FockOperator {
    /// Real-space values of the defining orbitals on the wavefunction grid
    /// (precomputed once per Φ update — N_φ × N_wfc).
    phi_real: Vec<Vec<c64>>,
    /// Mixing fraction α (0.25 for HSE06).
    pub alpha: f64,
    kernel: ScreenedKernel,
}

impl FockOperator {
    /// Freeze `phi` (columns = orbitals, sphere coefficients) as the
    /// density-matrix factor of `V_X[P]`, P = Φ Φ*.
    pub fn new(
        grids: &PwGrids,
        phi: &CMat,
        alpha: f64,
        kernel: ScreenedKernel,
        _mode: FockMode,
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
        }
    }

    /// Number of defining orbitals N_φ.
    pub fn n_phi(&self) -> usize {
        self.phi_real.len()
    }

    /// Apply to one orbital: `out += (V_X ψ)` in sphere coefficients —
    /// [`FockOperator::apply_block`] on a one-column block.
    pub fn apply(&self, grids: &PwGrids, psi: &[c64], out: &mut [c64]) {
        let psi = CMat::from_vec(psi.len(), 1, psi.to_vec());
        let mut col = CMat::from_vec(out.len(), 1, out.to_vec());
        self.apply_block(grids, &psi, &mut col);
        out.copy_from_slice(col.col(0));
    }

    /// Apply to a block: `out[:, j] += V_X ψ_j` — the `N_p = 1` case of
    /// Alg. 2 without a `Comm`: one `PairLoop` folding all of Φ in
    /// ascending order, so the bits equal the gathered result of
    /// [`crate::distributed_fock_apply`] on any ranks × threads layout.
    pub fn apply_block(&self, grids: &PwGrids, psi: &CMat, out: &mut CMat) {
        assert_eq!(out.nrows(), psi.nrows());
        assert_eq!(out.ncols(), psi.ncols());
        let mut pairs = PairLoop::new(grids, &self.kernel, self.alpha, psi);
        pairs.accumulate(&self.phi_real);
        for (o, v) in out.data_mut().iter_mut().zip(pairs.finish().data()) {
            *o += *v;
        }
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
    fn apply_block_is_thread_count_independent_past_64_bands() {
        // 70 ψ bands > 64 chunks: some pool tasks own two accumulators —
        // the chunk shape no fixture reaches
        let s = silicon_cubic_supercell(1, 1, 1);
        let g = PwGrids::new(&s, 2.0);
        let phi = rand_block(g.ng(), 3, 88);
        let psi = rand_block(g.ng(), 70, 99);
        let kern = ScreenedKernel::new(&g, 0.11);
        let f = FockOperator::new(&g, &phi, 0.25, kern, FockMode::Batched);
        let run = |threads: usize| {
            pt_par::ThreadPool::new(threads).install(|| {
                let mut out = CMat::zeros(g.ng(), 70);
                f.apply_block(&g, &psi, &mut out);
                out
            })
        };
        let (o1, o4) = (run(1), run(4));
        assert!(o1.data().iter().zip(o4.data()).all(|(a, b)| {
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
        }));
    }
}
