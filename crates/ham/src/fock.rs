//! The Fock exchange operator `V_X[P]` — Eq. (3) / Alg. 2 of the paper.
//!
//! `(V_X ψ_j)(r) = −α Σ_k φ_k(r) ∫ K(r−r') φ_k*(r') ψ_j(r') dr'`
//!
//! Each pair costs one forward + one inverse FFT on the wavefunction grid
//! (a "Poisson-like equation") — the N_e² scaling that makes hybrid
//! functionals ~95 % of CPU time. The screened HSE kernel
//! `K(G) = 4π (1 − e^{−G²/4ω²})/G²` has the finite limit `π/ω²` at G = 0,
//! so Γ-point calculations need no divergence correction.
//!
//! # One pair term, oriented by band index
//!
//! With `S(a, b) = IFFT[(K/N) · FFT(conj(a) · b)]`, the term partner `k`
//! contributes to band `j` is
//!
//! * `−α φ_k · S(φ_k, ψ_j)` if `k ≤ j`,
//! * `−α φ_k · conj(S(ψ_j, φ_k))` if `k > j`,
//!
//! `k`, `j` being **global** band indices. K is real and even, so
//! `conj(S(b, a)) = S(a, b)` and the two lines are the same function of
//! any Φ, Ψ: which one runs is an evaluation-order choice, made by the
//! indices alone. `PairTerm::pair_accumulate` is its one body; every
//! accumulator folds its partners in ascending `k` from zero.
//!
//! # Two schedules, one result
//!
//! * **General** (`PairLoop`): N_φ × N_ψ solves, one ψ-band chunk per
//!   pool task (the paper's batched-CUFFT stage, §3.2).
//!   [`FockOperator::apply_block`] feeds it all of Φ at once for a ψ that
//!   is not the defining block (Davidson's trial blocks); the distributed
//!   Alg. 2 driver ([`crate::distributed_fock_apply`]) feeds it one
//!   broadcast band at a time.
//! * **Self-application**: when `apply_block` is handed the very block the
//!   operator was built from — every PT-gauge call (the PT-CN `HΨ`, the
//!   ACE build `W = V_X Φ`, the exchange energy) — `S(φ_a, φ_b)` serves
//!   pair (a, b) *and* pair (b, a), so only the N(N+1)/2 canonical pairs
//!   `a ≤ b` are solved, each folded onto band `b` as its partner `a` and,
//!   conjugated, onto band `a` as its partner `b` (`OrderedFold`).
//!
//! Under the index orientation both schedules evaluate the same
//! expressions in the same per-band order, so they agree **to the bit** —
//! with each other, and with the gathered distributed result on every
//! ranks × threads layout. Which one runs can change a cost, never a
//! result.
//!
//! In the PT-CN hot path this operator is rarely applied directly: the
//! [ACE compression](crate::AceOperator) spends one block application
//! (`W = V_X Φ`) per projector refresh and replaces every subsequent
//! exchange apply with two rank-N_φ GEMMs — see [`crate::ace`] and
//! `ExchangeMode` on the system builder for the refresh policy.

use crate::grids::PwGrids;
use crate::scratch::SCRATCH;
use pt_linalg::CMat;
use pt_num::{c64, with_scratch};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The (possibly screened) electron–electron interaction kernel in G-space.
#[derive(Clone, Debug)]
pub struct ScreenedKernel {
    /// Kernel values at every wavefunction-grid G point.
    pub values: Vec<f64>,
    /// Screening parameter ω (bohr⁻¹); 0 = bare Coulomb.
    pub omega: f64,
    /// `K(G)/N`: the inverse transform's 1/N rides on the kernel multiply
    /// of every pair solve, so the inverse itself runs unscaled.
    over_n: Vec<f64>,
}

impl ScreenedKernel {
    /// Tabulate the kernel on the wavefunction grid. `omega > 0` gives the
    /// short-range erfc-screened interaction of HSE (G = 0 value π/ω²);
    /// `omega = 0` gives the bare 4π/G² with the G = 0 term dropped
    /// (the simple Γ-point convention, exposed for ablations).
    pub fn new(grids: &PwGrids, omega: f64) -> Self {
        let pi = std::f64::consts::PI;
        let values: Vec<f64> = grids
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
        let n = grids.n_wfc() as f64;
        let over_n = values.iter().map(|k| k / n).collect();
        ScreenedKernel {
            values,
            omega,
            over_n,
        }
    }
}

/// Execution layout for the pair-FFT loop. A single layout is left; the
/// enum stays only because the frozen `benchmark/src/layers.rs` names
/// `FockMode::Batched` in its `FockOperator::new` calls.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FockMode {
    /// Pairs solved with serial FFTs inside pool tasks.
    Batched,
}

/// What every pair term of one exchange application shares. All fields
/// live on the wavefunction grid; FFTs are serial (the callers parallelise
/// over bands or pairs) and `pair` / `u` is caller-owned scratch.
#[derive(Clone, Copy)]
struct PairTerm<'a> {
    grids: &'a PwGrids,
    kernel: &'a ScreenedKernel,
    alpha: f64,
}

impl PairTerm<'_> {
    /// One Poisson-like solve of Alg. 2:
    /// `pair ← S(a, b) = IFFT[(K/N) · FFT(conj(a) · b)]`. The grid
    /// convolution is the exact integral, no volume factor (the
    /// uniform-orbital test pins it).
    fn solve(&self, a: &[c64], b: &[c64], pair: &mut [c64]) {
        // charge-like quantity a*(r) b(r)
        for ((p, x), y) in pair.iter_mut().zip(a).zip(b) {
            *p = x.conj() * *y;
        }
        self.grids.fft_wfc.forward_serial(pair);
        for (z, &k) in pair.iter_mut().zip(&self.kernel.over_n) {
            *z = z.scale(k);
        }
        self.grids.fft_wfc.inverse_unscaled_serial(pair);
    }

    /// `acc += −α φ · u`, or `−α φ · conj(u)` for a `mirrored` term (one
    /// whose solve ran with its two sides exchanged).
    fn fold_onto(&self, phi: &[c64], u: &[c64], mirrored: bool, acc: &mut [c64]) {
        let terms = acc.iter_mut().zip(phi).zip(u);
        if mirrored {
            for ((o, f), v) in terms {
                *o += (*f * v.conj()).scale(-self.alpha);
            }
        } else {
            for ((o, f), v) in terms {
                *o += (*f * *v).scale(-self.alpha);
            }
        }
    }

    /// The term partner `k` (real-space `phi`) contributes to band `j`
    /// (real-space `psi`), accumulated — oriented by the global band
    /// indices as the module docs define it.
    fn pair_accumulate(
        &self,
        (k, phi): (usize, &[c64]),
        (j, psi): (usize, &[c64]),
        pair: &mut [c64],
        acc: &mut [c64],
    ) {
        let mirrored = k > j;
        if mirrored {
            self.solve(psi, phi, pair);
        } else {
            self.solve(phi, psi, pair);
        }
        self.fold_onto(phi, pair, mirrored, acc);
    }
}

/// Real-space accumulators (band after band on the wavefunction grid) back
/// to sphere coefficients, added onto the columns of `out`. Band-parallel;
/// the transform destroys its input, so each band goes through the
/// thread's scratch.
fn gather_onto(grids: &PwGrids, accs: &[c64], out: &mut CMat) {
    let (nw, ng) = (grids.n_wfc(), grids.ng());
    assert_eq!(accs.len(), out.ncols() * nw);
    pt_par::parallel_chunks_mut(out.data_mut(), ng, |j, col| {
        with_scratch(&SCRATCH, nw + ng, |work| {
            let (values, coeffs) = work.split_at_mut(nw);
            values.copy_from_slice(&accs[j * nw..(j + 1) * nw]);
            grids.to_coeffs_wfc(values, coeffs);
            for (o, c) in col.iter_mut().zip(coeffs.iter()) {
                *o += *c;
            }
        });
    });
}

/// The general schedule of Alg. 2's pair loop: the real-space ψ bands and
/// one accumulator per band, cut into shape-only chunks (one pool task
/// each; pair scratch is the thread's, so folding allocates nothing).
///
/// Each accumulator is owned by exactly one task and folds the φ it is
/// handed in call order from zero, so `V_X ψ_j` depends on neither the
/// thread count nor on how the caller batches [`PairLoop::accumulate`]
/// calls — all of Φ at once in process, one broadcast band at a time
/// under a `Comm`.
pub(crate) struct PairLoop<'a> {
    term: PairTerm<'a>,
    /// Global band index of every ψ column (orients its pair terms).
    psi_index: Vec<usize>,
    /// Real-space ψ, band after band (N_ψ × N_wfc).
    psi_real: Vec<c64>,
    /// Real-space `V_X ψ_j` accumulators, same layout.
    accs: Vec<c64>,
}

impl<'a> PairLoop<'a> {
    /// ψ (columns, sphere coefficients; column `j` is global band
    /// `psi_index[j]`) to real space, zeroed accumulators.
    pub(crate) fn new(
        grids: &'a PwGrids,
        kernel: &'a ScreenedKernel,
        alpha: f64,
        psi: &CMat,
        psi_index: Vec<usize>,
    ) -> Self {
        assert_eq!(psi.nrows(), grids.ng());
        assert_eq!(psi_index.len(), psi.ncols());
        let nw = grids.n_wfc();
        let mut psi_real = vec![c64::ZERO; psi.ncols() * nw];
        pt_par::parallel_chunks_mut(&mut psi_real, nw, |j, r| grids.to_real_wfc(psi.col(j), r));
        PairLoop {
            term: PairTerm {
                grids,
                kernel,
                alpha,
            },
            psi_index,
            accs: vec![c64::ZERO; psi_real.len()],
            psi_real,
        }
    }

    /// Fold the real-space defining orbitals `phis` (band after band,
    /// global indices `first, first + 1, …`), in that order, onto every ψ
    /// band's accumulator: one pair solve per (φ, ψ) pair.
    pub(crate) fn accumulate(&mut self, first: usize, phis: &[c64]) {
        let nw = self.term.grids.n_wfc();
        let n_psi = self.psi_index.len();
        pt_trace::counter_add(
            pt_trace::Counter::PairFfts,
            (phis.len() / nw * n_psi) as u64,
        );
        // min 1 so a ψ block without bands keeps a valid chunk size
        let band_chunk = n_psi.div_ceil(pt_par::chunk_count(n_psi.max(1))).max(1);
        let (term, psi_index, psi_real) = (self.term, &self.psi_index, &self.psi_real);
        pt_par::parallel_chunks_mut(&mut self.accs, band_chunk * nw, |c, accs| {
            with_scratch(&SCRATCH, nw, |pair| {
                for (dk, phi) in phis.chunks_exact(nw).enumerate() {
                    for (dj, acc) in accs.chunks_exact_mut(nw).enumerate() {
                        let j = c * band_chunk + dj;
                        let psi = &psi_real[j * nw..(j + 1) * nw];
                        term.pair_accumulate((first + dk, phi), (psi_index[j], psi), pair, acc);
                    }
                }
            });
        });
    }

    /// Back to sphere coefficients: `out[:, j] += V_X ψ_j`.
    pub(crate) fn finish_onto(self, out: &mut CMat) {
        gather_onto(self.term.grids, &self.accs, out);
    }
}

/// The accumulators of the self-application schedule: band `j` accepts the
/// term of partner `k` only once it holds partners `0..k`, so any number
/// of tasks may solve pairs concurrently and every band still folds in
/// ascending partner order from zero — the one fold order of this crate.
///
/// Tasks that find their band not ready yield and retry. That cannot
/// deadlock when tasks are pool-claimed in ascending order over the
/// lexicographic pair list: every earlier pair of the earliest unfinished
/// one is done, which is exactly what its two commits wait for, and the
/// thread that claimed it waits on nothing else. A 1-thread or nested
/// region runs in index order and never waits. A task that unwinds marks
/// the fold abandoned so waiters give up (their results are discarded by
/// the panic the pool re-raises) instead of spinning forever.
struct OrderedFold<'a> {
    /// Per band: the partner it accepts next, and its accumulator.
    bands: Vec<Mutex<(usize, &'a mut [c64])>>,
    abandoned: AtomicBool,
}

impl<'a> OrderedFold<'a> {
    /// One band per `nw` elements of `accs`, each expecting partner 0.
    fn new(accs: &'a mut [c64], nw: usize) -> Self {
        OrderedFold {
            bands: accs
                .chunks_exact_mut(nw)
                .map(|a| Mutex::new((0, a)))
                .collect(),
            abandoned: AtomicBool::new(false),
        }
    }

    /// Run `task(i)` for `i in 0..tasks` as **one** pool dispatch.
    fn run(&self, tasks: usize, task: impl Fn(usize) + Sync) {
        struct AbandonOnUnwind<'f>(&'f AtomicBool);
        impl Drop for AbandonOnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, Ordering::Release);
                }
            }
        }
        pt_par::parallel_for(tasks, |i| {
            let _guard = AbandonOnUnwind(&self.abandoned);
            task(i);
        });
    }

    /// Apply `fold` to `band`'s accumulator as its partner `partner`,
    /// waiting until every lower partner has been folded.
    fn commit(&self, band: usize, partner: usize, fold: impl FnOnce(&mut [c64])) {
        loop {
            if self.abandoned.load(Ordering::Acquire) {
                return;
            }
            // a poisoned lock is an unwinding sibling: abandoned as well
            let Ok(mut slot) = self.bands[band].lock() else {
                return;
            };
            if slot.0 == partner {
                fold(slot.1);
                slot.0 += 1;
                return;
            }
            drop(slot);
            std::thread::yield_now();
        }
    }
}

/// Same shape and the same bits in every element (stops at the first
/// difference).
fn same_bits(a: &CMat, b: &CMat) -> bool {
    let bits = |z: &c64| (z.re.to_bits(), z.im.to_bits());
    (a.nrows(), a.ncols()) == (b.nrows(), b.ncols())
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| bits(x) == bits(y))
}

/// The pairs `a ≤ b` of `n` bands in lexicographic order — the order that
/// hands every band its partners ascending: band `j` meets `k < j` in
/// pair (k, j), itself in (j, j), then `k > j` in (j, k).
fn canonical_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::with_capacity(n * (n + 1) / 2);
    for a in 0..n {
        pairs.extend((a..n).map(|b| (a, b)));
    }
    pairs
}

/// The exchange operator with a frozen set of defining orbitals Φ.
pub struct FockOperator {
    /// Sphere coefficients of the defining block — what
    /// [`FockOperator::apply_block`] recognises a self-application by.
    phi: CMat,
    /// Real-space values of the defining orbitals on the wavefunction
    /// grid, band after band (precomputed once per Φ update —
    /// N_φ × N_wfc).
    phi_real: Vec<c64>,
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
        let nw = grids.n_wfc();
        let mut phi_real = vec![c64::ZERO; phi.ncols() * nw];
        pt_par::parallel_chunks_mut(&mut phi_real, nw, |i, r| grids.to_real_wfc(phi.col(i), r));
        FockOperator {
            phi: phi.clone(),
            phi_real,
            alpha,
            kernel,
        }
    }

    /// Number of defining orbitals N_φ.
    pub fn n_phi(&self) -> usize {
        self.phi.ncols()
    }

    /// Apply to one orbital: `out += (V_X ψ)` in sphere coefficients —
    /// [`FockOperator::apply_block`] on a one-column block.
    pub fn apply(&self, grids: &PwGrids, psi: &[c64], out: &mut [c64]) {
        let psi = CMat::from_vec(psi.len(), 1, psi.to_vec());
        let mut col = CMat::from_vec(out.len(), 1, out.to_vec());
        self.apply_block(grids, &psi, &mut col);
        out.copy_from_slice(col.col(0));
    }

    /// Apply to a block: `out[:, j] += V_X ψ_j`, column `j` taken as
    /// global band `j`. If `psi` is bit for bit the defining block, the
    /// N(N+1)/2 canonical pairs are solved; otherwise all N_φ × N_ψ. The
    /// two schedules give identical bits (module docs), equal to the
    /// gathered result of [`crate::distributed_fock_apply`] on any
    /// ranks × threads layout.
    pub fn apply_block(&self, grids: &PwGrids, psi: &CMat, out: &mut CMat) {
        assert_eq!(out.nrows(), psi.nrows());
        assert_eq!(out.ncols(), psi.ncols());
        if self.is_defining_block(psi) {
            self.apply_to_self(grids, out);
        } else {
            self.apply_general(grids, psi, out);
        }
    }

    /// `psi` has the bits of the block this operator was built from.
    fn is_defining_block(&self, psi: &CMat) -> bool {
        same_bits(psi, &self.phi)
    }

    /// The `N_p = 1` case of Alg. 2 without a `Comm`: one `PairLoop`
    /// folding all of Φ in ascending order.
    fn apply_general(&self, grids: &PwGrids, psi: &CMat, out: &mut CMat) {
        let psi_index = (0..psi.ncols()).collect();
        let mut pairs = PairLoop::new(grids, &self.kernel, self.alpha, psi, psi_index);
        pairs.accumulate(0, &self.phi_real);
        pairs.finish_onto(out);
    }

    /// `out[:, j] += V_X φ_j` from the canonical pairs `a ≤ b` alone: one
    /// pool dispatch over the lexicographic pair list — which hands every
    /// band its partners in ascending order — each task solving
    /// `u = S(φ_a, φ_b)` into its thread's scratch and committing
    /// `−α φ_a u` to band `b`, then `−α φ_b conj(u)` to band `a`. Φ's
    /// real-space bands serve both sides of every pair.
    fn apply_to_self(&self, grids: &PwGrids, out: &mut CMat) {
        let (n, nw) = (self.n_phi(), grids.n_wfc());
        let term = PairTerm {
            grids,
            kernel: &self.kernel,
            alpha: self.alpha,
        };
        let band = |i: usize| &self.phi_real[i * nw..(i + 1) * nw];
        let pairs = canonical_pairs(n);
        pt_trace::counter_add(pt_trace::Counter::PairFfts, pairs.len() as u64);
        let mut accs = vec![c64::ZERO; n * nw];
        let fold = OrderedFold::new(&mut accs, nw);
        fold.run(pairs.len(), |p| {
            let (a, b) = pairs[p];
            with_scratch(&SCRATCH, nw, |u| {
                term.solve(band(a), band(b), u);
                fold.commit(b, a, |acc| term.fold_onto(band(a), u, false, acc));
                if a != b {
                    fold.commit(a, b, |acc| term.fold_onto(band(b), u, true, acc));
                }
            });
        });
        drop(fold);
        gather_onto(grids, &accs, out);
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
        assert!(same_bits(&o1, &o4));
    }

    /// `V_X Φ` through `apply_block` (the self-application schedule) and
    /// through the general `PairLoop` forced onto the defining block.
    fn both_schedules(g: &PwGrids, f: &FockOperator, phi: &CMat) -> (CMat, CMat) {
        assert!(f.is_defining_block(phi));
        let mut own = CMat::zeros(g.ng(), phi.ncols());
        f.apply_block(g, phi, &mut own);
        let mut general = CMat::zeros(g.ng(), phi.ncols());
        f.apply_general(g, phi, &mut general);
        (own, general)
    }

    #[test]
    fn self_application_equals_the_general_schedule_to_the_bit() {
        // the index-oriented pair term makes the N(N+1)/2 schedule and the
        // N² schedule one function; 70 > 64 bands reaches multi-band
        // chunks on the general side
        let s = silicon_cubic_supercell(1, 1, 1);
        let g = PwGrids::new(&s, 2.0);
        let kern = ScreenedKernel::new(&g, 0.11);
        for n in [1usize, 2, 5, 16, 70] {
            let phi = rand_block(g.ng(), n, 100 + n as u64);
            let f = FockOperator::new(&g, &phi, 0.25, kern.clone(), FockMode::Batched);
            let want = pt_par::ThreadPool::new(1).install(|| both_schedules(&g, &f, &phi).1);
            assert!(want.data().iter().any(|z| z.abs() > 1e-6), "n={n}: trivial");
            for threads in [1usize, 2, 4] {
                let (own, general) =
                    pt_par::ThreadPool::new(threads).install(|| both_schedules(&g, &f, &phi));
                assert!(
                    same_bits(&want, &general),
                    "n={n} general, {threads} threads"
                );
                assert!(same_bits(&want, &own), "n={n} self, {threads} threads");
            }
        }
    }

    #[test]
    fn one_flipped_bit_is_not_the_defining_block() {
        let (_s, g) = grids();
        let phi = rand_block(g.ng(), 3, 21);
        let kern = ScreenedKernel::new(&g, 0.11);
        let f = FockOperator::new(&g, &phi, 0.25, kern, FockMode::Batched);
        let mut psi = phi.clone();
        let z = &mut psi.col_mut(2)[5];
        z.im = f64::from_bits(z.im.to_bits() ^ 1);
        assert!(f.is_defining_block(&phi) && !f.is_defining_block(&psi));
        // other shapes never are
        assert!(!f.is_defining_block(&rand_block(g.ng(), 2, 21)));
        // and the general schedule it falls to is the same operator
        let (own, _) = both_schedules(&g, &f, &phi);
        let mut near = CMat::zeros(g.ng(), 3);
        f.apply_block(&g, &psi, &mut near);
        assert!(own.max_diff(&near) < 1e-14);
    }

    #[test]
    fn self_applied_block_is_hermitian_and_negative_semidefinite() {
        // M = Φ^H (V_X Φ) is what `AceOperator::from_w` factors: −M = L L^H
        let (_s, g) = grids();
        let n = 6;
        let phi = rand_block(g.ng(), n, 9);
        let kern = ScreenedKernel::new(&g, 0.11);
        let f = FockOperator::new(&g, &phi, 0.25, kern, FockMode::Batched);
        let (w, _) = both_schedules(&g, &f, &phi);
        let mut m = CMat::zeros(n, n);
        pt_linalg::gemm(
            c64::ONE,
            &phi,
            pt_linalg::Op::ConjTrans,
            &w,
            pt_linalg::Op::None,
            c64::ZERO,
            &mut m,
        );
        for j in 0..n {
            for i in 0..n {
                let skew = (m[(i, j)] - m[(j, i)].conj()).abs();
                assert!(skew < 1e-13, "M[{i},{j}] off Hermitian by {skew}");
            }
        }
        let (eigenvalues, _) = pt_linalg::eigh(&m);
        assert!(eigenvalues.iter().all(|&e| e < 1e-13), "{eigenvalues:?}");
        assert!(eigenvalues[0] < -1e-6, "exchange vanished: {eigenvalues:?}");
    }

    #[test]
    fn ordered_fold_hands_every_band_its_partners_in_ascending_order() {
        let n = 23;
        let pairs = canonical_pairs(n);
        assert_eq!(pairs.len(), n * (n + 1) / 2);
        pt_par::ThreadPool::new(4).install(|| {
            // one slot per band, counting the partners folded so far
            let mut accs = vec![c64::ZERO; n];
            let fold = OrderedFold::new(&mut accs, 1);
            let take = |acc: &mut [c64], partner: usize| {
                assert_eq!(acc[0].re, partner as f64);
                acc[0].re += 1.0;
            };
            fold.run(pairs.len(), |p| {
                let (a, b) = pairs[p];
                fold.commit(b, a, |acc| take(acc, a));
                if a != b {
                    fold.commit(a, b, |acc| take(acc, b));
                }
            });
            drop(fold);
            assert!(accs.iter().all(|z| z.re == n as f64));
        });
    }

    #[test]
    fn a_panicking_pair_task_is_a_panic_on_the_caller_never_a_hang() {
        // without the abandon flag, every later pair of the panicked
        // task's two bands would wait for its commits forever
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pool = pt_par::ThreadPool::new(4);
            pool.install(|| {
                let n = 16;
                let pairs = canonical_pairs(n);
                let mut accs = vec![c64::ZERO; n];
                let fold = OrderedFold::new(&mut accs, 1);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fold.run(pairs.len(), |p| {
                        let (a, b) = pairs[p];
                        if p == 40 {
                            panic!("injected pair-task failure");
                        }
                        fold.commit(b, a, |acc| acc[0].re += 1.0);
                        if a != b {
                            fold.commit(a, b, |acc| acc[0].re += 1.0);
                        }
                    });
                }));
                tx.send(outcome.is_err()).unwrap();
                // the pool and the per-thread scratch survive it
                let s = silicon_cubic_supercell(1, 1, 1);
                let g = PwGrids::new(&s, 2.0);
                let phi = rand_block(g.ng(), n, 5);
                let kern = ScreenedKernel::new(&g, 0.11);
                let f = FockOperator::new(&g, &phi, 0.25, kern, FockMode::Batched);
                let (own, general) = both_schedules(&g, &f, &phi);
                tx.send(same_bits(&own, &general)).unwrap();
            });
        });
        let wait = std::time::Duration::from_secs(120);
        assert!(rx.recv_timeout(wait).expect("the ordered fold hung"));
        assert!(rx.recv_timeout(wait).expect("the next application hung"));
    }
}
