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
//! indices alone. `PairTerm::pair_accumulate` is its one body.
//!
//! # One fold order: partner chunks
//!
//! The partners of every band are cut into fixed **partner chunks**:
//! `PARTNER_CHUNKS` = 4 chunks of ⌈N_φ/4⌉ bands (the last may be narrower),
//! a function of N_φ alone, never of the rank or thread count. Band `j`'s
//! terms from the partners of chunk `c` fold ascending from zero into the
//! partial `p_c(j)`, and `V_X ψ_j = ((0 + p_0(j)) + p_1(j)) + …` — the
//! fixed-chunk argument of the Alg. 3 overlap reduction
//! ([`crate::OVERLAP_CHUNK_ROWS`]) applied to partners. A constant chunk
//! *count* keeps the partials linear in N.
//!
//! # Two schedules, one result
//!
//! * **General** (`PairTerm::apply_general`): N_φ × N_ψ solves, one ψ-band
//!   chunk per pool task (the paper's batched-CUFFT stage, §3.2), each
//!   band's running partial in the thread's scratch, flushed onto its
//!   accumulator at every chunk boundary. [`FockOperator::apply_block`]
//!   runs it, in process only, for a ψ that is not the defining block
//!   (Davidson's trial blocks).
//! * **Self-application, by tiles**: when `apply_block` is handed the very
//!   block the operator was built from — every PT-gauge call (the PT-CN
//!   `HΨ`, the ACE build `W = V_X Φ`, the exchange energy), and the only
//!   application [`crate::distributed_fock_apply`] makes on ranks —
//!   `S(φ_a, φ_b)` serves pair (a, b) *and* pair (b, a), so only the
//!   N(N+1)/2 canonical pairs `a ≤ b` are solved, each folded onto band
//!   `b` as its partner `a` and, conjugated, onto band `a` as its partner
//!   `b`. The pairs are cut into [`ExchangeTile`]s: tile `(c1 ≤ c2)` holds
//!   the pairs `a ∈ c1, b ∈ c2` (`a ≤ b` on the diagonal), solved in
//!   lexicographic order.
//!
//! **A tile is self-contained.** Its pairs feed exactly the partials
//! `p_{c1}(b)` for `b ∈ c2` and `p_{c2}(a)` for `a ∈ c1`, and no other
//! tile feeds them; lexicographic pair order hands each of them its
//! partners ascending (band `j` of a diagonal tile meets `k < j` in pair
//! (k, j), itself in (j, j), `k > j` in (j, k)). So a tile's partials
//! carry the same bits on whichever thread or rank it ran, and tiles in
//! lexicographic order hand every band its partials in ascending chunk
//! order (band `j` of chunk `c_j` gets `p_c(j)` from tile
//! `(min(c, c_j), max(c, c_j))`, which ascends with `c`). In process, the
//! tiles run a pool's width at a time, one task per tile owning its
//! partials, which are folded onto the accumulators in tile order after
//! each dispatch; on ranks, tiles are dealt by a shape-only deal and each
//! partial travels to its band's owner ([`crate::distributed_fock_apply`]).
//! Nothing ever waits for a sibling task.
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
use std::ops::Range;

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

/// Number of partner chunks a band set is cut into (module docs).
const PARTNER_CHUNKS: usize = 4;

/// The shape-only partner chunks of `n` bands: ⌈n/4⌉ bands each, the
/// last possibly narrower.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PartnerChunks {
    n: usize,
    width: usize,
}

impl PartnerChunks {
    pub(crate) fn new(n: usize) -> Self {
        PartnerChunks {
            n,
            width: n.div_ceil(PARTNER_CHUNKS).max(1),
        }
    }

    /// Number of chunks (≤ 4; fewer below 4 bands or when ⌈n/4⌉ rounds up).
    pub(crate) fn count(self) -> usize {
        self.n.div_ceil(self.width)
    }

    /// The chunk band `band` lies in.
    pub(crate) fn of(self, band: usize) -> usize {
        band / self.width
    }

    /// The bands of chunk `c`.
    fn bands(self, c: usize) -> Range<usize> {
        (c * self.width).min(self.n)..((c + 1) * self.width).min(self.n)
    }
}

/// One tile of a self-application: the canonical pairs `a ≤ b` with `a`
/// in partner chunk `chunks.0` and `b` in partner chunk `chunks.1` — the
/// unit of work in process and on ranks. A tile completes every partial
/// it feeds (module docs), so where it runs never changes a bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExchangeTile {
    /// Its two partner chunks, `chunks.0 ≤ chunks.1`.
    pub chunks: (usize, usize),
    /// The bands of `chunks.0` (the `a` side) and of `chunks.1` (`b`).
    rows: Range<usize>,
    cols: Range<usize>,
}

impl ExchangeTile {
    fn is_diagonal(&self) -> bool {
        self.chunks.0 == self.chunks.1
    }

    /// Its pairs `(a, b)`, in the lexicographic order they are solved.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rows
            .clone()
            .flat_map(move |a| (a.max(self.cols.start)..self.cols.end).map(move |b| (a, b)))
    }

    /// Pair solves it runs.
    pub fn solves(&self) -> usize {
        self.pairs().count()
    }

    /// The partials it completes, as `(partner chunk, band)`, in the order
    /// they are laid out and handed on: `p_{c1}(b)` for every band `b` of
    /// `c2`, then — off the diagonal — `p_{c2}(a)` for every band `a` of
    /// `c1`.
    pub fn partials(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (c1, c2) = self.chunks;
        let mirrored = if self.is_diagonal() {
            0..0
        } else {
            self.rows.clone()
        };
        self.cols
            .clone()
            .map(move |b| (c1, b))
            .chain(mirrored.map(move |a| (c2, a)))
    }

    /// Positions, in [`ExchangeTile::partials`] order, of the two partials
    /// pair (a, b) feeds: band `b`'s and band `a`'s.
    fn slots(&self, a: usize, b: usize) -> (usize, usize) {
        let to_a = if self.is_diagonal() {
            a - self.cols.start
        } else {
            self.cols.len() + a - self.rows.start
        };
        (b - self.cols.start, to_a)
    }
}

/// The tiles of a self-application of `n` bands, lexicographic in their
/// chunk pair — the order that hands every band its partials ascending.
pub(crate) fn exchange_tiles(n: usize) -> Vec<ExchangeTile> {
    let chunks = PartnerChunks::new(n);
    let count = chunks.count();
    let mut tiles = Vec::with_capacity(count * (count + 1) / 2);
    for c1 in 0..count {
        tiles.extend((c1..count).map(|c2| ExchangeTile {
            chunks: (c1, c2),
            rows: chunks.bands(c1),
            cols: chunks.bands(c2),
        }));
    }
    tiles
}

/// `acc += partial`, element by element: one step of a band's ascending
/// fold over its partner chunks.
pub(crate) fn fold_partial(acc: &mut [c64], partial: &[c64]) {
    for (a, p) in acc.iter_mut().zip(partial) {
        *a += *p;
    }
}

/// What every pair term of one exchange application shares. All fields
/// live on the wavefunction grid; FFTs are serial (the callers parallelise
/// over bands or tiles) and `pair` / `u` is caller-owned scratch.
#[derive(Clone, Copy)]
pub(crate) struct PairTerm<'a> {
    grids: &'a PwGrids,
    kernel: &'a ScreenedKernel,
    alpha: f64,
}

impl<'a> PairTerm<'a> {
    pub(crate) fn new(grids: &'a PwGrids, kernel: &'a ScreenedKernel, alpha: f64) -> Self {
        PairTerm {
            grids,
            kernel,
            alpha,
        }
    }

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
    /// whose solve ran with its two sides exchanged). The `first` term of
    /// a partial starts it instead — `acc = 0 + …`, the bits of folding
    /// onto zeros without writing them first.
    fn fold_onto(&self, phi: &[c64], u: &[c64], mirrored: bool, first: bool, acc: &mut [c64]) {
        let scale = -self.alpha;
        let terms = acc.iter_mut().zip(phi).zip(u);
        match (mirrored, first) {
            (false, false) => terms.for_each(|((o, f), v)| *o += (*f * *v).scale(scale)),
            (true, false) => terms.for_each(|((o, f), v)| *o += (*f * v.conj()).scale(scale)),
            (false, true) => {
                terms.for_each(|((o, f), v)| *o = c64::ZERO + (*f * *v).scale(scale));
            }
            (true, true) => {
                terms.for_each(|((o, f), v)| *o = c64::ZERO + (*f * v.conj()).scale(scale));
            }
        }
    }

    /// The term partner `k` (real-space `phi`) contributes to band `j`
    /// (real-space `psi`), folded onto the partial `acc` (started by it if
    /// `first`) — oriented by the global band indices as the module docs
    /// define it.
    fn pair_accumulate(
        &self,
        (k, phi): (usize, &[c64]),
        (j, psi): (usize, &[c64]),
        first: bool,
        pair: &mut [c64],
        acc: &mut [c64],
    ) {
        let mirrored = k > j;
        if mirrored {
            self.solve(psi, phi, pair);
        } else {
            self.solve(phi, psi, pair);
        }
        self.fold_onto(phi, pair, mirrored, first, acc);
    }

    /// The general schedule of Alg. 2's pair loop: `out[:, j] += V_X ψ_j`
    /// for the ψ columns (column `j` is band `j`) against every partner of
    /// the real-space Φ `phi_real` (band after band). The ψ bands are cut
    /// into shape-only chunks, one pool task each; a band folds each
    /// partner chunk into a running partial in the thread's scratch and
    /// flushes it onto its accumulator at the chunk boundary, so `V_X ψ_j`
    /// does not depend on the thread count.
    fn apply_general(self, phi_real: &[c64], psi: &CMat, out: &mut CMat) {
        let (grids, nw) = (self.grids, self.grids.n_wfc());
        assert_eq!(psi.nrows(), grids.ng());
        let n_phi = phi_real.len() / nw;
        let n_psi = psi.ncols();
        pt_trace::counter_add(pt_trace::Counter::PairFfts, (n_phi * n_psi) as u64);
        let chunks = PartnerChunks::new(n_phi);
        let mut psi_real = vec![c64::ZERO; n_psi * nw];
        pt_par::parallel_chunks_mut(&mut psi_real, nw, |j, r| grids.to_real_wfc(psi.col(j), r));
        let mut accs = vec![c64::ZERO; psi_real.len()];
        // min 1 so a ψ block without bands keeps a valid chunk size
        let band_chunk = n_psi.div_ceil(pt_par::chunk_count(n_psi.max(1))).max(1);
        pt_par::parallel_chunks_mut(&mut accs, band_chunk * nw, |c, accs| {
            with_scratch(&SCRATCH, 2 * nw, |work| {
                let (pair, partial) = work.split_at_mut(nw);
                for (dj, acc) in accs.chunks_exact_mut(nw).enumerate() {
                    let j = c * band_chunk + dj;
                    let psi_j = (j, &psi_real[j * nw..(j + 1) * nw]);
                    for chunk in 0..chunks.count() {
                        let partners = chunks.bands(chunk);
                        for k in partners.clone() {
                            let phi_k = &phi_real[k * nw..(k + 1) * nw];
                            let first = k == partners.start;
                            self.pair_accumulate((k, phi_k), psi_j, first, pair, partial);
                        }
                        fold_partial(acc, partial);
                    }
                }
            });
        });
        gather_onto(grids, &accs, out);
    }

    /// Solve every pair of `tile` against the real-space Φ and leave its
    /// partials in `partials` (in [`ExchangeTile::partials`] order):
    /// `u = S(φ_a, φ_b)` into the thread's scratch, `−α φ_a u` onto band
    /// `b`'s partial, then `−α φ_b conj(u)` onto band `a`'s. Each partial's
    /// first term — from the chunk's first `a`, or off the diagonal its
    /// first `b` — starts it.
    fn solve_tile(self, phi_real: &[c64], tile: &ExchangeTile, partials: &mut [c64]) {
        let nw = self.grids.n_wfc();
        let band = |i: usize| &phi_real[i * nw..(i + 1) * nw];
        with_scratch(&SCRATCH, nw, |u| {
            for (a, b) in tile.pairs() {
                self.solve(band(a), band(b), u);
                let (to_b, to_a) = tile.slots(a, b);
                let first_a = a == tile.rows.start;
                let to_b = &mut partials[to_b * nw..(to_b + 1) * nw];
                self.fold_onto(band(a), u, false, first_a, to_b);
                if a != b {
                    let first_b = b == tile.cols.start;
                    let to_a = &mut partials[to_a * nw..(to_a + 1) * nw];
                    self.fold_onto(band(b), u, true, first_b, to_a);
                }
            }
        });
    }

    /// The self-application schedule over `tiles` (lexicographic), handing
    /// every partial to `emit(partner chunk, band, partial)` in tile order —
    /// so a band is handed the partials of these tiles in ascending chunk
    /// order. A pool of T threads solves T tiles per dispatch, each task
    /// owning its tile's partials, and hands them on before the next
    /// dispatch: T tiles of partials are held, and on a one-thread rank
    /// they travel while its later tiles run.
    pub(crate) fn run_tiles(
        self,
        phi_real: &[c64],
        tiles: &[ExchangeTile],
        mut emit: impl FnMut(usize, usize, &[c64]),
    ) {
        let nw = self.grids.n_wfc();
        #[expect(
            clippy::disallowed_methods,
            reason = "an integer count: usize addition is exact in any order"
        )]
        let solves = tiles.iter().map(ExchangeTile::solves).sum::<usize>();
        pt_trace::counter_add(pt_trace::Counter::PairFfts, solves as u64);
        let Some(stride) = tiles.iter().map(|t| t.partials().count() * nw).max() else {
            return;
        };
        let batch = pt_par::current_num_threads().min(tiles.len());
        let mut slots = vec![c64::ZERO; batch * stride];
        for group in tiles.chunks(batch) {
            pt_par::parallel_chunks_mut(
                &mut slots[..group.len() * stride],
                stride,
                |t, partials| {
                    self.solve_tile(phi_real, &group[t], partials);
                },
            );
            for (tile, partials) in group.iter().zip(slots.chunks_exact(stride)) {
                for ((chunk, band), partial) in tile.partials().zip(partials.chunks_exact(nw)) {
                    emit(chunk, band, partial);
                }
            }
        }
    }
}

/// Real-space accumulators (band after band on the wavefunction grid) back
/// to sphere coefficients, added onto the columns of `out`. Band-parallel;
/// the transform destroys its input, so each band goes through the
/// thread's scratch.
pub(crate) fn gather_onto(grids: &PwGrids, accs: &[c64], out: &mut CMat) {
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

/// Same shape and the same bits in every element (stops at the first
/// difference).
pub(crate) fn same_bits(a: &CMat, b: &CMat) -> bool {
    let bits = |z: &c64| (z.re.to_bits(), z.im.to_bits());
    (a.nrows(), a.ncols()) == (b.nrows(), b.ncols())
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| bits(x) == bits(y))
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

    /// Apply to a block: `out[:, j] += V_X ψ_j`, column `j` taken as
    /// band `j`. If `psi` is bit for bit the defining block, the
    /// N(N+1)/2 canonical pairs are solved; otherwise all N_φ × N_ψ. The
    /// two schedules give identical bits (module docs); the
    /// self-application's equal the gathered result of
    /// [`crate::distributed_fock_apply`] on any ranks × threads layout.
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

    fn term<'a>(&'a self, grids: &'a PwGrids) -> PairTerm<'a> {
        PairTerm::new(grids, &self.kernel, self.alpha)
    }

    /// The general schedule over all of Φ.
    fn apply_general(&self, grids: &PwGrids, psi: &CMat, out: &mut CMat) {
        self.term(grids).apply_general(&self.phi_real, psi, out);
    }

    /// `out[:, j] += V_X φ_j` from the canonical pairs `a ≤ b` alone: every
    /// tile, each partial folded onto its band's accumulator in tile order —
    /// ascending in partner chunk for every band (module docs).
    fn apply_to_self(&self, grids: &PwGrids, out: &mut CMat) {
        let nw = grids.n_wfc();
        let mut accs = vec![c64::ZERO; self.n_phi() * nw];
        let tiles = exchange_tiles(self.n_phi());
        self.term(grids)
            .run_tiles(&self.phi_real, &tiles, |_, band, partial| {
                fold_partial(&mut accs[band * nw..(band + 1) * nw], partial);
            });
        gather_onto(grids, &accs, out);
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
        let mut va = CMat::zeros(g.ng(), 1);
        let mut vb = CMat::zeros(g.ng(), 1);
        f.apply_block(&g, &a, &mut va);
        f.apply_block(&g, &b, &mut vb);
        let lhs = pt_num::complex::zdotc(a.col(0), vb.col(0));
        let rhs = pt_num::complex::zdotc(va.col(0), b.col(0));
        assert!((lhs - rhs).abs() < 1e-10, "hermiticity: {lhs:?} vs {rhs:?}");
        // negative semidefinite: ⟨ψ|V_X ψ⟩ ≤ 0 (K > 0, α > 0)
        let diag = pt_num::complex::zdotc(a.col(0), va.col(0)).re;
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
        // E_x through the system's one sum, ½ Σ_j f_j Re⟨φ_j|(V_X[Φ]Φ)_j⟩,
        // on the HSE06 system whose grids these are
        let sys = crate::KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.5)
            .hybrid(crate::HybridConfig::hse06())
            .occupations(vec![2.0; 3])
            .build()
            .unwrap();
        assert_eq!(sys.grids.ng(), g.ng());
        let e_x = |phi: &CMat| {
            let kern = ScreenedKernel::new(&g, 0.11);
            let f = FockOperator::new(&g, phi, 0.25, kern, FockMode::Batched);
            let mut w = CMat::zeros(g.ng(), 3);
            f.apply_block(&g, phi, &mut w);
            sys.energies_with(phi, &sys.density(phi), Some(&w), [0.0; 3])
                .fock
        };
        let (e1, e2) = (e_x(&phi_o), e_x(&phi_rot));
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
        let mut out = CMat::zeros(g.ng(), 1);
        f.apply_block(&g, &phi, &mut out);
        let out = out.col(0);
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
    /// through the general schedule forced onto the defining block.
    fn both_schedules(g: &PwGrids, f: &FockOperator, phi: &CMat) -> (CMat, CMat) {
        assert!(f.is_defining_block(phi));
        let mut own = CMat::zeros(g.ng(), phi.ncols());
        f.apply_block(g, phi, &mut own);
        let mut general = CMat::zeros(g.ng(), phi.ncols());
        f.apply_general(g, phi, &mut general);
        (own, general)
    }

    /// The partner-chunk fold written out serially from its definition:
    /// `V_X ψ_j = ((0 + p_0(j)) + p_1(j)) + …`, each `p_c(j)` the terms of
    /// chunk `c`'s partners folded ascending from zero.
    fn partner_chunk_fold(g: &PwGrids, f: &FockOperator, psi: &CMat) -> CMat {
        let (nw, n) = (g.n_wfc(), f.n_phi());
        let term = f.term(g);
        let chunks = PartnerChunks::new(n);
        let (mut psi_j, mut pair, mut partial) = (
            vec![c64::ZERO; nw],
            vec![c64::ZERO; nw],
            vec![c64::ZERO; nw],
        );
        let mut accs = vec![c64::ZERO; psi.ncols() * nw];
        for (j, acc) in accs.chunks_exact_mut(nw).enumerate() {
            g.to_real_wfc(psi.col(j), &mut psi_j);
            for c in 0..chunks.count() {
                partial.fill(c64::ZERO);
                for k in chunks.bands(c) {
                    let phi_k = &f.phi_real[k * nw..(k + 1) * nw];
                    term.pair_accumulate((k, phi_k), (j, &psi_j), false, &mut pair, &mut partial);
                }
                fold_partial(acc, &partial);
            }
        }
        let mut out = CMat::zeros(g.ng(), psi.ncols());
        gather_onto(g, &accs, &mut out);
        out
    }

    #[test]
    fn self_application_equals_the_general_schedule_to_the_bit() {
        // both schedules are the partner-chunk fold of one index-oriented
        // pair term: N ≤ 4 gives one-band chunks, 5 and 6 two-band ones
        // with a short last chunk (5), 70 chunks of 18 and a short one,
        // multi-band pool tasks on the general side and tiles of up to 324
        // solves
        let s = silicon_cubic_supercell(1, 1, 1);
        let g = PwGrids::new(&s, 2.0);
        let kern = ScreenedKernel::new(&g, 0.11);
        for n in [1usize, 2, 5, 6, 16, 70] {
            let phi = rand_block(g.ng(), n, 100 + n as u64);
            let f = FockOperator::new(&g, &phi, 0.25, kern.clone(), FockMode::Batched);
            let want = pt_par::ThreadPool::new(1).install(|| partner_chunk_fold(&g, &f, &phi));
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
    fn tiles_complete_every_partial_once_with_its_partners_ascending() {
        // the tile-completeness argument of the module docs, walked: every
        // canonical pair is solved in exactly one tile, every partial
        // p_c(j) is laid out by exactly one tile and receives exactly the
        // bands of chunk c, ascending, and tiles in lexicographic order
        // hand every band its partials in ascending chunk order
        for n in [1usize, 2, 3, 5, 6, 16, 23, 70] {
            let chunks = PartnerChunks::new(n);
            let tiles = exchange_tiles(n);
            let mut solved = vec![0usize; n * n];
            let mut next_chunk = vec![0usize; n];
            for tile in &tiles {
                let laid_out: Vec<(usize, usize)> = tile.partials().collect();
                let mut partners: Vec<Vec<usize>> = vec![Vec::new(); laid_out.len()];
                for (a, b) in tile.pairs() {
                    assert!(a <= b, "n={n} {tile:?}: ({a}, {b}) is not canonical");
                    solved[a * n + b] += 1;
                    let (to_b, to_a) = tile.slots(a, b);
                    partners[to_b].push(a);
                    assert_eq!(laid_out[to_b].1, b, "n={n} {tile:?}");
                    if a != b {
                        partners[to_a].push(b);
                        assert_eq!(laid_out[to_a].1, a, "n={n} {tile:?}");
                    }
                }
                assert_eq!(tile.solves(), tile.pairs().count());
                for (&(c, band), got) in laid_out.iter().zip(&partners) {
                    let want: Vec<usize> = chunks.bands(c).collect();
                    assert_eq!(got, &want, "n={n} {tile:?}: partial p_{c}({band})");
                    assert_eq!(next_chunk[band], c, "n={n}: band {band} out of order");
                    next_chunk[band] += 1;
                }
            }
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(solved[a * n + b], usize::from(a <= b), "n={n} ({a}, {b})");
                }
            }
            assert!(next_chunk.iter().all(|&c| c == chunks.count()), "n={n}");
            assert!(chunks.count() <= PARTNER_CHUNKS, "n={n}");
        }
    }
}
