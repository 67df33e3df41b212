//! Distributed execution of Alg. 2 over the virtual MPI runtime.
//!
//! Wavefunctions are distributed by **band index** (§3.1): rank p owns
//! bands `p, p+N_p, p+2N_p, …` (the cyclic map keeps loads balanced when
//! N_e % N_p ≠ 0). The Fock exchange broadcasts one owner's orbital at a
//! time (`MPI_Bcast`), so every rank holds all of Φ, and then
//! distributes *pairs*, not bands (the (i, j) pair-block
//! dealing of arXiv:2009.03555): applied to its own defining block — every
//! PT-gauge call — the N(N+1)/2 canonical pairs are cut into the
//! self-contained [`ExchangeTile`]s of [`crate::fock`], a shape-only deal
//! gives each tile to one rank, and every partial a tile completes travels
//! point-to-point to its band's owner, which folds them in ascending
//! partner-chunk order. Each pair is solved once on any layout, N(N+1)/2P
//! per rank; the pair terms, partials and fold are the in-process ones, so
//! the gathered result has the in-process bits. Handed Φ ≠ Ψ, the ranks
//! run the general N_φ × N_ψ/P schedule on their own ψ bands instead.
//!
//! Two volume laws, asserted against the byte counters of `pt-mpi` by the
//! `tests/distributed_and_model.rs::alg2_volume_law_and_f32_wire`
//! integration test and the unit tests below: the broadcasts move
//! `(N_p − 1) × N_G × N_e × 16` bytes summed over receivers (§3.2), and a
//! self-application's partials `(partials whose tile rank ≠ band owner) ×
//! N_wfc × 16` point-to-point. Every message is `f64`, which is why the
//! gathered result has the in-process bits on every layout.
//!
//! Both distributed hot paths thread their rank-local compute over the
//! calling thread's current pool — on a [`pt_mpi::RankEngine`] that is
//! the rank's own pinned pool, so a `ranks × threads_per_rank` layout maps
//! each rank's tiles onto its dedicated core slice (the paper's
//! one-GPU-per-rank analogue).

use crate::fock::{
    exchange_tiles, fold_partial, gather_onto, same_bits, ExchangeTile, PairTerm, PartnerChunks,
};
use crate::grids::PwGrids;
use pt_linalg::CMat;
use pt_mpi::Comm;
use pt_num::c64;
use pt_num::complex::zdotc;
use std::ops::Range;

/// Row width of one overlap-reduction chunk — the fixed grid the Alg. 3
/// allreduce is re-associated over. Shape-only (independent of rank and
/// thread counts), so the grouping of the floating-point sums that
/// assemble the overlap matrix `S = Ψ_f^H (H_f Ψ_f)` is identical for
/// every layout, making [`distributed_residual`] bit-deterministic across
/// rank counts, not just thread counts.
pub const OVERLAP_CHUNK_ROWS: usize = 64;

/// Cyclic band ownership map: `owner(i) = i % n_ranks` (§3.1), so loads
/// differ by at most one band when `n_bands % n_ranks ≠ 0`.
#[derive(Clone, Copy, Debug)]
pub struct BandDistribution {
    /// Total number of bands.
    pub n_bands: usize,
    /// Number of ranks.
    pub n_ranks: usize,
}

impl BandDistribution {
    /// Owner rank of band `i`.
    #[inline]
    pub fn owner(&self, i: usize) -> usize {
        i % self.n_ranks
    }

    /// Local (column) index of band `i` on its owner rank — the O(1)
    /// inverse of [`BandDistribution::local_bands`]: with cyclic ownership
    /// the owner's bands ascend as `owner, owner + n_ranks, …`, so band
    /// `i` sits at position `i / n_ranks`.
    #[inline]
    pub fn local_index(&self, i: usize) -> usize {
        i / self.n_ranks
    }

    /// Number of bands owned by `rank`.
    #[inline]
    pub fn n_local(&self, rank: usize) -> usize {
        if rank >= self.n_ranks || rank >= self.n_bands {
            // more ranks than bands (or an out-of-range rank): the tail
            // ranks own nothing
            0
        } else {
            (self.n_bands - rank).div_ceil(self.n_ranks)
        }
    }

    /// Bands owned by `rank`, in ascending order.
    pub fn local_bands(&self, rank: usize) -> Vec<usize> {
        (0..self.n_bands)
            .filter(|i| self.owner(*i) == rank)
            .collect()
    }

    /// The sphere rows rank `rank` owns in the G-space layout of Alg. 3:
    /// contiguous, **chunk-aligned** slices of `[0, ng)`. The row space is
    /// first cut into fixed [`OVERLAP_CHUNK_ROWS`]-row chunks (a
    /// shape-only grid: it depends on `ng`, never on the rank count), and
    /// whole chunks are dealt to ranks with counts differing by at most
    /// one — so every chunk has exactly one owner on *any* rank count,
    /// which is what lets the overlap reduction of
    /// [`distributed_residual`] re-associate its floating-point sums
    /// identically across layouts. Ranks beyond the chunk count get an
    /// empty range (the `ng < n_ranks` edge case).
    pub fn g_rows(&self, ng: usize, rank: usize) -> Range<usize> {
        let np = self.n_ranks;
        let nc = ng.div_ceil(OVERLAP_CHUNK_ROWS);
        let base = nc / np;
        let rem = nc % np;
        let c_start = rank * base + rank.min(rem);
        let c_end = c_start + base + usize::from(rank < rem);
        (c_start * OVERLAP_CHUNK_ROWS).min(ng)..(c_end * OVERLAP_CHUNK_ROWS).min(ng)
    }

    /// The exchange tiles of a self-application dealt to `rank`, in the
    /// lexicographic order it runs them. The deal is a function of
    /// `(n_bands, n_ranks)` alone: tile after tile in that order, each to
    /// the least-loaded rank, the lowest rank on ties — so per-rank solve
    /// counts differ by at most the largest tile (68 / 68 at 16 bands on
    /// 2 ranks). Ranks beyond the tile count get none.
    pub fn exchange_tiles(&self, rank: usize) -> Vec<ExchangeTile> {
        deal(*self)
            .into_iter()
            .filter_map(|(tile, r)| (r == rank).then_some(tile))
            .collect()
    }

    /// Extract `rank`'s local columns of a band-major matrix (a test and
    /// driver convenience: the band-layout "scatter" of a replicated
    /// block).
    pub fn take_local(&self, rank: usize, m: &CMat) -> CMat {
        let mine = self.local_bands(rank);
        let mut lm = CMat::zeros(m.nrows(), mine.len());
        for (lj, &b) in mine.iter().enumerate() {
            lm.col_mut(lj).copy_from_slice(m.col(b));
        }
        lm
    }
}

/// The deal behind [`BandDistribution::exchange_tiles`]: every tile of a
/// self-application with its rank — the tiles taken in lexicographic
/// order, each to the least-loaded rank, the lowest on ties. Dealing in the
/// order the tiles run keeps the ranks' progress aligned with the order
/// their partials are folded in: at 16 bands on 2 ranks no rank ever waits
/// for a partial.
fn deal(dist: BandDistribution) -> Vec<(ExchangeTile, usize)> {
    let mut load = vec![0usize; dist.n_ranks];
    exchange_tiles(dist.n_bands)
        .into_iter()
        .map(|tile| {
            // min_by_key keeps the first minimum: the lowest rank on ties
            let r = (0..dist.n_ranks)
                .min_by_key(|&r| load[r])
                .expect("invariant: a band distribution has a rank");
            load[r] += tile.solves();
            (tile, r)
        })
        .collect()
}

/// Distributed Fock exchange application (Alg. 2).
///
/// Φ is broadcast band-by-band *inside* this routine, so callers pass the
/// **local** slice of Φ and receive `V_X ψ` for their local ψ bands
/// (columns ↔ `dist.local_bands`).
///
/// The pair solves — a third of a hybrid step on the benchmark's Si-8,
/// nearly all of it at the paper's size — run on the calling thread's
/// current pool (the rank's pinned pool on a [`pt_mpi::RankEngine`]). Like
/// [`FockOperator::apply_block`](crate::FockOperator::apply_block), this
/// recognises a self-application by its bits: if every rank was handed
/// local Φ and Ψ that are equal `to_bits` (one 1-value allreduce decides
/// for all — bandless ranks hold two empty, trivially equal blocks), each
/// rank solves its dealt tiles ([`BandDistribution::exchange_tiles`]),
/// sends every partial of a band it does not own to the band's owner and
/// folds its own bands' partials in ascending partner-chunk order as they
/// are made or arrive. Otherwise every rank runs the general schedule on
/// its own ψ bands. Either way each partial is the in-process one — the
/// same pair terms, oriented by global band index, in the same order, and
/// every message is `f64` — so the output bits depend on neither the
/// thread count nor the rank count, and equal the in-process apply's.
pub fn distributed_fock_apply(
    comm: &mut Comm,
    grids: &PwGrids,
    dist: BandDistribution,
    phi_local: &CMat,
    psi_local: &CMat,
    alpha: f64,
    kernel: &crate::fock::ScreenedKernel,
) -> CMat {
    let nb_local = dist.n_local(comm.rank());
    assert_eq!(phi_local.nrows(), grids.ng());
    assert_eq!(phi_local.ncols(), nb_local);
    assert_eq!(psi_local.ncols(), nb_local);
    // every rank must take the same branch: count the ranks handed Φ ≠ Ψ
    let mut general = [f64::from(u8::from(!same_bits(phi_local, psi_local)))];
    comm.allreduce_sum_f64(&mut general);
    let phi_real = broadcast_phi(comm, grids, dist, phi_local);
    let term = PairTerm::new(grids, kernel, alpha);
    let mut out = CMat::zeros(grids.ng(), nb_local);
    if general[0] == 0.0 {
        let accs = fold_dealt_tiles(comm, dist, term, &phi_real, grids.n_wfc());
        gather_onto(grids, &accs, &mut out);
    } else {
        let my_bands = dist.local_bands(comm.rank());
        term.apply_general(&phi_real, psi_local, &my_bands, &mut out);
    }
    out
}

/// Alg. 2's broadcast loop: for every band i the owner broadcasts φ_i and
/// every rank keeps it in real space — all of Φ, band after band.
fn broadcast_phi(
    comm: &mut Comm,
    grids: &PwGrids,
    dist: BandDistribution,
    phi_local: &CMat,
) -> Vec<c64> {
    let nw = grids.n_wfc();
    let mut phi_real = vec![c64::ZERO; dist.n_bands * nw];
    let mut phi_i = Vec::with_capacity(grids.ng());
    for (i, real) in phi_real.chunks_exact_mut(nw).enumerate() {
        let owner = dist.owner(i);
        phi_i.clear();
        if owner == comm.rank() {
            phi_i.extend_from_slice(phi_local.col(dist.local_index(i)));
        }
        comm.bcast_c64(owner, &mut phi_i);
        grids.to_real_wfc(&phi_i, real);
    }
    phi_real
}

/// A self-application's share of this rank: solve the dealt tiles, send
/// each partial of a band owned elsewhere to its owner, fold the partials
/// of the rank's own bands in ascending partner-chunk order, and return
/// those accumulators (real space, local band after local band).
///
/// *No deadlock:* tiles are made and handed on in lexicographic order on
/// every rank, a band's partials come from lexicographically ascending
/// tiles, and a rank only ever waits for a partial of a tile before the
/// one it is handing on. The lexicographically first tile not yet handed
/// on therefore waits on nothing unsent, and sends never block.
fn fold_dealt_tiles(
    comm: &mut Comm,
    dist: BandDistribution,
    term: PairTerm,
    phi_real: &[c64],
    nw: usize,
) -> Vec<c64> {
    let rank = comm.rank();
    let chunks = PartnerChunks::new(dist.n_bands);
    let mut fold = OwnedPartials {
        dist,
        chunks,
        tile_rank: deal(dist).into_iter().map(|(t, r)| (t.chunks, r)).collect(),
        nw,
        accs: vec![c64::ZERO; dist.n_local(rank) * nw],
        next: vec![0; dist.n_local(rank)],
    };
    term.run_tiles(
        phi_real,
        &dist.exchange_tiles(rank),
        |chunk, band, partial| {
            let owner = dist.owner(band);
            if owner == rank {
                fold.fold_own(comm, chunk, band, partial);
            } else {
                comm.send_c64(owner, fold.tag(chunk, band), partial);
            }
        },
    );
    for band in dist.local_bands(rank) {
        fold.receive_until(comm, band, chunks.count());
    }
    fold.accs
}

/// The accumulators of a rank's own bands during a self-application, each
/// folding its partials in ascending partner-chunk order.
struct OwnedPartials {
    dist: BandDistribution,
    chunks: PartnerChunks,
    /// Rank of every tile, by its chunk pair.
    tile_rank: Vec<((usize, usize), usize)>,
    nw: usize,
    accs: Vec<c64>,
    /// Per local band: the partner chunk it folds next.
    next: Vec<usize>,
}

impl OwnedPartials {
    /// Message tag of partial `p_chunk(band)` (below the collectives' tags).
    fn tag(&self, chunk: usize, band: usize) -> u64 {
        (band * self.chunks.count() + chunk) as u64
    }

    /// The rank whose tile makes `p_chunk(band)`.
    fn source(&self, chunk: usize, band: usize) -> usize {
        let own = self.chunks.of(band);
        let key = (chunk.min(own), chunk.max(own));
        self.tile_rank
            .iter()
            .find_map(|&(chunks, r)| (chunks == key).then_some(r))
            .expect("invariant: every pair of chunks has a tile")
    }

    /// Fold onto `band` (owned here) the partials other ranks send it,
    /// until it has every chunk below `upto`. The ones this rank makes
    /// below `upto` are already folded: its tiles are handed on in
    /// lexicographic order, which is ascending chunk order per band.
    fn receive_until(&mut self, comm: &mut Comm, band: usize, upto: usize) {
        let lj = self.dist.local_index(band);
        while self.next[lj] < upto {
            let chunk = self.next[lj];
            let partial = comm.recv_c64(self.source(chunk, band), self.tag(chunk, band));
            fold_partial(&mut self.accs[lj * self.nw..(lj + 1) * self.nw], &partial);
            self.next[lj] += 1;
        }
    }

    /// Fold a partial this rank made for one of its own bands, after the
    /// lower chunks other ranks owe it.
    fn fold_own(&mut self, comm: &mut Comm, chunk: usize, band: usize, partial: &[c64]) {
        self.receive_until(comm, band, chunk);
        let lj = self.dist.local_index(band);
        fold_partial(&mut self.accs[lj * self.nw..(lj + 1) * self.nw], partial);
        self.next[lj] = chunk + 1;
    }
}

/// Per-chunk overlap partials `T_c = A[c]^H B[c]` over the fixed
/// [`OVERLAP_CHUNK_ROWS`]-row grid of the rows `a`/`b` hold, flattened in
/// ascending chunk order (`nb × nb` values each). Every partial is a fixed
/// sequential dot product over its chunk's rows and one pool task, so the
/// bits are free of the thread count and of which rank holds the chunk.
fn overlap_chunk_partials(a: &CMat, b: &CMat) -> Vec<c64> {
    let (nrows, nb) = (a.nrows(), a.ncols());
    let mut flat = vec![c64::ZERO; nrows.div_ceil(OVERLAP_CHUNK_ROWS) * nb * nb];
    pt_par::parallel_chunks_mut(&mut flat, nb * nb, |c, t| {
        let r0 = c * OVERLAP_CHUNK_ROWS;
        let r1 = (r0 + OVERLAP_CHUNK_ROWS).min(nrows);
        for j in 0..nb {
            let bj = &b.col(j)[r0..r1];
            for i in 0..nb {
                t[i + j * nb] = zdotc(&a.col(i)[r0..r1], bj);
            }
        }
    });
    flat
}

/// Lines 4-5 of Alg. 3 on the rows the blocks hold: the rotation `Ψ_f S`
/// and `R_f = Ψ_f + i·dt/2·(H_f Ψ_f − Ψ_f S) − Ψ_{n+1/2}`, one column per
/// pool task (every element is computed independently).
fn assemble_residual(psi_f: &CMat, hpsi_f: &CMat, psi_half: &CMat, s: Vec<c64>, dt: f64) -> CMat {
    use pt_linalg::{gemm, Op};
    let (nrows, nb) = (psi_f.nrows(), psi_f.ncols());
    let s = CMat::from_vec(nb, nb, s);
    let mut rot = CMat::zeros(nrows, nb);
    gemm(c64::ONE, psi_f, Op::None, &s, Op::None, c64::ZERO, &mut rot);
    let mut resid = CMat::zeros(nrows, nb);
    pt_par::parallel_chunks_mut(resid.data_mut(), nrows.max(1), |j, rcol| {
        let (pc, hc, rotc, halfc) = (psi_f.col(j), hpsi_f.col(j), rot.col(j), psi_half.col(j));
        for (i, r) in rcol.iter_mut().enumerate() {
            let rhs = hc[i] - rotc[i];
            *r = pc[i] + rhs.mul_i().scale(0.5 * dt) - halfc[i];
        }
    });
    resid
}

/// The PT fixed-point residual
/// `R_f = Ψ_f + i·dt/2·(H_f Ψ_f − Ψ_f (Ψ_f^H H_f Ψ_f)) − Ψ_{n+1/2}` on
/// full blocks — the `N_p = 1` case of Alg. 3 without a `Comm`: the same
/// chunk partials, the same ascending fold from zero and the same
/// assembly as [`distributed_residual`], so its bits equal the gathered
/// rank result on every ranks × threads layout.
pub fn pt_residual(psi_f: &CMat, hpsi_f: &CMat, psi_half: &CMat, dt: f64) -> CMat {
    let block = psi_f.ncols() * psi_f.ncols();
    let mut s = vec![c64::ZERO; block];
    for chunk in overlap_chunk_partials(psi_f, hpsi_f).chunks_exact(block) {
        for (a, v) in s.iter_mut().zip(chunk) {
            *a += *v;
        }
    }
    assemble_residual(psi_f, hpsi_f, psi_half, s, dt)
}

/// Distributed PT residual evaluation (Alg. 3).
///
/// Inputs are in the band-index layout (each rank owns its block-cyclic
/// bands of Ψ_f, H_f Ψ_f and Ψ_{n+1/2}); the routine flips to the G-space
/// layout with `MPI_Alltoallv`, forms per-chunk overlap partials
/// `T_c = Ψ_f[c]^H (H_f Ψ_f)[c]` on the fixed [`OVERLAP_CHUNK_ROWS`]-row
/// grid, reduces `S = Σ_c T_c` in ascending chunk order through the
/// ownership-aligned tree ([`Comm::tree_reduce_chunks_c64`] — O(nb²)
/// received per rank instead of the old allgatherv-everything's
/// O(ng/64 × nb²)), applies the rotation `Ψ_f S` locally, assembles
/// `R_f = Ψ_f + i·dt/2·(H_f Ψ_f − Ψ_f S) − Ψ_{n+1/2}` and flips back.
///
/// Row partition: [`BandDistribution::g_rows`] — contiguous chunk-aligned
/// slices (whole chunks per rank, counts differing by at most one),
/// covering the `ng < N_p` and `n_bands < N_p` edge cases.
///
/// # Determinism across the full layout grid
///
/// Every chunk partial is a fixed sequential dot product over that chunk's
/// rows, computed by the chunk's single owner; the global combine walks
/// the chunks in ascending index order on every rank. Both the chunk grid
/// and the combine order depend only on `ng` — never on the rank or
/// thread count — and the layout flips move exact `f64`, so the residual
/// bits are **identical for every ranks × threads layout**, and identical
/// to the comm-free [`pt_residual`] (which shares the partials, the fold
/// and the assembly).
pub fn distributed_residual(
    comm: &mut Comm,
    dist: BandDistribution,
    ng: usize,
    psi_f: &CMat,
    hpsi_f: &CMat,
    psi_half: &CMat,
    dt: f64,
) -> CMat {
    let np = comm.size();
    assert_eq!(np, dist.n_ranks, "communicator vs distribution size");
    let nb_local = dist.n_local(comm.rank());
    assert_eq!(psi_f.ncols(), nb_local);
    let rows_of = |r: usize| -> Range<usize> { dist.g_rows(ng, r) };

    // line 1: band → G-space layout for the three blocks
    let flip_to_g = |comm: &mut Comm, m: &CMat| -> CMat {
        let send: Vec<Vec<c64>> = (0..np)
            .map(|dst| {
                let rows = rows_of(dst);
                let mut blk = Vec::with_capacity(rows.len() * nb_local);
                for j in 0..nb_local {
                    blk.extend_from_slice(&m.col(j)[rows.clone()]);
                }
                blk
            })
            .collect();
        let recv = comm.alltoallv_c64(send);
        // my rows × all bands, band-major columns ordered by global band id
        let nrows = rows_of(comm.rank()).len();
        let mut out = CMat::zeros(nrows, dist.n_bands);
        for (src, blk) in recv.iter().enumerate() {
            let src_bands = dist.local_bands(src);
            for (bj, &b) in src_bands.iter().enumerate() {
                out.col_mut(b)
                    .copy_from_slice(&blk[bj * nrows..(bj + 1) * nrows]);
            }
        }
        out
    };
    let gp = flip_to_g(comm, psi_f);
    let gh = flip_to_g(comm, hpsi_f);
    let ghalf = flip_to_g(comm, psi_half);

    // lines 2-3: chunk partials on my rows, then the chunk-ordered
    // reduction. Ranks ascend ⇒ global chunk index ascends: the tree joins
    // the per-rank ascending folds in a rank-ascending prefix chain — the
    // fixed `(((0 + T_0) + T_1) + …)` association on every rank count
    let nb = dist.n_bands;
    let s_global = comm.tree_reduce_chunks_c64(&overlap_chunk_partials(&gp, &gh), nb * nb);

    // lines 4-5: rotation and residual on my rows
    let resid_g = assemble_residual(&gp, &gh, &ghalf, s_global, dt);

    // line 6: back to band layout
    let send_back: Vec<Vec<c64>> = (0..np)
        .map(|dst| {
            let bands = dist.local_bands(dst);
            let mut blk = Vec::with_capacity(bands.len() * resid_g.nrows());
            for &b in &bands {
                blk.extend_from_slice(resid_g.col(b));
            }
            blk
        })
        .collect();
    let recv = comm.alltoallv_c64(send_back);
    let mut out = CMat::zeros(ng, nb_local);
    for (src, blk) in recv.iter().enumerate() {
        let rows = rows_of(src);
        let nrows = rows.len();
        for j in 0..nb_local {
            out.col_mut(j)[rows.clone()].copy_from_slice(&blk[j * nrows..(j + 1) * nrows]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fock::{FockMode, FockOperator, ScreenedKernel};
    use pt_lattice::silicon_cubic_supercell;
    use pt_mpi::{RankEngine, Wire};
    use pt_par::RankLayout;

    fn rand_block(ng: usize, nb: usize, seed: u64) -> CMat {
        CMat::rand_normalized(ng, nb, seed)
    }

    #[test]
    fn cyclic_distribution_covers_all_bands() {
        let d = BandDistribution {
            n_bands: 7,
            n_ranks: 3,
        };
        let mut seen = [false; 7];
        for r in 0..3 {
            let bands = d.local_bands(r);
            assert_eq!(bands.len(), d.n_local(r));
            for b in bands {
                assert!(!seen[b]);
                seen[b] = true;
                assert_eq!(d.owner(b), r);
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn local_index_is_the_o1_inverse_of_local_bands() {
        for (nb, np) in [(7, 3), (6, 6), (2, 5), (16, 4), (1, 1)] {
            let d = BandDistribution {
                n_bands: nb,
                n_ranks: np,
            };
            for r in 0..np {
                for (pos, &b) in d.local_bands(r).iter().enumerate() {
                    assert_eq!(d.local_index(b), pos, "nb={nb} np={np} band {b}");
                }
                assert_eq!(
                    d.n_local(r),
                    d.local_bands(r).len(),
                    "nb={nb} np={np} r={r}"
                );
            }
        }
    }

    #[test]
    fn g_rows_are_chunk_aligned_balanced_and_cover_every_row() {
        for (ng, np) in [
            (10usize, 3usize),
            (64, 4),
            (7, 7),
            (3, 5),
            (0, 2),
            (100, 1),
            (1000, 3),
            (64 * 5 + 17, 4),
        ] {
            let d = BandDistribution {
                n_bands: 1,
                n_ranks: np,
            };
            let nc = ng.div_ceil(OVERLAP_CHUNK_ROWS);
            let mut covered = 0;
            for r in 0..np {
                let rows = d.g_rows(ng, r);
                assert_eq!(rows.start, covered, "ng={ng} np={np} r={r}");
                covered = rows.end;
                // whole chunks per rank: boundaries sit on the fixed grid
                // (empty tail ranges are clamped to ng and own no chunk)
                assert!(
                    rows.start.is_multiple_of(OVERLAP_CHUNK_ROWS) || rows.is_empty(),
                    "ng={ng} np={np} r={r}: start off the chunk grid"
                );
                assert!(rows.end.is_multiple_of(OVERLAP_CHUNK_ROWS) || rows.end == ng);
                // balanced to within one chunk
                let chunks = rows.len().div_ceil(OVERLAP_CHUNK_ROWS);
                assert!(
                    chunks <= nc / np + usize::from(nc % np != 0),
                    "ng={ng} np={np} r={r}: {chunks} chunks"
                );
            }
            assert_eq!(covered, ng);
        }
    }

    /// The layouts every inline-vs-rank bit test walks.
    const LAYOUTS: [(usize, usize); 6] = [(1, 1), (1, 4), (2, 1), (2, 4), (3, 1), (3, 4)];

    fn assert_same_bits(want: &CMat, got: &CMat, what: &str) {
        assert_eq!((want.nrows(), want.ncols()), (got.nrows(), got.ncols()));
        for (i, (x, y)) in want.data().iter().zip(got.data()).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what} [{i}]: {x:?} vs {y:?}"
            );
        }
    }

    /// Run `f` on every rank of `layout` (pinned pools) over the rank's
    /// local columns and gather the local results into the full block.
    fn gathered(
        layout: RankLayout,
        ng: usize,
        nb: usize,
        f: impl Fn(&mut Comm, BandDistribution) -> CMat + Sync,
    ) -> (CMat, pt_mpi::StatsSnapshot) {
        let dist = BandDistribution {
            n_bands: nb,
            n_ranks: layout.ranks,
        };
        let (outs, stats) = RankEngine::new(layout, Wire::F64)
            .run(|comm| f(comm, dist))
            .expect("fresh engine");
        let mut full = CMat::zeros(ng, nb);
        for (rank, out) in outs.iter().enumerate() {
            for (lj, &b) in dist.local_bands(rank).iter().enumerate() {
                full.col_mut(b).copy_from_slice(out.col(lj));
            }
        }
        (full, stats)
    }

    fn gathered_fock(
        layout: RankLayout,
        grids: &PwGrids,
        phi: &CMat,
        psi: &CMat,
        kernel: &ScreenedKernel,
    ) -> (CMat, pt_mpi::StatsSnapshot) {
        gathered(layout, grids.ng(), psi.ncols(), |comm, dist| {
            let take = |m: &CMat| dist.take_local(comm.rank(), m);
            distributed_fock_apply(comm, grids, dist, &take(phi), &take(psi), 0.25, kernel)
        })
    }

    /// Partials of a self-application that cross ranks: made by a tile of
    /// one rank for a band another owns.
    fn remote_partials(dist: BandDistribution) -> u64 {
        let per_rank = (0..dist.n_ranks).map(|rank| {
            dist.exchange_tiles(rank)
                .iter()
                .map(|tile| {
                    tile.partials()
                        .filter(|&(_, band)| dist.owner(band) != rank)
                        .count()
                })
                .sum::<usize>()
        });
        per_rank.sum::<usize>() as u64
    }

    #[test]
    fn distributed_fock_equals_the_in_process_apply_to_the_bit() {
        let s = silicon_cubic_supercell(1, 1, 1);
        let grids = PwGrids::new(&s, 2.0);
        let (ng, nw) = (grids.ng(), grids.n_wfc() as u64);
        let kernel = ScreenedKernel::new(&grids, 0.11);
        // 6 bands: uneven over the layouts' rank counts; 2 bands on 4
        // ranks: bandless (and tileless) tail ranks still join every
        // collective; 70 bands: uneven chunks (18, 18, 18, 16), tiles of up
        // to 324 solves and multi-band pool tasks
        let cases: [(usize, &[(usize, usize)]); 3] = [
            (6, &LAYOUTS),
            (2, &[(4, 1)]),
            (70, &[(1, 4), (2, 1), (3, 4)]),
        ];
        for (nb, layouts) in cases {
            let phi = rand_block(ng, nb, 3);
            let psi = rand_block(ng, nb, 4);
            let fock = FockOperator::new(&grids, &phi, 0.25, kernel.clone(), FockMode::Batched);
            for (what, psi) in [("Φ ≠ Ψ", &psi), ("Φ = Ψ", &phi)] {
                let self_application = std::ptr::eq(psi, &phi);
                let (want, general) = pt_par::ThreadPool::new(1).install(|| {
                    let mut want = CMat::zeros(ng, nb);
                    fock.apply_block(&grids, psi, &mut want);
                    let mut general = CMat::zeros(ng, nb);
                    fock.apply_general(&grids, psi, &mut general);
                    (want, general)
                });
                assert_same_bits(&want, &general, &format!("nb={nb} {what}: general"));
                for &(ranks, threads) in layouts {
                    let layout = RankLayout::new(ranks, threads);
                    let (got, stats) = gathered_fock(layout, &grids, &phi, psi, &kernel);
                    let at = format!("nb={nb} {what} {ranks}x{threads}");
                    assert_same_bits(&want, &got, &at);
                    // §3.2 volume: receivers = (N_p−1) per bcast, N_e
                    // bcasts of N_G c64, plus one agreement value per rank
                    let np = ranks as u64;
                    assert_eq!(stats.bcast_bytes, (np - 1) * (nb * ng) as u64 * 16, "{at}");
                    assert_eq!(stats.bcast_calls, np * nb as u64, "{at}");
                    assert_eq!(stats.allreduce_calls, np, "{at}");
                    // the partial law: only a self-application sends them
                    let dist = BandDistribution {
                        n_bands: nb,
                        n_ranks: ranks,
                    };
                    let partials = if self_application {
                        remote_partials(dist)
                    } else {
                        0
                    };
                    assert_eq!(stats.p2p_bytes, partials * nw * 16, "{at}");
                }
            }
        }
    }

    #[test]
    fn the_tile_deal_covers_every_pair_once_and_balances_the_solves() {
        let s = silicon_cubic_supercell(1, 1, 1);
        let grids = PwGrids::new(&s, 2.0);
        let kernel = ScreenedKernel::new(&grids, 0.11);
        for n in [1usize, 2, 5, 6, 16, 70] {
            for np in 1..=5 {
                let dist = BandDistribution {
                    n_bands: n,
                    n_ranks: np,
                };
                let dealt: Vec<Vec<ExchangeTile>> =
                    (0..np).map(|r| dist.exchange_tiles(r)).collect();
                // a pure function of (N, P): each rank's own thread and
                // pool deal it the same tiles the driver computes
                let (on_ranks, _) = RankEngine::new(RankLayout::new(np, 2), Wire::F64)
                    .run(|comm| dist.exchange_tiles(comm.rank()))
                    .expect("fresh engine");
                assert_eq!(on_ranks, dealt, "n={n} np={np}");
                let mut solved = vec![0u32; n * n];
                for tiles in &dealt {
                    assert!(tiles.windows(2).all(|w| w[0].chunks < w[1].chunks));
                    for (a, b) in tiles.iter().flat_map(ExchangeTile::pairs) {
                        solved[a * n + b] += 1;
                    }
                }
                for a in 0..n {
                    for b in 0..n {
                        let want = u32::from(a <= b);
                        assert_eq!(solved[a * n + b], want, "n={n} np={np} ({a}, {b})");
                    }
                }
                let loads: Vec<usize> = dealt
                    .iter()
                    .map(|tiles| tiles.iter().map(ExchangeTile::solves).sum::<usize>())
                    .collect();
                let largest = dealt.iter().flatten().map(ExchangeTile::solves).max();
                let (lo, hi) = (loads.iter().min(), loads.iter().max());
                assert!(
                    hi.zip(lo).map(|(h, l)| h - l) <= largest,
                    "n={n} np={np}: loads {loads:?}"
                );
                if n == 16 && np == 2 {
                    assert_eq!(loads, [68, 68]);
                }
            }
        }
        // fewer bands than ranks: ranks that own no band — and, for 1 band,
        // no tile — still join the agreement, every broadcast and the sends
        for (n, np) in [(1usize, 3usize), (2, 5)] {
            let phi = rand_block(grids.ng(), n, 11);
            let fock = FockOperator::new(&grids, &phi, 0.25, kernel.clone(), FockMode::Batched);
            let mut want = CMat::zeros(grids.ng(), n);
            fock.apply_block(&grids, &phi, &mut want);
            let layout = RankLayout::new(np, 1);
            let (got, stats) = gathered_fock(layout, &grids, &phi, &phi, &kernel);
            assert_same_bits(&want, &got, &format!("n={n} np={np}"));
            assert_eq!(stats.allreduce_calls, np as u64);
            assert_eq!(stats.bcast_calls, (np * n) as u64);
        }
    }

    /// Random blocks of any (ng, nb) extent plus the PT residual written
    /// as plain GEMM algebra — the independent reference the chunked
    /// evaluation is held to (to rounding, not bits).
    fn gemm_residual(ng: usize, nb: usize, seeds: [u64; 3], dt: f64) -> (CMat, CMat, CMat, CMat) {
        use pt_linalg::{gemm, Op};
        let psi = rand_block(ng, nb, seeds[0]);
        let hpsi = rand_block(ng, nb, seeds[1]);
        let half = rand_block(ng, nb, seeds[2]);
        let mut sg = CMat::zeros(nb, nb);
        gemm(
            c64::ONE,
            &psi,
            Op::ConjTrans,
            &hpsi,
            Op::None,
            c64::ZERO,
            &mut sg,
        );
        let mut rot = CMat::zeros(ng, nb);
        gemm(c64::ONE, &psi, Op::None, &sg, Op::None, c64::ZERO, &mut rot);
        let mut want = CMat::zeros(ng, nb);
        for j in 0..nb {
            for i in 0..ng {
                let rhs = hpsi[(i, j)] - rot[(i, j)];
                want[(i, j)] = psi[(i, j)] + rhs.mul_i().scale(0.5 * dt) - half[(i, j)];
            }
        }
        (psi, hpsi, half, want)
    }

    #[test]
    fn distributed_residual_equals_the_comm_free_one_to_the_bit() {
        // the fixed-chunk reduction: same bits for every ranks × threads
        // layout and for the comm-free evaluation, including sizes that
        // straddle chunk boundaries unevenly
        let dt = 0.7;
        let layouts = LAYOUTS.iter().copied().chain([(5, 1)]);
        for (ng, nb) in [(200usize, 5usize), (64, 3), (65, 2), (700, 4)] {
            let (psi, hpsi, half, algebra) = gemm_residual(ng, nb, [61, 62, 63], dt);
            let want = pt_residual(&psi, &hpsi, &half, dt);
            let err = want.max_diff(&algebra);
            assert!(err < 1e-11, "ng={ng} nb={nb}: vs GEMM algebra {err}");
            for (ranks, threads) in layouts.clone() {
                let (got, stats) =
                    gathered(RankLayout::new(ranks, threads), ng, nb, |comm, dist| {
                        let take = |m: &CMat| dist.take_local(comm.rank(), m);
                        distributed_residual(
                            comm,
                            dist,
                            ng,
                            &take(&psi),
                            &take(&hpsi),
                            &take(&half),
                            dt,
                        )
                    });
                assert_same_bits(&want, &got, &format!("ng={ng} nb={nb} {ranks}x{threads}"));
                // three forward flips + one backward per rank
                let np = ranks as u64;
                assert_eq!(stats.alltoallv_calls, 4 * np);
                // the overlap partials travel by the tree reduction and the
                // received volume is the O(nb²)-per-rank law: one prefix
                // hop plus one broadcast delivery for every rank but one
                assert_eq!(stats.allgatherv_calls, 0);
                assert_eq!(stats.tree_reduce_calls, np);
                assert_eq!(
                    stats.tree_reduce_bytes,
                    2 * (np - 1) * (nb * nb) as u64 * 16
                );
            }
        }
    }

    #[test]
    fn distributed_residual_edge_cases_more_ranks_than_rows_or_bands() {
        // ng < np: some ranks own zero sphere rows; nb < np: some ranks
        // own zero bands. Both must still reproduce the comm-free bits
        // (and, to rounding, the GEMM algebra).
        let dt = 0.3;
        for (ng, nb, np) in [(3usize, 2usize, 5usize), (8, 2, 4), (5, 7, 6), (1, 1, 3)] {
            let (psi, hpsi, half, algebra) = gemm_residual(ng, nb, [31, 32, 33], dt);
            let want = pt_residual(&psi, &hpsi, &half, dt);
            let err = want.max_diff(&algebra);
            assert!(err < 1e-12, "ng={ng} nb={nb}: vs GEMM algebra {err}");
            let (got, _) = gathered(RankLayout::new(np, 1), ng, nb, |comm, dist| {
                let take = |m: &CMat| dist.take_local(comm.rank(), m);
                distributed_residual(comm, dist, ng, &take(&psi), &take(&hpsi), &take(&half), dt)
            });
            assert_same_bits(&want, &got, &format!("ng={ng} nb={nb} np={np}"));
        }
    }
}
