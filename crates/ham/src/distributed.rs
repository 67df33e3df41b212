//! Distributed execution of Alg. 2 over the virtual MPI runtime.
//!
//! Wavefunctions are distributed by **band index** (§3.1): rank p owns
//! bands `p, p+N_p, p+2N_p, …` (the cyclic map keeps loads balanced when
//! N_e % N_p ≠ 0). The Fock exchange loop broadcasts one owner's orbital at
//! a time (`MPI_Bcast`, optionally f32 on the wire) while every rank solves
//! the Poisson-like equations for its local bands — exactly Alg. 2.
//!
//! The total broadcast volume is `N_p × N_G × N_e × sizeof(wire scalar)`
//! summed over receivers (§3.2) — asserted by the `val-comm` integration
//! test against the byte counters of `pt-mpi`.
//!
//! Both distributed hot paths thread their rank-local compute over the
//! calling thread's current pool — under
//! [`pt_mpi::run_ranks_pinned`] that is the rank's own pinned pool, so a
//! `ranks × threads_per_rank` layout maps each rank's band loop onto its
//! dedicated core slice (the paper's one-GPU-per-rank analogue).

use crate::error::PtError;
use crate::grids::PwGrids;
use pt_linalg::CMat;
use pt_mpi::{Comm, Wire};
use pt_num::c64;
use pt_num::complex::zdotc;
use pt_par::RankLayout;
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

/// How a distributed run decomposes the host: how many virtual-MPI ranks,
/// how wide each rank's pinned compute pool is, and the wire precision of
/// the collectives. Surfaced on `KsSystemBuilder::distributed` so a hybrid
/// PT-CN run can be driven as ranks × threads from the public API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DistributedConfig {
    /// Number of virtual-MPI ranks (one OS thread each).
    pub ranks: usize,
    /// Width of each rank's pinned [`pt_par::ThreadPool`].
    pub threads_per_rank: usize,
    /// Wire precision for the Alg. 2 broadcasts (`Wire::F32` halves the
    /// volume at ~1e-7 relative loss — observables then differ across
    /// layouts at that level instead of being bit-identical).
    pub wire: Wire,
}

impl Default for DistributedConfig {
    /// One rank, one thread, full precision — the serial-equivalent
    /// layout every other layout is measured against.
    fn default() -> Self {
        DistributedConfig {
            ranks: 1,
            threads_per_rank: 1,
            wire: Wire::F64,
        }
    }
}

impl DistributedConfig {
    /// A `ranks × threads_per_rank` config with full-precision wire.
    pub fn new(ranks: usize, threads_per_rank: usize) -> Self {
        DistributedConfig {
            ranks,
            threads_per_rank,
            wire: Wire::F64,
        }
    }

    /// Switch the collective wire format.
    pub fn wire(mut self, wire: Wire) -> Self {
        self.wire = wire;
        self
    }

    /// The `pt_par` view of the decomposition.
    pub fn layout(&self) -> RankLayout {
        RankLayout {
            ranks: self.ranks,
            threads_per_rank: self.threads_per_rank,
        }
    }

    /// Validate extents (both must be nonzero). Oversubscribing the host
    /// is allowed — it cannot change results, only wall time; see
    /// [`RankLayout::fits_host`].
    pub fn validate(&self) -> Result<(), PtError> {
        self.layout()
            .validate()
            .map_err(|msg| PtError::InvalidConfig(format!("distributed config: {msg}")))
    }
}

/// Distributed Fock exchange application (Alg. 2).
///
/// `fock` must have been built with the same Φ on every rank (its defining
/// orbitals are broadcast band-by-band *inside* this routine, so callers
/// pass the **local** slice of Φ and receive `V_X ψ` for their local ψ
/// bands). Returns the local output block (columns ↔ `dist.local_bands`).
///
/// The per-band accumulate loop — the (φ_i, ψ_j) FFT/kernel work that is
/// ~95 % of a hybrid step — runs on the calling thread's current pool
/// (the rank's pinned pool under [`pt_mpi::run_ranks_pinned`]). Band
/// chunking depends only on the local band count and each band's
/// accumulator is owned by exactly one task that folds the broadcast
/// order `i = 0..n_bands` sequentially, so the output bits depend on
/// neither the thread count nor the rank count (with a `Wire::F64` wire).
pub fn distributed_fock_apply(
    comm: &mut Comm,
    grids: &PwGrids,
    dist: BandDistribution,
    phi_local: &CMat,
    psi_local: &CMat,
    alpha: f64,
    kernel: &crate::fock::ScreenedKernel,
) -> CMat {
    let ng = grids.ng();
    let nw = grids.n_wfc();
    assert_eq!(phi_local.nrows(), ng);
    assert_eq!(psi_local.nrows(), ng);
    let nb_local = dist.n_local(comm.rank());
    assert_eq!(phi_local.ncols(), nb_local);
    assert_eq!(psi_local.ncols(), nb_local);

    // local ψ in real space (reused across the i loop), band-parallel
    let psi_real: Vec<Vec<c64>> = pt_par::parallel_map(nb_local, |j| {
        let mut r = vec![c64::ZERO; nw];
        grids.to_real_wfc(psi_local.col(j), &mut r);
        r
    });

    // shape-only chunking: one task owns a contiguous run of local bands
    // (min 1 so the zero-local-bands edge case keeps a valid chunk size).
    // Each chunk carries its band accumulators AND its pair-FFT scratch
    // buffer, so the broadcast loop allocates nothing per iteration.
    let band_chunk = nb_local
        .div_ceil(pt_par::chunk_count(nb_local.max(1)))
        .max(1);
    struct BandChunk {
        /// First local band of this chunk.
        start: usize,
        /// One accumulator per band in the chunk (real-space V_X ψ_j).
        accs: Vec<Vec<c64>>,
        /// Scratch for the pair density / Poisson solve.
        pair: Vec<c64>,
    }
    let mut chunks: Vec<BandChunk> = (0..nb_local.div_ceil(band_chunk))
        .map(|c| {
            let start = c * band_chunk;
            let end = (start + band_chunk).min(nb_local);
            BandChunk {
                start,
                accs: (start..end).map(|_| vec![c64::ZERO; nw]).collect(),
                pair: vec![c64::ZERO; nw],
            }
        })
        .collect();

    // Alg. 2: for every band i, the owner broadcasts φ_i, everyone
    // accumulates onto its local (V_X ψ_j).
    pt_trace::counter_add(
        pt_trace::Counter::PairFfts,
        (dist.n_bands * nb_local) as u64,
    );
    let mut phi_real = vec![c64::ZERO; nw];
    for i in 0..dist.n_bands {
        let owner = dist.owner(i);
        let mut phi_i: Vec<c64> = if owner == comm.rank() {
            phi_local.col(dist.local_index(i)).to_vec()
        } else {
            Vec::new()
        };
        comm.bcast_c64(owner, &mut phi_i);
        // φ_i to real space once per rank (buffer hoisted out of the loop;
        // to_real_wfc overwrites it fully)
        grids.to_real_wfc(&phi_i, &mut phi_real);
        let phi_real = &phi_real;
        let psi_real = &psi_real;
        pt_par::parallel_chunks_mut(&mut chunks, 1, |_c, chunk| {
            let BandChunk { start, accs, pair } = &mut chunk[0];
            for (dj, acc_j) in accs.iter_mut().enumerate() {
                let j = *start + dj;
                for ((p, f), s) in pair.iter_mut().zip(phi_real).zip(&psi_real[j]) {
                    *p = f.conj() * *s;
                }
                grids.fft_wfc.forward_serial(pair);
                for (z, &k) in pair.iter_mut().zip(&kernel.values) {
                    *z = z.scale(k);
                }
                grids.fft_wfc.inverse_serial(pair);
                for ((o, f), v) in acc_j.iter_mut().zip(phi_real).zip(pair.iter()) {
                    *o += (*f * *v).scale(-alpha);
                }
            }
        });
    }
    // gather back to sphere coefficients, band-parallel (each accumulator
    // is replaced by its coefficient vector in place)
    pt_par::parallel_chunks_mut(&mut chunks, 1, |_c, chunk| {
        for acc_j in chunk[0].accs.iter_mut() {
            let mut coeffs = vec![c64::ZERO; ng];
            grids.to_coeffs_wfc(acc_j, &mut coeffs);
            *acc_j = coeffs;
        }
    });
    let mut out = CMat::zeros(ng, nb_local);
    for chunk in &chunks {
        for (dj, coeffs) in chunk.accs.iter().enumerate() {
            out.col_mut(chunk.start + dj).copy_from_slice(coeffs);
        }
    }
    out
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
/// thread count — so with a [`Wire::F64`] wire the residual bits are
/// **identical for every ranks × threads layout** (the fixed-chunk
/// reduction tree that closed the old ~1e-12 cross-rank gap). A
/// [`Wire::F32`] wire quantizes the alltoallv layout flips and gives that
/// up (the tree reduction itself always moves full-precision partials).
pub fn distributed_residual(
    comm: &mut Comm,
    dist: BandDistribution,
    ng: usize,
    psi_f: &CMat,
    hpsi_f: &CMat,
    psi_half: &CMat,
    dt: f64,
) -> CMat {
    use pt_linalg::{gemm, Op};
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

    // lines 2-3: per-chunk overlap partials on the fixed row grid, then a
    // chunk-ordered re-association (see the determinism note above). Each
    // local chunk's nb×nb partial is one pool task (chunks are independent
    // and internally sequential, so bits are thread-count-free too).
    let nb = dist.n_bands;
    let my_rows = rows_of(comm.rank());
    let n_my_chunks = my_rows.len().div_ceil(OVERLAP_CHUNK_ROWS);
    let partials: Vec<CMat> = pt_par::parallel_map(n_my_chunks, |c| {
        let r0 = c * OVERLAP_CHUNK_ROWS;
        let r1 = (r0 + OVERLAP_CHUNK_ROWS).min(my_rows.len());
        let mut t = CMat::zeros(nb, nb);
        for j in 0..nb {
            let ghj = &gh.col(j)[r0..r1];
            for i in 0..nb {
                t[(i, j)] = zdotc(&gp.col(i)[r0..r1], ghj);
            }
        }
        t
    });
    let flat: Vec<c64> = partials.iter().flat_map(|t| t.data().to_vec()).collect();
    // ranks ascend ⇒ global chunk index ascends: the tree reduction joins
    // the per-rank ascending folds in a rank-ascending prefix chain, which
    // is exactly the fixed `(((T_0 + T_1) + T_2) + …)` association the old
    // allgatherv-everything combine used — same bits, but each rank now
    // receives O(nb²) instead of O(ng/64 × nb²)
    let summed = comm.tree_reduce_chunks_c64(&flat, nb * nb);
    let mut s_global = CMat::zeros(nb, nb);
    s_global.data_mut().copy_from_slice(&summed);

    // lines 4-5: rotation and residual on my rows
    let mut rot = CMat::zeros(gp.nrows(), nb);
    gemm(
        c64::ONE,
        &gp,
        Op::None,
        &s_global,
        Op::None,
        c64::ZERO,
        &mut rot,
    );
    let nrows = gp.nrows();
    let mut resid_g = CMat::zeros(nrows, nb);
    // element-wise assembly, one column per pool task (bit-deterministic:
    // every element is computed independently)
    pt_par::parallel_chunks_mut(resid_g.data_mut(), nrows.max(1), |j, rcol| {
        let (gpc, ghc, rotc, ghalfc) = (gp.col(j), gh.col(j), rot.col(j), ghalf.col(j));
        for (i, r) in rcol.iter_mut().enumerate() {
            let rhs = ghc[i] - rotc[i];
            *r = gpc[i] + rhs.mul_i().scale(0.5 * dt) - ghalfc[i];
        }
    });

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
    use pt_mpi::{run_ranks, Wire};

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

    #[test]
    fn distributed_config_validates_and_carries_the_layout() {
        let cfg = DistributedConfig::new(2, 3).wire(Wire::F32);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.layout(), RankLayout::new(2, 3));
        assert_eq!(cfg.wire, Wire::F32);
        assert_eq!(DistributedConfig::default(), DistributedConfig::new(1, 1));
        let bad = DistributedConfig {
            ranks: 0,
            threads_per_rank: 1,
            wire: Wire::F64,
        };
        assert!(matches!(bad.validate(), Err(PtError::InvalidConfig(_))));
    }

    #[test]
    fn distributed_matches_serial() {
        let s = silicon_cubic_supercell(1, 1, 1);
        let grids = PwGrids::new(&s, 2.0);
        let ng = grids.ng();
        let nb = 6;
        let phi = rand_block(ng, nb, 3);
        let psi = rand_block(ng, nb, 4);
        let kernel = ScreenedKernel::new(&grids, 0.11);
        // serial reference
        let fock = FockOperator::new(&grids, &phi, 0.25, kernel.clone(), FockMode::Batched);
        let mut want = CMat::zeros(ng, nb);
        fock.apply_block(&grids, &psi, &mut want);
        // distributed over 3 ranks
        let np = 3;
        let dist = BandDistribution {
            n_bands: nb,
            n_ranks: np,
        };
        let grids_ref = &grids;
        let phi_ref = &phi;
        let psi_ref = &psi;
        let kern_ref = &kernel;
        let (outs, stats) = run_ranks(np, Wire::F64, move |comm| {
            let rank = comm.rank();
            let mine = dist.local_bands(rank);
            let take = |m: &CMat| dist.take_local(rank, m);
            let out = distributed_fock_apply(
                comm,
                grids_ref,
                dist,
                &take(phi_ref),
                &take(psi_ref),
                0.25,
                kern_ref,
            );
            (mine, out)
        });
        let mut err = 0.0f64;
        for (mine, out) in outs {
            for (lj, &b) in mine.iter().enumerate() {
                for (x, y) in out.col(lj).iter().zip(want.col(b)) {
                    err = err.max((*x - *y).abs());
                }
            }
        }
        assert!(err < 1e-11, "distributed vs serial: {err}");
        // §3.2 volume: receivers = (N_p−1) per bcast, N_e bcasts of N_G c64
        let want_bytes = (np as u64 - 1) * nb as u64 * ng as u64 * 16;
        assert_eq!(stats.bcast_bytes, want_bytes);
        assert_eq!(stats.bcast_calls, (np * nb) as u64);
    }

    #[test]
    fn f32_wire_error_is_small() {
        let s = silicon_cubic_supercell(1, 1, 1);
        let grids = PwGrids::new(&s, 2.0);
        let ng = grids.ng();
        let nb = 4;
        let phi = rand_block(ng, nb, 7);
        let psi = rand_block(ng, nb, 8);
        let kernel = ScreenedKernel::new(&grids, 0.11);
        let fock = FockOperator::new(&grids, &phi, 0.25, kernel.clone(), FockMode::Batched);
        let mut want = CMat::zeros(ng, nb);
        fock.apply_block(&grids, &psi, &mut want);
        let np = 2;
        let dist = BandDistribution {
            n_bands: nb,
            n_ranks: np,
        };
        let (grids_ref, phi_ref, psi_ref, kern_ref) = (&grids, &phi, &psi, &kernel);
        let (outs, stats) = run_ranks(np, Wire::F32, move |comm| {
            let rank = comm.rank();
            let mine = dist.local_bands(rank);
            let take = |m: &CMat| dist.take_local(rank, m);
            let out = distributed_fock_apply(
                comm,
                grids_ref,
                dist,
                &take(phi_ref),
                &take(psi_ref),
                0.25,
                kern_ref,
            );
            (mine, out)
        });
        // volume is halved relative to f64
        assert_eq!(
            stats.bcast_bytes,
            (np as u64 - 1) * nb as u64 * ng as u64 * 8
        );
        let mut err = 0.0f64;
        for (mine, out) in outs {
            for (lj, &b) in mine.iter().enumerate() {
                for (x, y) in out.col(lj).iter().zip(want.col(b)) {
                    err = err.max((*x - *y).abs());
                }
            }
        }
        // f32 wire: ~1e-7 relative loss on the broadcast orbitals (§3.2:
        // "negligible changes in the accuracy")
        assert!(err < 1e-5, "f32 wire error too large: {err}");
        assert!(err > 1e-12, "error suspiciously zero — wire not exercised?");
    }

    #[test]
    fn distributed_residual_matches_serial() {
        use pt_linalg::{gemm, Op};
        let s = silicon_cubic_supercell(1, 1, 1);
        let grids = PwGrids::new(&s, 2.0);
        let ng = grids.ng();
        let nb = 6;
        let psi = rand_block(ng, nb, 21);
        let hpsi = rand_block(ng, nb, 22);
        let half = rand_block(ng, nb, 23);
        let dt = 0.7;
        // serial reference: R = Ψ + i dt/2 (HΨ − Ψ(Ψ^H HΨ)) − Ψ_half
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
        for np in [2usize, 3] {
            let dist = BandDistribution {
                n_bands: nb,
                n_ranks: np,
            };
            let (p_, h_, f_) = (&psi, &hpsi, &half);
            let (outs, stats) = run_ranks(np, Wire::F64, move |comm| {
                let rank = comm.rank();
                let mine = dist.local_bands(rank);
                let take = |m: &CMat| dist.take_local(rank, m);
                let r = distributed_residual(comm, dist, ng, &take(p_), &take(h_), &take(f_), dt);
                (mine, r)
            });
            // three forward flips + one backward per rank
            assert_eq!(stats.alltoallv_calls, 4 * np as u64);
            // the overlap partials travel by the tree reduction now — the
            // allgatherv-everything path is gone, and the received volume
            // is the O(nb²)-per-rank law: one prefix hop plus one
            // broadcast delivery for every rank but one of each
            assert_eq!(stats.allgatherv_calls, 0);
            assert_eq!(stats.tree_reduce_calls, np as u64);
            assert_eq!(
                stats.tree_reduce_bytes,
                2 * (np as u64 - 1) * (nb * nb) as u64 * 16
            );
            let mut err = 0.0f64;
            for (mine, out) in outs {
                for (lj, &b) in mine.iter().enumerate() {
                    for (x, y) in out.col(lj).iter().zip(want.col(b)) {
                        err = err.max((*x - *y).abs());
                    }
                }
            }
            assert!(err < 1e-11, "np={np}: distributed residual error {err}");
        }
    }

    /// Pure-algebra helper: the serial PT residual reference for random
    /// blocks of any (ng, nb) extent.
    fn serial_residual(ng: usize, nb: usize, seeds: [u64; 3], dt: f64) -> (CMat, CMat, CMat, CMat) {
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
    fn distributed_residual_is_bit_identical_across_rank_counts() {
        // the fixed-chunk reduction tree: same bits for every rank count,
        // including sizes that straddle chunk boundaries unevenly
        for (ng, nb) in [(200usize, 5usize), (64, 3), (65, 2), (700, 4)] {
            let dt = 0.7;
            let (psi, hpsi, half, _) = serial_residual(ng, nb, [61, 62, 63], dt);
            let mut reference: Option<CMat> = None;
            for np in [1usize, 2, 3, 5] {
                let dist = BandDistribution {
                    n_bands: nb,
                    n_ranks: np,
                };
                let (p_, h_, f_) = (&psi, &hpsi, &half);
                let (outs, _) = run_ranks(np, Wire::F64, move |comm| {
                    let rank = comm.rank();
                    let mine = dist.local_bands(rank);
                    let take = |m: &CMat| dist.take_local(rank, m);
                    let r =
                        distributed_residual(comm, dist, ng, &take(p_), &take(h_), &take(f_), dt);
                    (mine, r)
                });
                let mut full = CMat::zeros(ng, nb);
                for (mine, out) in outs {
                    for (lj, &b) in mine.iter().enumerate() {
                        full.col_mut(b).copy_from_slice(out.col(lj));
                    }
                }
                match &reference {
                    None => reference = Some(full),
                    Some(want) => {
                        for (i, (x, y)) in want.data().iter().zip(full.data()).enumerate() {
                            assert!(
                                x.re.to_bits() == y.re.to_bits()
                                    && x.im.to_bits() == y.im.to_bits(),
                                "ng={ng} nb={nb} np={np} [{i}]: {x:?} vs {y:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn distributed_residual_edge_cases_more_ranks_than_rows_or_bands() {
        // ng < np: some ranks own zero sphere rows; nb < np: some ranks
        // own zero bands. Both must still reproduce the serial residual.
        let dt = 0.3;
        for (ng, nb, np) in [(3usize, 2usize, 5usize), (8, 2, 4), (5, 7, 6), (1, 1, 3)] {
            let (psi, hpsi, half, want) = serial_residual(ng, nb, [31, 32, 33], dt);
            let dist = BandDistribution {
                n_bands: nb,
                n_ranks: np,
            };
            let (p_, h_, f_) = (&psi, &hpsi, &half);
            let (outs, _) = run_ranks(np, Wire::F64, move |comm| {
                let rank = comm.rank();
                let mine = dist.local_bands(rank);
                let take = |m: &CMat| dist.take_local(rank, m);
                let r = distributed_residual(comm, dist, ng, &take(p_), &take(h_), &take(f_), dt);
                (mine, r)
            });
            let mut err = 0.0f64;
            for (mine, out) in outs {
                for (lj, &b) in mine.iter().enumerate() {
                    for (x, y) in out.col(lj).iter().zip(want.col(b)) {
                        err = err.max((*x - *y).abs());
                    }
                }
            }
            assert!(err < 1e-12, "ng={ng} nb={nb} np={np}: residual error {err}");
        }
    }

    #[test]
    fn distributed_fock_handles_more_ranks_than_bands() {
        let s = silicon_cubic_supercell(1, 1, 1);
        let grids = PwGrids::new(&s, 2.0);
        let ng = grids.ng();
        let nb = 2;
        let np = 4;
        let phi = rand_block(ng, nb, 41);
        let psi = rand_block(ng, nb, 42);
        let kernel = ScreenedKernel::new(&grids, 0.11);
        let fock = FockOperator::new(&grids, &phi, 0.25, kernel.clone(), FockMode::Batched);
        let mut want = CMat::zeros(ng, nb);
        fock.apply_block(&grids, &psi, &mut want);
        let dist = BandDistribution {
            n_bands: nb,
            n_ranks: np,
        };
        let (g, ph, ps, k) = (&grids, &phi, &psi, &kernel);
        let (outs, _) = run_ranks(np, Wire::F64, move |comm| {
            let rank = comm.rank();
            let mine = dist.local_bands(rank);
            let out = distributed_fock_apply(
                comm,
                g,
                dist,
                &dist.take_local(rank, ph),
                &dist.take_local(rank, ps),
                0.25,
                k,
            );
            (mine, out)
        });
        let mut err = 0.0f64;
        for (mine, out) in outs {
            for (lj, &b) in mine.iter().enumerate() {
                for (x, y) in out.col(lj).iter().zip(want.col(b)) {
                    err = err.max((*x - *y).abs());
                }
            }
        }
        assert!(err < 1e-11, "bandless ranks broke Alg. 2: {err}");
    }
}
