//! Distributed execution of Alg. 2 over the virtual MPI runtime.
//!
//! Wavefunctions are distributed by **band index** (§3.1): rank p owns
//! bands `p, p+N_p, p+2N_p, …` (the cyclic map keeps loads balanced when
//! N_e % N_p ≠ 0). In the Fock exchange each owner broadcasts its whole
//! block of Φ once (`MPI_Bcast`), so every rank holds all of Φ, and then
//! distributes *pairs*, not bands (the (i, j) pair-block
//! dealing of arXiv:2009.03555). It is only ever applied to its own
//! defining block — every PT-gauge call is V_X[Ψ]Ψ — so the N(N+1)/2
//! canonical pairs are cut into the self-contained [`ExchangeTile`]s of
//! [`crate::fock`], a shape-only deal gives each tile to one rank, and
//! every partial a tile completes travels point-to-point to its band's
//! owner, which folds them in ascending partner-chunk order. Each pair is
//! solved once on any layout, N(N+1)/2P per rank; the pair terms, partials
//! and fold are the in-process ones, so the gathered result has the
//! in-process bits.
//!
//! Two volume laws, asserted against the byte counters of `pt-mpi` by the
//! `tests/distributed_and_model.rs::alg2_volume_law_and_exact_f64_wire`
//! integration test and the unit tests below: the broadcasts move
//! `(N_p − 1) × N_G × N_e × 16` bytes summed over receivers (§3.2), and
//! the partials `(partials whose tile rank ≠ band owner) × N_wfc × 16`
//! point-to-point; nothing else travels. Every message is `f64`, which is
//! why the gathered result has the in-process bits on every layout.
//!
//! Alg. 2 is all this module runs on ranks. The PT residual of Alg. 3
//! runs on the driver's replicated blocks ([`crate::pt_residual`]), so
//! nothing here flips layouts or reduces an overlap. The self-application threads its rank-local compute over the
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
            #[expect(
                clippy::expect_used,
                reason = "invariant: a band distribution has a rank"
            )]
            let r = (0..dist.n_ranks)
                .min_by_key(|&r| load[r])
                .expect("invariant");
            load[r] += tile.solves();
            (tile, r)
        })
        .collect()
}

/// Distributed Fock exchange self-application (Alg. 2): `V_X[Φ]Φ`.
///
/// Φ is broadcast owner by owner *inside* this routine, so callers pass the
/// **local** slice of Φ and receive `V_X φ` for their local bands
/// (columns ↔ `dist.local_bands`). `psi_local` must be `phi_local` bit for
/// bit — the parallel-transport gauge makes every exchange application a
/// self-application — and anything else is refused by a rank-local
/// assertion before the first collective, never computed.
///
/// The pair solves — a third of a hybrid step on the benchmark's Si-8,
/// nearly all of it at the paper's size — run on the calling thread's
/// current pool (the rank's pinned pool on a [`pt_mpi::RankEngine`]).
/// Each rank solves its dealt tiles ([`BandDistribution::exchange_tiles`]),
/// sends every partial of a band it does not own to the band's owner and
/// folds its own bands' partials in ascending partner-chunk order as they
/// are made or arrive. Each partial is the in-process one — the same pair
/// terms, oriented by global band index, in the same order, and every
/// message is `f64` — so the output bits depend on neither the thread
/// count nor the rank count, and equal
/// [`FockOperator::apply_block`](crate::FockOperator::apply_block)'s.
pub fn distributed_fock_apply(
    comm: &mut Comm,
    grids: &PwGrids,
    dist: BandDistribution,
    phi_local: &CMat,
    psi_local: &CMat,
    alpha: f64,
    kernel: &crate::fock::ScreenedKernel,
) -> CMat {
    assert_eq!(
        comm.size(),
        dist.n_ranks,
        "communicator vs distribution size"
    );
    let nb_local = dist.n_local(comm.rank());
    assert_eq!(phi_local.nrows(), grids.ng());
    assert_eq!(phi_local.ncols(), nb_local);
    assert!(
        same_bits(phi_local, psi_local),
        "distributed_fock_apply is the self-application V_X[Φ]Φ: psi_local must be phi_local bit for bit"
    );
    let phi_real = broadcast_phi(comm, grids, dist, phi_local);
    let term = PairTerm::new(grids, kernel, alpha);
    let accs = fold_dealt_tiles(comm, dist, term, &phi_real, grids.n_wfc());
    let mut out = CMat::zeros(grids.ng(), nb_local);
    gather_onto(grids, &accs, &mut out);
    out
}

/// Alg. 2's broadcast loop: every owner broadcasts its whole local block
/// once, and every rank keeps all of Φ in real space, each column through
/// the same `to_real_wfc` as before — `min(N_p, N)` broadcasts per rank,
/// the bytes of one per band.
fn broadcast_phi(
    comm: &mut Comm,
    grids: &PwGrids,
    dist: BandDistribution,
    phi_local: &CMat,
) -> Vec<c64> {
    let (ng, nw) = (grids.ng(), grids.n_wfc());
    let mut phi_real = vec![c64::ZERO; dist.n_bands * nw];
    let mut block = Vec::with_capacity(dist.n_local(0) * ng);
    for owner in 0..dist.n_ranks.min(dist.n_bands) {
        block.clear();
        if owner == comm.rank() {
            block.extend_from_slice(phi_local.data());
        }
        comm.bcast_c64(owner, &mut block);
        // the owner's local column lj is band owner + lj·N_p
        for (lj, phi_i) in block.chunks_exact(ng).enumerate() {
            let i = owner + lj * dist.n_ranks;
            grids.to_real_wfc(phi_i, &mut phi_real[i * nw..(i + 1) * nw]);
        }
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
    #[expect(
        clippy::expect_used,
        reason = "invariant: every pair of chunks has a tile"
    )]
    fn source(&self, chunk: usize, band: usize) -> usize {
        let own = self.chunks.of(band);
        let key = (chunk.min(own), chunk.max(own));
        self.tile_rank
            .iter()
            .find_map(|&(chunks, r)| (chunks == key).then_some(r))
            .expect("invariant")
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
        kernel: &ScreenedKernel,
    ) -> (CMat, pt_mpi::StatsSnapshot) {
        gathered(layout, grids.ng(), phi.ncols(), |comm, dist| {
            let local = dist.take_local(comm.rank(), phi);
            distributed_fock_apply(comm, grids, dist, &local, &local, 0.25, kernel)
        })
    }

    /// The text of a re-raised rank panic.
    fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
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
            let fock = FockOperator::new(&grids, &phi, 0.25, kernel.clone(), FockMode::Batched);
            let want = pt_par::ThreadPool::new(1).install(|| {
                let mut want = CMat::zeros(ng, nb);
                fock.apply_block(&grids, &phi, &mut want);
                want
            });
            for &(ranks, threads) in layouts {
                let layout = RankLayout::new(ranks, threads);
                let (got, stats) = gathered_fock(layout, &grids, &phi, &kernel);
                let at = format!("nb={nb} {ranks}x{threads}");
                assert_same_bits(&want, &got, &at);
                // §3.2 volume: receivers = (N_p−1) per bcast, N_e bands
                // of N_G c64 in all, one broadcast per owner, and no
                // collective besides them
                let np = ranks as u64;
                assert_eq!(stats.bcast_bytes, (np - 1) * (nb * ng) as u64 * 16, "{at}");
                assert_eq!(stats.bcast_calls, np * np.min(nb as u64), "{at}");
                assert_eq!(stats.allreduce_calls, 0, "{at}");
                // the partial law: every partial whose tile and band live
                // on different ranks, N_wfc values each
                let dist = BandDistribution {
                    n_bands: nb,
                    n_ranks: ranks,
                };
                assert_eq!(stats.p2p_bytes, remote_partials(dist) * nw * 16, "{at}");
            }
        }
    }

    /// `distributed_fock_apply` of the 4-band `psi` against `phi` under
    /// `dist` on a 2-rank engine must be refused: the engine re-raises the
    /// refusal and its next job is refused with the same cause. Returns it.
    fn refusal_on_two_ranks(dist: BandDistribution, phi: &CMat, psi: &CMat) -> String {
        let s = silicon_cubic_supercell(1, 1, 1);
        let grids = PwGrids::new(&s, 2.0);
        let kernel = ScreenedKernel::new(&grids, 0.11);
        let mut engine = RankEngine::new(RankLayout::new(2, 1), Wire::F64);
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run(|comm| {
                let take = |m: &CMat| dist.take_local(comm.rank(), m);
                distributed_fock_apply(comm, &grids, dist, &take(phi), &take(psi), 0.25, &kernel)
            })
        }))
        .expect_err("a refused call must not be computed");
        let refusal = payload_text(raised.as_ref());
        assert_eq!(
            engine.run(|_| ()).expect_err("the engine is down").cause,
            refusal
        );
        refusal
    }

    #[test]
    fn a_psi_that_is_not_phi_is_refused_never_computed() {
        // one flipped bit in a band rank 1 owns: rank 1 refuses before any
        // collective and rank 0 unwinds out of the broadcast it entered
        let phi = rand_block(
            PwGrids::new(&silicon_cubic_supercell(1, 1, 1), 2.0).ng(),
            4,
            3,
        );
        let mut psi = phi.clone();
        let z = &mut psi.col_mut(1)[5];
        z.re = f64::from_bits(z.re.to_bits() ^ 1);
        let dist = BandDistribution {
            n_bands: 4,
            n_ranks: 2,
        };
        let refusal = refusal_on_two_ranks(dist, &phi, &psi);
        assert!(refusal.contains("self-application"), "{refusal}");
    }

    #[test]
    fn a_distribution_wider_than_the_world_is_refused_at_entry() {
        let phi = rand_block(
            PwGrids::new(&silicon_cubic_supercell(1, 1, 1), 2.0).ng(),
            4,
            3,
        );
        let dist = BandDistribution {
            n_bands: 4,
            n_ranks: 3,
        };
        let refusal = refusal_on_two_ranks(dist, &phi, &phi);
        // both sizes are named: the world's and the distribution's
        assert!(
            refusal.contains("communicator vs distribution size")
                && refusal.contains("left: 2")
                && refusal.contains("right: 3"),
            "{refusal}"
        );
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
        // no tile — still join every broadcast and the sends
        for (n, np) in [(1usize, 3usize), (2, 5)] {
            let phi = rand_block(grids.ng(), n, 11);
            let fock = FockOperator::new(&grids, &phi, 0.25, kernel.clone(), FockMode::Batched);
            let mut want = CMat::zeros(grids.ng(), n);
            fock.apply_block(&grids, &phi, &mut want);
            let layout = RankLayout::new(np, 1);
            let (got, stats) = gathered_fock(layout, &grids, &phi, &kernel);
            assert_same_bits(&want, &got, &format!("n={n} np={np}"));
            assert_eq!(stats.allreduce_calls, 0);
            assert_eq!(stats.bcast_calls, (np * np.min(n)) as u64);
        }
    }
}
