//! Electron density from a block of orbitals.
//!
//! `ρ(r) = Σ_i f_i |ψ_i(r)|²`, evaluated on the dense grid (paper §3.4:
//! band-index layout makes this embarrassingly parallel over bands followed
//! by one `MPI_Allreduce` — here one partial density per `pt-par` band
//! chunk, accumulated in chunk order). The chunks run in groups through
//! one reused buffer of partials, so a call holds ρ and at most eight
//! partials per pool thread, not one per chunk.

use crate::grids::PwGrids;
use crate::scratch::SCRATCH;
use pt_linalg::CMat;
use pt_num::with_scratch;

/// Band chunks per pool thread in one group of [`density_from_orbitals`]:
/// its slot buffer holds this many partials per thread, and each group is
/// one pool dispatch whose workers wake at its start and wait at its end.
/// One chunk per thread made a 2-thread Si-8 density 30–80 % slower than
/// one dispatch over all chunks; eight keep Si-8 at one group on two
/// threads and halve Si-16's partials.
const CHUNKS_PER_THREAD: usize = 8;

/// Compute the density on the dense grid. `orbitals` columns are sphere
/// coefficient vectors; `occ[i]` their occupations (2.0 for closed shell).
pub fn density_from_orbitals(grids: &PwGrids, orbitals: &CMat, occ: &[f64]) -> Vec<f64> {
    assert_eq!(orbitals.nrows(), grids.ng());
    assert_eq!(orbitals.ncols(), occ.len());
    let nd = grids.n_dense();
    let nb = orbitals.ncols();
    // one partial density per band chunk, bands accumulated in index order
    // inside a chunk; the real-space orbital is per-thread scratch. A group
    // of chunks fills the slots, which fold onto ρ in chunk order before
    // the next group: ρ is the chunk-ordered left accumulate from zero on
    // any pool (not a pairwise tree: the pinned trajectories carry this
    // association)
    let k = pt_par::chunk_count(nb);
    let per_group = (CHUNKS_PER_THREAD * pt_par::current_num_threads()).min(k.max(1));
    let mut rho = vec![0.0f64; nd];
    let mut slots = vec![0.0f64; per_group * nd];
    for first in (0..k).step_by(per_group) {
        let group = &mut slots[..per_group.min(k - first) * nd];
        pt_par::parallel_chunks_mut(group, nd, |j, acc| {
            with_scratch(&SCRATCH, nd, |work| {
                let bands = pt_par::chunk_range(nb, k, first + j);
                let start = bands.start;
                for i in bands {
                    grids.to_real_dense(orbitals.col(i), work);
                    let f = occ[i];
                    // the first band starts the partial instead of a zeroed
                    // one: the two differ at most in the sign of a zero,
                    // which the fold onto ρ drops
                    for (a, z) in acc.iter_mut().zip(work.iter()) {
                        let t = f * z.norm_sqr();
                        *a = if i == start { t } else { *a + t };
                    }
                }
            });
        });
        for part in group.chunks_exact(nd) {
            for (x, y) in rho.iter_mut().zip(part) {
                *x += y;
            }
        }
    }
    rho
}

/// ∫ρ dr (electron-count check).
pub fn integrate(grids: &PwGrids, rho: &[f64]) -> f64 {
    pt_num::reduce::sum_f64(rho.iter().copied()) * grids.volume / grids.n_dense() as f64
}

/// The convergence metric used throughout the stack (PT-CN fixed point,
/// ground-state SCF, Φ-stationarity): `max_r |ρ_new(r) − ρ_old(r)| · Ω`,
/// i.e. the max pointwise density change scaled to electron units
/// (`Ω = dv · N_dense`). One definition, shared, so every loop converges
/// against the same number. A NaN anywhere in either density makes it NaN,
/// which no `residual < tol` test accepts.
pub fn density_residual(rho_new: &[f64], rho_old: &[f64], volume: f64) -> f64 {
    debug_assert_eq!(rho_new.len(), rho_old.len());
    pt_num::reduce::max_f64(rho_new.iter().zip(rho_old).map(|(a, b)| (a - b).abs())) * volume
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_lattice::silicon_cubic_supercell;
    use pt_num::c64;

    #[test]
    fn density_integrates_to_electron_count() {
        let s = silicon_cubic_supercell(1, 1, 1);
        let g = PwGrids::new(&s, 3.0);
        let ng = g.ng();
        let nb = 4;
        // random orthonormal-ish block: normalize each column
        let mut rng = pt_num::rng::XorShift64::new(3u64);
        let mut orb = CMat::zeros(ng, nb);
        for j in 0..nb {
            let col = orb.col_mut(j);
            for z in col.iter_mut() {
                *z = c64::new(rng.next_centered(), rng.next_centered());
            }
            let n = pt_num::complex::znrm2(col);
            for z in col.iter_mut() {
                *z = z.scale(1.0 / n);
            }
        }
        let occ = vec![2.0; nb];
        let rho = density_from_orbitals(&g, &orb, &occ);
        let ne = integrate(&g, &rho);
        assert!((ne - 8.0).abs() < 1e-10, "{ne}");
        assert!(
            rho.iter().all(|&v| v >= -1e-12),
            "density must be nonnegative"
        );
    }

    #[test]
    fn residual_of_a_nan_density_is_nan() {
        // a non-finite iterate must never read as a converged fixed point
        let rho = vec![0.5; 16];
        let mut bad = rho.clone();
        bad[7] = f64::NAN;
        assert!(density_residual(&bad, &rho, 10.0).is_nan());
        assert!(density_residual(&rho, &bad, 10.0).is_nan());
        assert!(density_residual(&[f64::NAN; 16], &[f64::NAN; 16], 10.0).is_nan());
        assert_eq!(density_residual(&rho, &rho, 10.0), 0.0);
    }

    #[test]
    fn uniform_orbital_gives_uniform_density() {
        let s = silicon_cubic_supercell(1, 1, 1);
        let g = PwGrids::new(&s, 2.0);
        let mut orb = CMat::zeros(g.ng(), 1);
        orb[(0, 0)] = c64::ONE; // G = 0 plane wave
        let rho = density_from_orbitals(&g, &orb, &[2.0]);
        let want = 2.0 / g.volume;
        for &v in &rho {
            assert!((v - want).abs() < 1e-12);
        }
    }

    #[test]
    fn multi_band_chunks_are_thread_count_independent() {
        // 70 bands > 64 chunks: some chunks fold two bands before the
        // chunk-ordered accumulate — the association no fixture reaches;
        // 1 to 4 threads cut the 64 chunks into groups of 8 to 32, and 3
        // threads leave a last group shorter than the others
        let s = silicon_cubic_supercell(1, 1, 1);
        let g = PwGrids::new(&s, 2.0);
        let nb = 70;
        let orb = CMat::rand_normalized(g.ng(), nb, 17);
        let occ: Vec<f64> = (0..nb).map(|i| 2.0 - i as f64 / nb as f64).collect();
        let run = |threads: usize| {
            pt_par::ThreadPool::new(threads).install(|| density_from_orbitals(&g, &orb, &occ))
        };
        let rho1 = run(1);
        for threads in [2, 3, 4] {
            let rho = run(threads);
            assert!(
                rho1.iter()
                    .zip(&rho)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{threads} threads"
            );
        }
    }
}
