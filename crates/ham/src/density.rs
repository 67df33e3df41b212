//! Electron density from a block of orbitals.
//!
//! `ρ(r) = Σ_i f_i |ψ_i(r)|²`, evaluated on the dense grid (paper §3.4:
//! band-index layout makes this embarrassingly parallel over bands followed
//! by one `MPI_Allreduce` — here one partial density per `pt-par` band
//! chunk, accumulated in chunk order).

use crate::grids::PwGrids;
use crate::scratch::SCRATCH;
use pt_linalg::CMat;
use pt_num::with_scratch;

/// Compute the density on the dense grid. `orbitals` columns are sphere
/// coefficient vectors; `occ[i]` their occupations (2.0 for closed shell).
pub fn density_from_orbitals(grids: &PwGrids, orbitals: &CMat, occ: &[f64]) -> Vec<f64> {
    assert_eq!(orbitals.nrows(), grids.ng());
    assert_eq!(orbitals.ncols(), occ.len());
    let nd = grids.n_dense();
    let nb = orbitals.ncols();
    // one partial density per band chunk, bands accumulated in index order
    // inside a chunk; the real-space orbital is per-thread scratch
    let k = pt_par::chunk_count(nb);
    let partials: Vec<Vec<f64>> = pt_par::parallel_map(k, |c| {
        let mut acc = vec![0.0f64; nd];
        with_scratch(&SCRATCH, nd, |work| {
            for i in pt_par::chunk_range(nb, k, c) {
                grids.to_real_dense(orbitals.col(i), work);
                let f = occ[i];
                for (a, z) in acc.iter_mut().zip(work.iter()) {
                    *a += f * z.norm_sqr();
                }
            }
        });
        acc
    });
    // chunk-ordered left accumulate from zero (not a pairwise tree: the
    // pinned trajectories carry this association)
    let mut rho = vec![0.0f64; nd];
    for part in &partials {
        for (x, y) in rho.iter_mut().zip(part) {
            *x += y;
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
/// against the same number.
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
        // chunk-ordered accumulate — the association no fixture reaches
        let s = silicon_cubic_supercell(1, 1, 1);
        let g = PwGrids::new(&s, 2.0);
        let nb = 70;
        let orb = CMat::rand_normalized(g.ng(), nb, 17);
        let occ: Vec<f64> = (0..nb).map(|i| 2.0 - i as f64 / nb as f64).collect();
        let run = |threads: usize| {
            pt_par::ThreadPool::new(threads).install(|| density_from_orbitals(&g, &orb, &occ))
        };
        let (rho1, rho4) = (run(1), run(4));
        assert!(rho1
            .iter()
            .zip(&rho4)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
