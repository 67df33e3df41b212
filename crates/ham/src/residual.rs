//! The PT fixed-point residual of Alg. 3 on the driver's replicated
//! blocks. The paper distributes it because on Summit Ψ is stored by band
//! across ranks; here the driver already holds Ψ_f, H_f Ψ_f and Ψ_{n+1/2}
//! for the mixer, so it runs in process on every layout, on the calling
//! thread's pool (a system's `layout.cores()`-wide pool).

use pt_linalg::{gemm, CMat, Op};
use pt_num::c64;
use pt_num::complex::zdotc;

/// Row height of one overlap chunk. The grid depends on `ng` alone, never
/// on the thread count, so the grouping of the sums that assemble
/// `S = Ψ_f^H (H_f Ψ_f)` — and the residual's bits — are the same on
/// every pool width.
pub const OVERLAP_CHUNK_ROWS: usize = 64;

/// Per-chunk overlap partials `T_c = A[c]^H B[c]`, flattened in ascending
/// chunk order (`nb × nb` values each): each a fixed sequential dot
/// product over its chunk's rows and one pool task.
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

/// Lines 4-5 of Alg. 3: the rotation `Ψ_f S` and
/// `R_f = Ψ_f + i·dt/2·(H_f Ψ_f − Ψ_f S) − Ψ_{n+1/2}`, one column per
/// pool task (every element is computed independently).
fn assemble_residual(psi_f: &CMat, hpsi_f: &CMat, psi_half: &CMat, s: Vec<c64>, dt: f64) -> CMat {
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
/// `R_f = Ψ_f + i·dt/2·(H_f Ψ_f − Ψ_f (Ψ_f^H H_f Ψ_f)) − Ψ_{n+1/2}`:
/// the chunk partials, their ascending fold from zero and the assembly.
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

#[cfg(test)]
mod tests {
    use super::*;
    use pt_par::ThreadPool;

    /// Random blocks of any (ng, nb) extent plus the PT residual written
    /// as plain GEMM algebra — the independent reference the chunked
    /// evaluation is held to (to rounding, not bits).
    fn gemm_residual(ng: usize, nb: usize, seeds: [u64; 3], dt: f64) -> [CMat; 4] {
        let psi = CMat::rand_normalized(ng, nb, seeds[0]);
        let hpsi = CMat::rand_normalized(ng, nb, seeds[1]);
        let half = CMat::rand_normalized(ng, nb, seeds[2]);
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
        [psi, hpsi, half, want]
    }

    #[test]
    fn pt_residual_is_the_gemm_algebra_with_the_same_bits_on_every_pool_width() {
        // sizes that straddle chunk boundaries unevenly, fewer rows than a
        // chunk, fewer rows than bands, and the 1 × 1 block
        let dt = 0.7;
        for (ng, nb) in [
            (200usize, 5usize),
            (64, 3),
            (65, 2),
            (700, 4),
            (3, 2),
            (8, 2),
            (5, 7),
            (1, 1),
        ] {
            let [psi, hpsi, half, algebra] = gemm_residual(ng, nb, [61, 62, 63], dt);
            let at = |threads: usize| {
                ThreadPool::new(threads).install(|| pt_residual(&psi, &hpsi, &half, dt))
            };
            let want = at(1);
            let err = want.max_diff(&algebra);
            assert!(err < 1e-11, "ng={ng} nb={nb}: vs GEMM algebra {err}");
            for threads in 2..=4 {
                let got = at(threads);
                for (i, (x, y)) in want.data().iter().zip(got.data()).enumerate() {
                    assert!(
                        x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                        "ng={ng} nb={nb} threads={threads} [{i}]: {x:?} vs {y:?}"
                    );
                }
            }
        }
    }
}
