//! Triangular factorizations and solves.
//!
//! The PT-CN step ends with re-orthogonalization (paper §3.4): form the
//! overlap `S = Ψ^H Ψ`, Cholesky-factor it on one rank (cuSOLVER in the
//! paper), then apply `Ψ ← Ψ L^{-H}` with a triangular solve (`Trsm`).
//! [`lstsq`] solves the tiny (≤ 20 unknowns) Anderson mixing problems.

use crate::mat::CMat;
use pt_num::c64;
use pt_num::complex::zdotc_rows;

/// In-place lower Cholesky factorization `A = L L^H` of a Hermitian
/// positive-definite matrix. On return the lower triangle (incl. diagonal)
/// holds `L`; the strict upper triangle is zeroed. Panics if a pivot is not
/// positive (matrix not PD — e.g. linearly dependent orbitals).
pub fn cholesky_in_place(a: &mut CMat) {
    if let Err((j, d)) = try_cholesky_in_place(a) {
        panic!("cholesky: non-positive pivot {d:.3e} at column {j} (matrix not PD)");
    }
}

/// Fallible variant of [`cholesky_in_place`]: returns `Err((column, pivot))`
/// at the first non-positive pivot instead of panicking, so callers feeding
/// possibly rank-deficient matrices (e.g. the ACE Gram matrix of degenerate
/// orbitals) can surface a typed error. On `Err` the matrix contents are
/// unspecified (partially factored).
pub fn try_cholesky_in_place(a: &mut CMat) -> Result<(), (usize, f64)> {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "cholesky: square matrix required");
    for j in 0..n {
        // diagonal pivot
        let mut d = a[(j, j)].re;
        for k in 0..j {
            d -= a[(j, k)].norm_sqr();
        }
        // a NaN pivot (from non-finite input) must fail like a non-positive one
        if d.is_nan() || d <= 0.0 {
            return Err((j, d));
        }
        let ljj = d.sqrt();
        a[(j, j)] = c64::real(ljj);
        for i in (j + 1)..n {
            let mut v = a[(i, j)];
            for k in 0..j {
                v -= a[(i, k)] * a[(j, k)].conj();
            }
            a[(i, j)] = v / ljj;
        }
        for i in 0..j {
            a[(i, j)] = c64::ZERO;
        }
    }
    Ok(())
}

/// Solve `L y = b` with `L` lower triangular (forward substitution).
pub fn solve_lower(l: &CMat, b: &[c64]) -> Vec<c64> {
    let n = l.nrows();
    assert_eq!(b.len(), n);
    let mut y = vec![c64::ZERO; n];
    for i in 0..n {
        let mut v = b[i];
        for k in 0..i {
            v -= l[(i, k)] * y[k];
        }
        y[i] = v / l[(i, i)];
    }
    y
}

/// Solve `L^H x = y` with `L` lower triangular (back substitution on the
/// conjugate transpose).
pub fn solve_upper_conj(l: &CMat, y: &[c64]) -> Vec<c64> {
    let n = l.nrows();
    assert_eq!(y.len(), n);
    let mut x = vec![c64::ZERO; n];
    for i in (0..n).rev() {
        let mut v = y[i];
        for k in (i + 1)..n {
            v -= l[(k, i)].conj() * x[k];
        }
        x[i] = v / l[(i, i)].conj();
    }
    x
}

/// Right triangular solve `X ← X · L^{-H}` (i.e. solve `X_new · L^H = X`)
/// with `L` lower triangular. This is exactly the orthogonalization rotation
/// `Ψ ← Ψ L^{-H}` after Cholesky of the overlap matrix.
pub fn trsm_right_lh(x: &mut CMat, l: &CMat) {
    let n = l.nrows();
    assert_eq!(n, l.ncols());
    assert_eq!(x.ncols(), n, "trsm: X columns must match L order");
    let m = x.nrows();
    // (X L^H)[:,j] = Σ_{i<=j} X[:,i] conj(L[j,i]);
    // solve columns in increasing j.
    for j in 0..n {
        // subtract contributions of already-solved columns
        for i in 0..j {
            let coef = l[(j, i)].conj();
            if coef != c64::ZERO {
                // X[:,j] -= X[:,i] * coef — need split borrows
                let (lo, hi) = x.data_mut().split_at_mut(j * m);
                let xi = &lo[i * m..(i + 1) * m];
                let xj = &mut hi[..m];
                for (a, b) in xj.iter_mut().zip(xi) {
                    *a -= *b * coef;
                }
            }
        }
        let d = l[(j, j)].conj();
        for v in x.col_mut(j) {
            *v = *v / d;
        }
    }
}

/// Orthonormalize the columns of `x` in place: overlap `S = X^H X`,
/// Cholesky `S = L L^H`, then `X ← X L^{-H}` (paper §3.4). `ridge` is
/// added to the diagonal of `S` before factoring; pass 0 for exact
/// orthonormalization of a well-conditioned block, or a tiny shift
/// (e.g. 1e-12) to keep nearly linearly dependent columns factorable.
pub fn orthonormalize_columns(x: &mut CMat, ridge: f64) {
    let n = x.ncols();
    let mut s = CMat::zeros(n, n);
    crate::mat::gemm(
        c64::ONE,
        x,
        crate::mat::Op::ConjTrans,
        x,
        crate::mat::Op::None,
        c64::ZERO,
        &mut s,
    );
    if ridge != 0.0 {
        for i in 0..n {
            s[(i, i)] += c64::real(ridge);
        }
    }
    cholesky_in_place(&mut s);
    trsm_right_lh(x, &s);
}

/// Least squares `min_x ‖A x − b‖₂` via regularized normal equations
/// `(A^H A + ridge·I) x = A^H b`.
///
/// Used for Anderson mixing (history ≤ 20, so normal equations are cheap
/// and the ridge keeps nearly linearly dependent histories harmless —
/// PWDFT does the same with its up-to-20-deep mixing memory).
pub fn lstsq(a: &CMat, b: &[c64], ridge: f64) -> Vec<c64> {
    let k = a.ncols();
    assert_eq!(a.nrows(), b.len());
    let mut g = CMat::zeros(k, k);
    crate::mat::gemm(
        c64::ONE,
        a,
        crate::mat::Op::ConjTrans,
        a,
        crate::mat::Op::None,
        c64::ZERO,
        &mut g,
    );
    // scale-aware ridge
    let trace: f64 = pt_num::reduce::sum_f64((0..k).map(|i| g[(i, i)].re));
    let eps = ridge * (trace / k.max(1) as f64).max(1e-300);
    for i in 0..k {
        g[(i, i)] += c64::real(eps);
    }
    let mut rhs = vec![c64::ZERO; k];
    zdotc_rows(k, |i| a.col(i), b, |i, d| rhs[i] = d);
    cholesky_in_place(&mut g);
    let y = solve_lower(&g, &rhs);
    solve_upper_conj(&g, &y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::{gemm, Op};
    use pt_num::complex::zdotc;

    fn randm(nr: usize, nc: usize, seed: u64) -> CMat {
        let mut rng = pt_num::rng::XorShift64::new(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        CMat::from_fn(nr, nc, |_, _| {
            c64::new(rng.next_centered(), rng.next_centered())
        })
    }

    fn rand_hpd(n: usize, seed: u64) -> CMat {
        let a = randm(n + 3, n, seed);
        let mut g = CMat::zeros(n, n);
        gemm(c64::ONE, &a, Op::ConjTrans, &a, Op::None, c64::ZERO, &mut g);
        for i in 0..n {
            g[(i, i)] += c64::real(0.5);
        }
        g
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = rand_hpd(7, 11);
        let mut l = a.clone();
        cholesky_in_place(&mut l);
        // L L^H == A
        let lh = l.dagger();
        let mut back = CMat::zeros(7, 7);
        gemm(c64::ONE, &l, Op::None, &lh, Op::None, c64::ZERO, &mut back);
        assert!(back.max_diff(&a) < 1e-11, "diff {}", back.max_diff(&a));
    }

    #[test]
    #[should_panic(expected = "non-positive pivot")]
    fn cholesky_rejects_indefinite() {
        let mut a = CMat::eye(3);
        a[(2, 2)] = c64::real(-1.0);
        cholesky_in_place(&mut a);
    }

    #[test]
    fn try_cholesky_reports_column_and_pivot() {
        let mut a = CMat::eye(3);
        a[(2, 2)] = c64::real(-1.5);
        let (j, d) = try_cholesky_in_place(&mut a).unwrap_err();
        assert_eq!(j, 2);
        assert!((d + 1.5).abs() < 1e-12, "pivot {d}");
        // a PD matrix still factors through the fallible path
        let good = rand_hpd(5, 17);
        let mut l = good.clone();
        try_cholesky_in_place(&mut l).unwrap();
        let lh = l.dagger();
        let mut back = CMat::zeros(5, 5);
        gemm(c64::ONE, &l, Op::None, &lh, Op::None, c64::ZERO, &mut back);
        assert!(back.max_diff(&good) < 1e-11);
    }

    #[test]
    fn triangular_solves_invert() {
        let a = rand_hpd(6, 5);
        let mut l = a.clone();
        cholesky_in_place(&mut l);
        let b: Vec<c64> = (0..6)
            .map(|i| c64::new(i as f64 + 0.5, -(i as f64)))
            .collect();
        let y = solve_lower(&l, &b);
        let x = solve_upper_conj(&l, &y);
        // A x should equal b
        let xm = CMat::from_vec(6, 1, x);
        let mut ax = CMat::zeros(6, 1);
        gemm(c64::ONE, &a, Op::None, &xm, Op::None, c64::ZERO, &mut ax);
        for i in 0..6 {
            assert!((ax[(i, 0)] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn trsm_orthogonalizes() {
        // Ψ ← Ψ L^{-H} with S = Ψ^H Ψ = L L^H must give Ψ^H Ψ = I
        let mut psi = randm(40, 6, 21);
        orthonormalize_columns(&mut psi, 0.0);
        let mut id = CMat::zeros(6, 6);
        gemm(
            c64::ONE,
            &psi,
            Op::ConjTrans,
            &psi,
            Op::None,
            c64::ZERO,
            &mut id,
        );
        assert!(
            id.max_diff(&CMat::eye(6)) < 1e-11,
            "{}",
            id.max_diff(&CMat::eye(6))
        );
    }

    #[test]
    fn ridge_keeps_nearly_dependent_columns_factorable() {
        // two almost-parallel columns: exact Cholesky of the overlap is on
        // the edge of a non-positive pivot; the ridge keeps it factorable
        let base = randm(40, 1, 33);
        let mut x = CMat::zeros(40, 2);
        for i in 0..40 {
            x[(i, 0)] = base[(i, 0)];
            x[(i, 1)] = base[(i, 0)].scale(1.0 + 1e-9) + c64::new(1e-9 * (i as f64), 0.0);
        }
        orthonormalize_columns(&mut x, 1e-12);
        for j in 0..2 {
            let nrm = pt_num::complex::znrm2(x.col(j));
            assert!(nrm.is_finite() && nrm > 0.0);
        }
    }

    #[test]
    fn lstsq_exact_on_consistent_system() {
        let a = randm(10, 4, 31);
        let xtrue: Vec<c64> = (0..4)
            .map(|i| c64::new(1.0 + i as f64, -0.5 * i as f64))
            .collect();
        let xm = CMat::from_vec(4, 1, xtrue.clone());
        let mut bm = CMat::zeros(10, 1);
        gemm(c64::ONE, &a, Op::None, &xm, Op::None, c64::ZERO, &mut bm);
        let x = lstsq(&a, bm.col(0), 0.0);
        for i in 0..4 {
            assert!(
                (x[i] - xtrue[i]).abs() < 1e-9,
                "{:?} vs {:?}",
                x[i],
                xtrue[i]
            );
        }
    }

    #[test]
    fn lstsq_ridge_handles_dependent_columns() {
        // two identical columns: without a ridge the normal equations are
        // singular; with it the solve must not panic and must fit b.
        let mut a = randm(8, 2, 41);
        let c0: Vec<c64> = a.col(0).to_vec();
        a.col_mut(1).copy_from_slice(&c0);
        let b: Vec<c64> = a.col(0).to_vec();
        let x = lstsq(&a, &b, 1e-10);
        // residual should be ~0: x0 + x1 ≈ 1
        let s = x[0] + x[1];
        assert!((s - c64::ONE).abs() < 1e-4, "{s:?}");
    }

    #[test]
    fn lstsq_repeats_its_one_column_right_hand_side_bit_for_bit() {
        // history depths 1-9 (remainders 0-3 of the 4-wide pass) over a
        // short and a sphere-sized vector; the oracle is the solve with
        // its right-hand side one column of A at a time
        for rows in [37usize, 292] {
            for k in 1..=9 {
                let a = randm(rows, k, 71 + k as u64);
                let b = randm(rows, 1, 73).col(0).to_vec();
                let mut g = CMat::zeros(k, k);
                gemm(c64::ONE, &a, Op::ConjTrans, &a, Op::None, c64::ZERO, &mut g);
                let trace: f64 = pt_num::reduce::sum_f64((0..k).map(|i| g[(i, i)].re));
                let eps = 1e-12 * (trace / k as f64).max(1e-300);
                for i in 0..k {
                    g[(i, i)] += c64::real(eps);
                }
                let rhs: Vec<c64> = (0..k).map(|i| zdotc(a.col(i), &b)).collect();
                cholesky_in_place(&mut g);
                let want = solve_upper_conj(&g, &solve_lower(&g, &rhs));
                let got = lstsq(&a, &b, 1e-12);
                for (i, (x, y)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                        "rows={rows} k={k} [{i}]: {x:?} vs {y:?}"
                    );
                }
            }
        }
    }
}
