//! Hermitian eigensolver: Householder tridiagonalization, then implicit-
//! shift QL on the real tridiagonal.
//!
//! PWDFT's subspace problems are small — `N_e × N_e` Rayleigh–Ritz and
//! overlap matrices in the ground-state solver — and each is one dense
//! O(n³) pass, in five stages:
//!
//! 1. **Tridiagonalize.** Hermitian reflectors `H_k = I − τ_k v_k v_kᴴ`
//!    (τ_k real, `v_k[0] = 1`) reduce the lower triangle column by column,
//!    `A ← H_k A H_k`, with the rank-2 trailing update `A −= v wᴴ + w vᴴ`
//!    applied a column at a time. `v_k` is kept below the subdiagonal of
//!    the work matrix. A column that is already zero below its subdiagonal
//!    takes no reflector. `Q = H_0 H_1 ⋯` gives `Qᴴ A Q = T`.
//! 2. **Make T real.** The subdiagonal `e_k` is complex; the unit phases
//!    `δ_0 = 1, δ_{k+1} = δ_k e_k/|e_k|` make `Dᴴ T D` real with
//!    subdiagonal `|e_k|`.
//! 3. **QL.** EISPACK `tql2`: implicit Wilkinson-shifted QL sweeps deflate
//!    one eigenvalue at a time, each rotation accumulated into a real `Z`
//!    on two contiguous columns. An eigenvalue gets at most
//!    [`MAX_QL_ITERATIONS`] sweeps.
//! 4. **Back-transform** `V = Q·D·Z`, reflectors applied last to first.
//! 5. **Sort** ascending with `total_cmp`.
//!
//! The input is first scaled by the power of two that brings its largest
//! entry into [1, 2): exact, and no square in a norm or shift can then
//! overflow or underflow, whatever the input's scale.
//! Non-finite input has no eigenpairs: every eigenvalue and eigenvector
//! entry comes back NaN, at once.

use crate::mat::CMat;
use pt_num::c64;
use pt_num::complex::{zaxpy, zdotc};

/// QL sweeps one eigenvalue may take (EISPACK's bound; 1–3 is typical).
/// Exhausting it on finite input gives the non-finite result.
const MAX_QL_ITERATIONS: usize = 30;

/// Eigendecomposition of a Hermitian matrix: returns `(eigenvalues
/// ascending, eigenvectors as columns)` with `A ≈ V diag(λ) V^H`.
///
/// The input is symmetrized (`(A + A^H)/2`) first, so tiny Hermiticity
/// violations from accumulated roundoff are tolerated. A matrix with a NaN
/// or infinite entry returns NaN eigenvalues and eigenvectors.
pub fn eigh(a: &CMat) -> (Vec<f64>, CMat) {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "eigh: square matrix required");
    let nan = || {
        let z = c64::new(f64::NAN, f64::NAN);
        (vec![f64::NAN; n], CMat::from_vec(n, n, vec![z; n * n]))
    };
    // lower triangle of (A + A^H)/2; the upper one is never read
    let mut w = CMat::zeros(n, n);
    let mut amax = 0.0f64;
    for j in 0..n {
        for i in j..n {
            let z = (a[(i, j)] + a[(j, i)].conj()).scale(0.5);
            if !z.is_finite() {
                return nan();
            }
            amax = amax.max(z.re.abs()).max(z.im.abs());
            w[(i, j)] = z;
        }
    }
    let scale = if amax > 0.0 {
        2f64.powi(-(amax.log2().floor().clamp(-1000.0, 1000.0) as i32))
    } else {
        1.0
    };
    w.scale_in_place(scale);

    let (mut d, e, tau) = tridiagonalize(&mut w);
    // D^H T D real: δ_{k+1} = δ_k e_k/|e_k|
    let mut delta = vec![c64::ONE; n];
    let mut off = vec![0.0; n];
    for k in 0..n.saturating_sub(1) {
        off[k] = e[k].abs();
        delta[k + 1] = if off[k] > 0.0 {
            delta[k] * e[k].scale(1.0 / off[k])
        } else {
            delta[k]
        };
    }
    let mut z = vec![0.0; n * n];
    for zii in z.iter_mut().step_by(n + 1) {
        *zii = 1.0;
    }
    if !tql2(&mut d, &mut off, &mut z) {
        return nan();
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&p, &q| d[p].total_cmp(&d[q]));
    let lam: Vec<f64> = order.iter().map(|&j| d[j] / scale).collect();
    // V = Q·D·Z in ascending order, held transposed: row i of V is a
    // contiguous column, so a reflector is two passes of row axpys
    let mut vt = CMat::zeros(n, n);
    for (i, di) in delta.iter().enumerate() {
        for (vji, &old_j) in vt.col_mut(i).iter_mut().zip(&order) {
            *vji = di.scale(z[old_j * n + i]);
        }
    }
    let mut s = vec![c64::ZERO; n];
    for k in (0..n.saturating_sub(1)).rev() {
        if tau[k] == 0.0 {
            continue;
        }
        // s = vᴴ V[k+1.., :], then V[k+1.., :] −= τ v s
        let refl = &w.col(k)[k + 1..];
        s.fill(c64::ZERO);
        for (i, vi) in refl.iter().enumerate() {
            zaxpy(vi.conj(), vt.col(k + 1 + i), &mut s);
        }
        for (i, vi) in refl.iter().enumerate() {
            zaxpy(vi.scale(-tau[k]), &s, vt.col_mut(k + 1 + i));
        }
    }
    (lam, CMat::from_fn(n, n, |i, j| vt[(j, i)]))
}

/// Reduce the Hermitian matrix whose lower triangle is `w` to tridiagonal
/// form: returns its diagonal, its complex subdiagonal `e[k] = T[k+1, k]`
/// and the reflector scalars τ; reflector `k` is left in `w[k+1.., k]`
/// (leading 1 included).
fn tridiagonalize(w: &mut CMat) -> (Vec<f64>, Vec<c64>, Vec<f64>) {
    let n = w.nrows();
    let mut e = vec![c64::ZERO; n];
    let mut tau = vec![0.0; n];
    let mut p = vec![c64::ZERO; n];
    for k in 0..n.saturating_sub(1) {
        let (head, trail) = w.data_mut().split_at_mut((k + 1) * n);
        let x = &mut head[k * n + k + 1..];
        let alpha = x[0];
        let mut tail2 = 0.0;
        for z in &x[1..] {
            tail2 += z.norm_sqr();
        }
        if tail2 == 0.0 {
            // already tridiagonal in this column: no reflector
            e[k] = alpha;
            continue;
        }
        // H x = β e_1 with β = −e^{i arg α}‖x‖; v = (x − β e_1)/(α − β)
        let xnorm = (alpha.norm_sqr() + tail2).sqrt();
        let aabs = alpha.abs();
        let phase = if aabs > 0.0 {
            alpha.scale(1.0 / aabs)
        } else {
            c64::ONE
        };
        e[k] = -phase.scale(xnorm);
        let inv = phase.conj().scale(1.0 / (aabs + xnorm));
        for z in &mut x[1..] {
            *z *= inv;
        }
        x[0] = c64::ONE;
        let t = 1.0 + aabs / xnorm;
        tau[k] = t;
        let v: &[c64] = x;
        let m = v.len();

        // p = τ A₂₂ v from the lower triangle, one pass per column
        let p = &mut p[..m];
        p.fill(c64::ZERO);
        for (jj, col) in trail.chunks_exact(n).enumerate() {
            let a = &col[k + 1 + jj..];
            let vj = v[jj];
            let mut dot = vj.scale(a[0].re);
            for ((pi, ai), vi) in p[jj + 1..].iter_mut().zip(&a[1..]).zip(&v[jj + 1..]) {
                *pi = pi.mul_add(vj, *ai);
                dot = dot.mul_add(ai.conj(), *vi);
            }
            p[jj] += dot;
        }
        // w = p − (τ/2)(vᴴp) v, in place
        for pi in p.iter_mut() {
            *pi = pi.scale(t);
        }
        let half = zdotc(v, p).scale(-0.5 * t);
        zaxpy(half, v, p);
        // A₂₂ −= v wᴴ + w vᴴ on the lower triangle
        for (jj, col) in trail.chunks_exact_mut(n).enumerate() {
            let (cw, cv) = (p[jj].conj(), v[jj].conj());
            for ((ai, vi), wi) in col[k + 1 + jj..].iter_mut().zip(&v[jj..]).zip(&p[jj..]) {
                *ai -= *vi * cw + *wi * cv;
            }
        }
    }
    let d = (0..n).map(|i| w[(i, i)].re).collect();
    (d, e, tau)
}

/// EISPACK `tql2`: eigenvalues of the real symmetric tridiagonal with
/// diagonal `d` and subdiagonal `off[k] = T[k+1, k]` (`off[n-1]` unused)
/// into `d`, rotations accumulated into the column-major `z`. False when
/// an eigenvalue exhausts [`MAX_QL_ITERATIONS`].
fn tql2(d: &mut [f64], off: &mut [f64], z: &mut [f64]) -> bool {
    let n = d.len();
    if n == 0 {
        return true;
    }
    off[n - 1] = 0.0;
    let mut f = 0.0;
    let mut tst1 = 0.0f64;
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + off[l].abs());
        // the first negligible subdiagonal entry at or after l splits T
        let mut m = l;
        while m + 1 < n && off[m].abs() > f64::EPSILON * tst1 {
            m += 1;
        }
        let mut iter = 0;
        while m > l && off[l].abs() > f64::EPSILON * tst1 {
            iter += 1;
            if iter > MAX_QL_ITERATIONS {
                return false;
            }
            // Wilkinson shift from the leading 2×2 of the block
            let g = d[l];
            let mut p = (d[l + 1] - g) / (2.0 * off[l]);
            let r = if p < 0.0 { -p.hypot(1.0) } else { p.hypot(1.0) };
            d[l] = off[l] / (p + r);
            d[l + 1] = off[l] * (p + r);
            let dl1 = d[l + 1];
            let h = g - d[l];
            for di in &mut d[l + 2..] {
                *di -= h;
            }
            f += h;
            // one implicit QL sweep from m up to l
            p = d[m];
            let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
            let el1 = off[l + 1];
            let (mut s, mut s2) = (0.0, 0.0);
            for i in (l..m).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                let g = c * off[i];
                let h = c * p;
                let r = p.hypot(off[i]);
                off[i + 1] = s * r;
                s = off[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                let (zl, zr) = z.split_at_mut((i + 1) * n);
                for (a, b) in zl[i * n..].iter_mut().zip(&mut zr[..n]) {
                    let zb = *b;
                    *b = s * *a + c * zb;
                    *a = c * *a - s * zb;
                }
            }
            p = -s * s2 * c3 * el1 * off[l] / dl1;
            off[l] = s * p;
            d[l] = c * p;
        }
        d[l] += f;
        off[l] = 0.0;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::{gemm, Op};
    use proptest::prelude::*;

    fn rand_herm(n: usize, seed: u64) -> CMat {
        let mut rng = pt_num::rng::XorShift64::new(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let raw = CMat::from_fn(n, n, |_, _| {
            c64::new(rng.next_centered(), rng.next_centered())
        });
        let mut h = CMat::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                h[(i, j)] = (raw[(i, j)] + raw[(j, i)].conj()).scale(0.5);
            }
        }
        h
    }

    /// A random unitary: the eigenvectors of a random Hermitian matrix.
    fn rand_unitary(n: usize, seed: u64) -> CMat {
        eigh(&rand_herm(n, seed)).1
    }

    /// `U diag(λ) Uᴴ`.
    fn with_spectrum(u: &CMat, lam: &[f64]) -> CMat {
        let n = lam.len();
        let mut ul = u.clone();
        for (j, l) in lam.iter().enumerate() {
            for z in ul.col_mut(j) {
                *z = z.scale(*l);
            }
        }
        let mut a = CMat::zeros(n, n);
        gemm(
            c64::ONE,
            &ul,
            Op::None,
            &u.dagger(),
            Op::None,
            c64::ZERO,
            &mut a,
        );
        a
    }

    /// `(‖AV − VΛ‖_F, ‖VᴴV − I‖_F)` of a decomposition of Hermitian `a`.
    fn residuals(a: &CMat, lam: &[f64], v: &CMat) -> (f64, f64) {
        let n = lam.len();
        let mut av = CMat::zeros(n, n);
        gemm(c64::ONE, a, Op::None, v, Op::None, c64::ZERO, &mut av);
        for (j, l) in lam.iter().enumerate() {
            for (r, vi) in av.col_mut(j).iter_mut().zip(v.col(j)) {
                *r -= vi.scale(*l);
            }
        }
        let mut vhv = CMat::zeros(n, n);
        gemm(c64::ONE, v, Op::ConjTrans, v, Op::None, c64::ZERO, &mut vhv);
        for i in 0..n {
            vhv[(i, i)] -= c64::ONE;
        }
        (av.norm_fro(), vhv.norm_fro())
    }

    /// The battery's acceptance bound: both residuals within
    /// 1e-12·(1 + ‖A‖_F), eigenvalues finite and ascending.
    fn assert_decomposes(a: &CMat, what: &str) -> (Vec<f64>, CMat) {
        let (lam, v) = eigh(a);
        assert!(lam.iter().all(|l| l.is_finite()), "{what}: {lam:?}");
        assert!(
            lam.windows(2).all(|p| p[0] <= p[1]),
            "{what}: not ascending"
        );
        let bound = 1e-12 * (1.0 + a.norm_fro());
        let (res, orth) = residuals(a, &lam, &v);
        assert!(res <= bound, "{what}: ‖AV − VΛ‖ = {res:e} > {bound:e}");
        assert!(orth <= 1e-12, "{what}: ‖VᴴV − I‖ = {orth:e}");
        (lam, v)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_hermitian_matrices_decompose(n in 1usize..97, seed in 0u64..1_000_000) {
            assert_decomposes(&rand_herm(n, seed), &format!("n={n} seed={seed}"));
        }

        // the power-of-two prescale makes a norm of 1e±150 the same problem
        #[test]
        fn extreme_norms_decompose(n in 1usize..41, seed in 0u64..1_000_000) {
            for s in [1e150, 1e-150] {
                let mut a = rand_herm(n, seed);
                a.scale_in_place(s);
                let (lam, v) = eigh(&a);
                let (res, orth) = residuals(&a, &lam, &v);
                prop_assert!(res <= 1e-12 * a.norm_fro(), "n={n} scale {s:e}: {res:e}");
                prop_assert!(orth <= 1e-12, "n={n} scale {s:e}: {orth:e}");
            }
        }
    }

    #[test]
    fn diagonal_input_has_unit_vector_eigenvectors_exactly() {
        let diag = [3.0, -1.0, 2.0, 0.5, -7.25];
        let mut d = CMat::zeros(5, 5);
        for (i, val) in diag.into_iter().enumerate() {
            d[(i, i)] = c64::real(val);
        }
        let (lam, v) = eigh(&d);
        assert_eq!(lam, [-7.25, -1.0, 0.5, 2.0, 3.0]);
        for (j, l) in lam.iter().enumerate() {
            let src = diag.iter().position(|x| x == l).unwrap();
            for i in 0..5 {
                let want = if i == src { c64::ONE } else { c64::ZERO };
                assert_eq!(v[(i, j)], want, "column {j}");
            }
        }
        // zero matrix: eigenvalues 0, eigenvectors I, no division by zero
        let (lam, v) = eigh(&CMat::zeros(6, 6));
        assert_eq!(lam, [0.0; 6]);
        assert!(v == CMat::eye(6));
    }

    #[test]
    fn structured_inputs_take_the_deflation_branches() {
        let n = 12;
        // complex tridiagonal: every column skips its reflector
        let mut tri = CMat::zeros(n, n);
        for i in 0..n {
            tri[(i, i)] = c64::real(i as f64 * 0.3 - 1.0);
            if i + 1 < n {
                let e = c64::new(0.5, (i as f64 - 4.0) * 0.2);
                tri[(i + 1, i)] = e;
                tri[(i, i + 1)] = e.conj();
            }
        }
        assert_decomposes(&tri, "tridiagonal");
        // two decoupled blocks: an exact zero mid-subdiagonal
        let mut blocks = CMat::zeros(n, n);
        for (off, seed) in [(0, 3), (5, 4)] {
            let b = rand_herm(if off == 0 { 5 } else { n - 5 }, seed);
            for j in 0..b.ncols() {
                for i in 0..b.nrows() {
                    blocks[(off + i, off + j)] = b[(i, j)];
                }
            }
        }
        assert_decomposes(&blocks, "block-diagonal");
        // rank 1: u uᴴ has ‖u‖² once and 0 eleven times
        let u = CMat::from_fn(n, 1, |i, _| c64::new(1.0 + i as f64, 0.5 - i as f64));
        let mut uu = CMat::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                uu[(i, j)] = u[(i, 0)] * u[(j, 0)].conj();
            }
        }
        let (lam, _) = assert_decomposes(&uu, "rank 1");
        let u2: f64 = (0..n).map(|i| u[(i, 0)].norm_sqr()).sum();
        assert!((lam[n - 1] - u2).abs() < 1e-12 * u2);
        assert!(lam[..n - 1].iter().all(|l| l.abs() < 1e-12 * u2));
        // a 6-fold degenerate shell between two simple levels
        let spectrum = [-2.0, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 1.5, 3.0, 3.5, 4.0, 9.0];
        let shell = with_spectrum(&rand_unitary(n, 9), &spectrum);
        let (lam, _) = assert_decomposes(&shell, "degenerate shell");
        for (got, want) in lam.iter().zip(spectrum) {
            assert!((got - want).abs() < 1e-13, "{got} vs {want}");
        }
    }

    #[test]
    fn one_by_one_and_two_by_two() {
        // the imaginary part of a 1×1 "Hermitian" input is symmetrized away
        let (lam, v) = eigh(&CMat::from_vec(1, 1, vec![c64::new(-2.5, 0.25)]));
        assert_eq!((lam, v[(0, 0)]), (vec![-2.5], c64::ONE));
        // H = [[1, i], [-i, 1]] has eigenvalues 0 and 2
        let h = CMat::from_vec(2, 2, vec![c64::ONE, -c64::I, c64::I, c64::ONE]);
        let (lam, _) = assert_decomposes(&h, "2x2");
        assert!(lam[0].abs() < 1e-14 && (lam[1] - 2.0).abs() < 1e-14);
        assert!(eigh(&CMat::zeros(0, 0)).0.is_empty());
    }

    #[test]
    fn trace_and_frobenius_preserved() {
        let n = 9;
        let h = rand_herm(n, 77);
        let (lam, _) = eigh(&h);
        let tr: f64 = (0..n).map(|i| h[(i, i)].re).sum();
        let tr_l: f64 = lam.iter().sum();
        assert!((tr - tr_l).abs() < 1e-11);
        let fro2: f64 = h.data().iter().map(|z| z.norm_sqr()).sum();
        let fro2_l: f64 = lam.iter().map(|l| l * l).sum();
        assert!((fro2 - fro2_l).abs() < 1e-10 * (1.0 + fro2));
    }

    #[test]
    fn non_finite_input_returns_nan_without_panicking() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = rand_herm(8, 5);
            a[(3, 6)] = c64::new(bad, 0.0);
            let (lam, v) = eigh(&a);
            assert_eq!(lam.len(), 8);
            assert!(lam.iter().all(|l| l.is_nan()), "{bad}");
            assert!(v.data().iter().all(|z| z.is_nan()), "{bad}");
        }
    }
}
