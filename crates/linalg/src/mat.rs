//! Column-major complex matrices and BLAS-3 style kernels.

use pt_num::c64;
use pt_num::complex::{zaxpy, zdotc_rows};
use std::fmt;

/// How an operand enters a product.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Use the matrix as stored.
    None,
    /// Use the conjugate transpose.
    ConjTrans,
}

/// Dense complex matrix, column-major (columns are contiguous — the natural
/// layout for band-index storage of wavefunctions, where each column is one
/// orbital's plane-wave coefficients).
#[derive(Clone, PartialEq)]
pub struct CMat {
    nrows: usize,
    ncols: usize,
    data: Vec<c64>,
}

impl CMat {
    /// Zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CMat {
            nrows,
            ncols,
            data: vec![c64::ZERO; nrows * ncols],
        }
    }

    /// Identity.
    pub fn eye(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = c64::ONE;
        }
        m
    }

    /// Build from a function of (row, col).
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> c64) -> Self {
        let mut m = CMat::zeros(nrows, ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Wrap an existing column-major buffer.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<c64>) -> Self {
        assert_eq!(data.len(), nrows * ncols);
        CMat { nrows, ncols, data }
    }

    /// Deterministic random block with unit-norm columns — the standard
    /// stand-in for an orbital block in tests and benchmarks. Same seed,
    /// same block.
    pub fn rand_normalized(nrows: usize, ncols: usize, seed: u64) -> Self {
        let mut rng = pt_num::rng::XorShift64::new(seed | 1);
        let mut m = CMat::from_fn(nrows, ncols, |_, _| {
            c64::new(rng.next_centered(), rng.next_centered())
        });
        for j in 0..ncols {
            let nrm = pt_num::complex::znrm2(m.col(j));
            for z in m.col_mut(j) {
                *z = z.scale(1.0 / nrm);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Raw column-major data.
    #[inline]
    pub fn data(&self) -> &[c64] {
        &self.data
    }

    /// Mutable raw data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [c64] {
        &mut self.data
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[c64] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [c64] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Conjugate transpose.
    pub fn dagger(&self) -> CMat {
        let mut out = CMat::zeros(self.ncols, self.nrows);
        for j in 0..self.ncols {
            for i in 0..self.nrows {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        pt_num::reduce::sum_f64(self.data.iter().map(|z| z.norm_sqr())).sqrt()
    }

    /// Max |A - B| entry; panics on shape mismatch.
    pub fn max_diff(&self, other: &CMat) -> f64 {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        pt_num::reduce::max_f64(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| (*a - *b).abs()),
        )
    }

    /// Hermitian deviation ‖A − A^H‖_max (for n×n matrices).
    pub fn hermiticity_error(&self) -> f64 {
        assert_eq!(self.nrows, self.ncols);
        let mut e = 0.0f64;
        for j in 0..self.ncols {
            for i in 0..=j {
                e = e.max((self[(i, j)] - self[(j, i)].conj()).abs());
            }
        }
        e
    }

    /// Scale every entry.
    pub fn scale_in_place(&mut self, s: f64) {
        for z in &mut self.data {
            *z = z.scale(s);
        }
    }
}

impl std::ops::Index<(usize, usize)> for CMat {
    type Output = c64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &c64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i + j * self.nrows]
    }
}

impl std::ops::IndexMut<(usize, usize)> for CMat {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut c64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i + j * self.nrows]
    }
}

impl fmt::Debug for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMat {}x{} [", self.nrows, self.ncols)?;
        for i in 0..self.nrows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.ncols.min(8) {
                write!(f, "{:?}  ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

/// Width (in columns) of the output panels one GEMM pool task owns:
/// roughly four panels per pool thread for load balance, at least one
/// column. Each output column is computed independently and identically
/// whatever the panel width, so this may depend on the thread count
/// without breaking bit-determinism.
fn panel_cols(ncols: usize) -> usize {
    ncols.div_ceil(4 * pt_par::current_num_threads()).max(1)
}

/// General matrix multiply `C = alpha * op(A) * op(B) + beta * C`,
/// panel-parallel over blocks of output columns (each pool task owns a
/// contiguous panel of `C`, standing in for one CUBLAS stream of §3.2).
///
/// Supported op combinations: (None, None) — rotations like `Ψ S`; and
/// (ConjTrans, None) — overlap matrices like `Ψ^H (HΨ)`. These are the two
/// shapes PWDFT needs (Alg. 3); other combinations panic.
pub fn gemm(alpha: c64, a: &CMat, opa: Op, b: &CMat, opb: Op, beta: c64, c: &mut CMat) {
    // standard complex-GEMM flops model (8·m·n·k) for §7-style attribution
    let k = match opa {
        Op::None => a.ncols,
        Op::ConjTrans => a.nrows,
    };
    pt_trace::counter_add(
        pt_trace::Counter::GemmFlops,
        8 * (c.nrows as u64) * (c.ncols as u64) * (k as u64),
    );
    let panel = panel_cols(c.ncols);
    match (opa, opb) {
        (Op::None, Op::None) => {
            assert_eq!(a.ncols, b.nrows, "gemm nn: inner dims");
            assert_eq!(c.nrows, a.nrows);
            assert_eq!(c.ncols, b.ncols);
            let m = a.nrows;
            if m == 0 {
                // zero-row output: nothing to compute
                return;
            }
            pt_par::parallel_chunks_mut(&mut c.data, m * panel, |p, cpanel| {
                for (dj, ccol) in cpanel.chunks_mut(m).enumerate() {
                    let j = p * panel + dj;
                    for z in ccol.iter_mut() {
                        *z *= beta;
                    }
                    for l in 0..a.ncols {
                        let blj = alpha * b[(l, j)];
                        if blj != c64::ZERO {
                            zaxpy(blj, a.col(l), ccol);
                        }
                    }
                }
            });
        }
        (Op::ConjTrans, Op::None) => {
            assert_eq!(a.nrows, b.nrows, "gemm cn: inner dims");
            assert_eq!(c.nrows, a.ncols);
            assert_eq!(c.ncols, b.ncols);
            let m = a.ncols;
            if m == 0 {
                return;
            }
            pt_par::parallel_chunks_mut(&mut c.data, m * panel, |p, cpanel| {
                for (dj, ccol) in cpanel.chunks_mut(m).enumerate() {
                    let bj = b.col(p * panel + dj);
                    zdotc_rows(
                        m,
                        |i| a.col(i),
                        bj,
                        |i, d| {
                            ccol[i] = ccol[i] * beta + alpha * d;
                        },
                    );
                }
            });
        }
        _ => panic!("gemm: unsupported op combination {opa:?},{opb:?}"),
    }
}

/// Hermitian rank-k update `C = alpha * A^H A + beta * C` exploiting
/// Hermitian symmetry: the upper-triangle columns are computed in parallel
/// (one pool task per column, mirroring the GEMM panel split) and then
/// mirrored.
pub fn herk(alpha: f64, a: &CMat, beta: f64, c: &mut CMat) {
    assert_eq!(c.nrows, a.ncols);
    assert_eq!(c.ncols, a.ncols);
    let n = a.ncols;
    let cols: Vec<Vec<c64>> = pt_par::parallel_map(n, |j| {
        let mut col = Vec::with_capacity(j + 1);
        zdotc_rows(
            j + 1,
            |i| a.col(i),
            a.col(j),
            |_, d| col.push(d.scale(alpha)),
        );
        col
    });
    for j in 0..n {
        for i in 0..=j {
            let v = cols[j][i] + c[(i, j)].scale(beta);
            c[(i, j)] = v;
            if i != j {
                c[(j, i)] = v.conj();
            } else {
                c[(i, j)] = c64::real(v.re); // enforce real diagonal
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_num::complex::zdotc;

    fn randm(nr: usize, nc: usize, seed: u64) -> CMat {
        let mut rng =
            pt_num::rng::XorShift64::new(seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7));
        CMat::from_fn(nr, nc, |_, _| {
            c64::new(rng.next_centered(), rng.next_centered())
        })
    }

    fn naive_mul(a: &CMat, b: &CMat) -> CMat {
        let mut c = CMat::zeros(a.nrows(), b.ncols());
        for j in 0..b.ncols() {
            for i in 0..a.nrows() {
                let mut acc = c64::ZERO;
                for l in 0..a.ncols() {
                    acc += a[(i, l)] * b[(l, j)];
                }
                c[(i, j)] = acc;
            }
        }
        c
    }

    #[test]
    fn gemm_nn_matches_naive() {
        let a = randm(13, 7, 1);
        let b = randm(7, 5, 2);
        let want = naive_mul(&a, &b);
        let mut c = CMat::zeros(13, 5);
        gemm(c64::ONE, &a, Op::None, &b, Op::None, c64::ZERO, &mut c);
        assert!(c.max_diff(&want) < 1e-12);
    }

    #[test]
    fn gemm_cn_matches_naive() {
        let a = randm(11, 4, 3);
        let b = randm(11, 6, 4);
        let want = naive_mul(&a.dagger(), &b);
        let mut c = CMat::zeros(4, 6);
        gemm(c64::ONE, &a, Op::ConjTrans, &b, Op::None, c64::ZERO, &mut c);
        assert!(c.max_diff(&want) < 1e-12);
    }

    #[test]
    fn gemm_handles_empty_extents() {
        // zero-row operands show up when a distributed rank owns no
        // sphere rows; gemm must be a no-op, not a panic
        let a0 = CMat::zeros(0, 3);
        let b0 = CMat::zeros(3, 2);
        let mut c_nn = CMat::zeros(0, 2);
        gemm(c64::ONE, &a0, Op::None, &b0, Op::None, c64::ZERO, &mut c_nn);
        let b_e = CMat::zeros(0, 2);
        let mut c_cn = CMat::zeros(3, 2);
        c_cn[(0, 0)] = c64::ONE;
        gemm(
            c64::ONE,
            &a0,
            Op::ConjTrans,
            &b_e,
            Op::None,
            c64::ZERO,
            &mut c_cn,
        );
        // empty inner dimension: beta still applied (here: zeroing)
        assert!(c_cn.data().iter().all(|z| *z == c64::ZERO));
        let a_c = CMat::zeros(4, 0);
        let b_c = CMat::zeros(4, 2);
        let mut c_0 = CMat::zeros(0, 2);
        gemm(
            c64::ONE,
            &a_c,
            Op::ConjTrans,
            &b_c,
            Op::None,
            c64::ZERO,
            &mut c_0,
        );
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = randm(6, 6, 5);
        let b = randm(6, 6, 6);
        let c0 = randm(6, 6, 7);
        let alpha = c64::new(0.5, -1.0);
        let beta = c64::new(-0.25, 0.75);
        let mut c = c0.clone();
        gemm(alpha, &a, Op::None, &b, Op::None, beta, &mut c);
        let mut want = naive_mul(&a, &b);
        for j in 0..6 {
            for i in 0..6 {
                want[(i, j)] = alpha * want[(i, j)] + beta * c0[(i, j)];
            }
        }
        assert!(c.max_diff(&want) < 1e-12);
    }

    #[test]
    fn herk_matches_gemm() {
        let a = randm(20, 5, 8);
        let mut c1 = CMat::zeros(5, 5);
        herk(2.0, &a, 0.0, &mut c1);
        let mut c2 = CMat::zeros(5, 5);
        gemm(
            c64::real(2.0),
            &a,
            Op::ConjTrans,
            &a,
            Op::None,
            c64::ZERO,
            &mut c2,
        );
        assert!(c1.max_diff(&c2) < 1e-12);
        assert!(c1.hermiticity_error() < 1e-15);
    }

    fn assert_same_bits(got: &CMat, want: &CMat, what: &str) {
        for (k, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert!(
                g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                "{what} [{k}]: {g:?} vs {w:?}"
            );
        }
    }

    #[test]
    fn four_row_cn_gemm_and_herk_repeat_the_one_row_loops_bit_for_bit() {
        // A^H B one row of A^H at a time, and herk's upper triangle the
        // same way: the loops the 4-row passes replaced, as oracles
        let alpha = c64::new(0.75, -0.5);
        let beta = c64::new(-0.25, 1.5);
        for (rows, m, n) in [
            (4usize, 4usize, 4usize),
            (37, 4, 4),
            (37, 5, 3),
            (64, 7, 9),
            (11, 1, 2),
            (300, 13, 5),
        ] {
            let a = randm(rows, m, 31 + m as u64);
            let b = randm(rows, n, 47 + n as u64);
            let c0 = randm(m, n, 53);
            let mut want = c0.clone();
            for j in 0..n {
                for i in 0..m {
                    want[(i, j)] = c0[(i, j)] * beta + alpha * zdotc(a.col(i), b.col(j));
                }
            }
            let h0 = randm(m, m, 59);
            let mut want_herk = h0.clone();
            for j in 0..m {
                for i in 0..=j {
                    let v = zdotc(a.col(i), a.col(j)).scale(0.5) + h0[(i, j)].scale(2.0);
                    want_herk[(i, j)] = if i == j { c64::real(v.re) } else { v };
                    if i != j {
                        want_herk[(j, i)] = v.conj();
                    }
                }
            }
            for threads in [1, 2, 4] {
                pt_par::ThreadPool::new(threads).install(|| {
                    let mut c = c0.clone();
                    gemm(alpha, &a, Op::ConjTrans, &b, Op::None, beta, &mut c);
                    assert_same_bits(&c, &want, &format!("cn {rows}x{m}x{n} t{threads}"));
                    let mut h = h0.clone();
                    herk(0.5, &a, 2.0, &mut h);
                    assert_same_bits(&h, &want_herk, &format!("herk {rows}x{m} t{threads}"));
                });
            }
        }
    }

    #[test]
    fn dagger_involution() {
        let a = randm(4, 9, 9);
        assert!(a.dagger().dagger().max_diff(&a) < 1e-15);
    }
}
