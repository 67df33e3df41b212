//! Complex scalar types.
//!
//! [`c64`] is a plain `#[repr(C)]` pair of `f64` with the arithmetic the
//! plane-wave stack needs. We deliberately implement it ourselves rather
//! than pulling `num-complex`: the operation set is small, we control
//! inlining, and the layout guarantee lets the FFT reinterpret buffers
//! safely.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Double-precision complex number (the workhorse scalar).
#[allow(
    non_camel_case_types,
    reason = "lowercase like the primitive f64 it is made of"
)]
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct c64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl c64 {
    /// Zero.
    pub const ZERO: c64 = c64 { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: c64 = c64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: c64 = c64 { re: 0.0, im: 1.0 };

    /// Build from real and imaginary parts.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        c64 { re, im }
    }

    /// Purely real value.
    #[inline(always)]
    pub const fn real(re: f64) -> Self {
        c64 { re, im: 0.0 }
    }

    /// `exp(i theta)` — a point on the unit circle.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        c64 { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        c64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `|z|^2`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        c64 {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Scale by a real factor.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        c64 {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Complex exponential `exp(z)`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        c64::cis(self.im).scale(r)
    }

    /// `self * i` without a full complex multiply.
    #[inline(always)]
    pub fn mul_i(self) -> Self {
        c64 {
            re: -self.im,
            im: self.re,
        }
    }

    /// `self * (-i)` without a full complex multiply.
    #[inline(always)]
    pub fn mul_neg_i(self) -> Self {
        c64 {
            re: self.im,
            im: -self.re,
        }
    }

    /// Fused multiply-add: `self + a * b`.
    #[inline(always)]
    pub fn mul_add(self, a: c64, b: c64) -> Self {
        c64 {
            re: self.re + a.re * b.re - a.im * b.im,
            im: self.im + a.re * b.im + a.im * b.re,
        }
    }

    /// True if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// True if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        if r == 0.0 {
            return c64::ZERO;
        }
        let theta = self.arg() * 0.5;
        c64::cis(theta).scale(r.sqrt())
    }
}

impl fmt::Debug for c64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl fmt::Display for c64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for c64 {
    type Output = c64;
    #[inline(always)]
    fn add(self, o: c64) -> c64 {
        c64 {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
}

impl Sub for c64 {
    type Output = c64;
    #[inline(always)]
    fn sub(self, o: c64) -> c64 {
        c64 {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

impl Mul for c64 {
    type Output = c64;
    #[inline(always)]
    fn mul(self, o: c64) -> c64 {
        c64 {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

impl Div for c64 {
    type Output = c64;
    #[inline]
    #[allow(
        clippy::suspicious_arithmetic_impl,
        reason = "z / w computed as z * w^{-1}"
    )]
    fn div(self, o: c64) -> c64 {
        self * o.inv()
    }
}

impl Neg for c64 {
    type Output = c64;
    #[inline(always)]
    fn neg(self) -> c64 {
        c64 {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl Mul<f64> for c64 {
    type Output = c64;
    #[inline(always)]
    fn mul(self, s: f64) -> c64 {
        self.scale(s)
    }
}

impl Mul<c64> for f64 {
    type Output = c64;
    #[inline(always)]
    fn mul(self, z: c64) -> c64 {
        z.scale(self)
    }
}

impl Div<f64> for c64 {
    type Output = c64;
    #[inline(always)]
    fn div(self, s: f64) -> c64 {
        c64 {
            re: self.re / s,
            im: self.im / s,
        }
    }
}

impl AddAssign for c64 {
    #[inline(always)]
    fn add_assign(&mut self, o: c64) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl SubAssign for c64 {
    #[inline(always)]
    fn sub_assign(&mut self, o: c64) {
        self.re -= o.re;
        self.im -= o.im;
    }
}

impl MulAssign for c64 {
    #[inline(always)]
    fn mul_assign(&mut self, o: c64) {
        *self = *self * o;
    }
}

impl MulAssign<f64> for c64 {
    #[inline(always)]
    fn mul_assign(&mut self, s: f64) {
        self.re *= s;
        self.im *= s;
    }
}

impl DivAssign<f64> for c64 {
    #[inline(always)]
    fn div_assign(&mut self, s: f64) {
        self.re /= s;
        self.im /= s;
    }
}

impl Sum for c64 {
    fn sum<I: Iterator<Item = c64>>(iter: I) -> c64 {
        crate::reduce::sum_c64(iter)
    }
}

impl From<f64> for c64 {
    #[inline(always)]
    fn from(re: f64) -> c64 {
        c64::real(re)
    }
}

/// Conjugated dot product `sum_k conj(a_k) b_k` of two equal-length slices.
#[inline]
pub fn zdotc(a: &[c64], b: &[c64]) -> c64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = c64::ZERO;
    for (x, y) in a.iter().zip(b) {
        acc = acc.mul_add(x.conj(), *y);
    }
    acc
}

/// `y += alpha * x` over slices.
#[inline]
pub fn zaxpy(alpha: c64, x: &[c64], y: &mut [c64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = yi.mul_add(alpha, *xi);
    }
}

/// Four conjugated dot products against one shared operand,
/// `[zdotc(a[0], b), …, zdotc(a[3], b)]`, bit for bit.
///
/// [`zdotc`] is one dependent add chain: every element waits on the
/// previous one's two rounded adds. Here the four chains are independent
/// and run interleaved in one pass over `b`; each lane is still
/// `c64::mul_add` in element order, so nothing but the wait moves. No FMA:
/// a fused rounding would move bits.
#[inline]
pub fn zdotc_x4(a: [&[c64]; 4], b: &[c64]) -> [c64; 4] {
    debug_assert!(a.iter().all(|row| row.len() == b.len()));
    // cut to `b`'s length so the indexing below needs no bounds check
    let rows = a.map(|row| &row[..b.len()]);
    let mut acc = [c64::ZERO; 4];
    for (k, y) in b.iter().enumerate() {
        for (s, row) in acc.iter_mut().zip(&rows) {
            *s = s.mul_add(row[k].conj(), *y);
        }
    }
    acc
}

/// The conjugated dot products `zdotc(row(i), b)` for `i in 0..n`, four
/// rows per pass over `b` ([`zdotc_x4`]) and the last `n % 4` one at a
/// time, handed to `each(i, dot)` in ascending `i` — the bits and the
/// order of `n` [`zdotc`] calls.
#[inline]
pub fn zdotc_rows<'a>(
    n: usize,
    row: impl Fn(usize) -> &'a [c64],
    b: &[c64],
    mut each: impl FnMut(usize, c64),
) {
    let quads = n / 4;
    for q in 0..quads {
        let dots = zdotc_x4(std::array::from_fn(|r| row(4 * q + r)), b);
        for (r, d) in dots.into_iter().enumerate() {
            each(4 * q + r, d);
        }
    }
    for i in 4 * quads..n {
        each(i, zdotc(row(i), b));
    }
}

/// `y += alpha[0]·x[0]`, then `alpha[1]·x[1]`, `alpha[2]·x[2]` and
/// `alpha[3]·x[3]`, in one pass over `y`: every element of `y` takes the
/// four terms in that order, through the roundings of four ordered
/// [`zaxpy`] calls, bit for bit.
#[inline]
pub fn zaxpy_x4(alpha: [c64; 4], x: [&[c64]; 4], y: &mut [c64]) {
    debug_assert!(x.iter().all(|col| col.len() == y.len()));
    let cols = x.map(|col| &col[..y.len()]);
    for (k, yk) in y.iter_mut().enumerate() {
        for (al, col) in alpha.iter().zip(&cols) {
            *yk = yk.mul_add(*al, col[k]);
        }
    }
}

/// Euclidean norm of a complex slice.
#[inline]
pub fn znrm2(a: &[c64]) -> f64 {
    crate::reduce::sum_f64(a.iter().map(|z| z.norm_sqr())).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64;
    use proptest::prelude::*;

    /// Lengths around the 4-wide and 64-row boundaries, plus a
    /// wavefunction-sphere-sized 292 and 700.
    const LENGTHS: [usize; 10] = [0, 1, 3, 4, 5, 63, 64, 65, 292, 700];

    /// A finite value over 40 binades, with the occasional signed zero.
    fn sample(rng: &mut XorShift64) -> f64 {
        let r = rng.next_u64();
        match r % 16 {
            0 => 0.0,
            1 => -0.0,
            _ => rng.next_centered() * 2f64.powi((r >> 8) as i32 % 41 - 20),
        }
    }

    fn vector(rng: &mut XorShift64, n: usize) -> Vec<c64> {
        (0..n).map(|_| c64::new(sample(rng), sample(rng))).collect()
    }

    fn same_bits(x: c64, y: c64) -> bool {
        x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // four chains in one pass are four `zdotc` calls, bit for bit, at
        // every length
        #[test]
        fn zdotc_x4_is_four_zdotc_calls_at_to_bits(seed in 0u64..u64::MAX) {
            let mut rng = XorShift64::new(seed);
            for n in LENGTHS {
                let rows: Vec<Vec<c64>> = (0..4).map(|_| vector(&mut rng, n)).collect();
                let b = vector(&mut rng, n);
                let a = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]];
                let got = zdotc_x4(a, &b);
                for (r, row) in rows.iter().enumerate() {
                    let want = zdotc(row, &b);
                    prop_assert!(
                        same_bits(got[r], want),
                        "n={n} lane {r}: {:?} vs {want:?}", got[r]
                    );
                }
            }
        }

        // one pass of four terms per element is four ordered `zaxpy`
        // calls, bit for bit, at every length
        #[test]
        fn zaxpy_x4_is_four_ordered_zaxpy_calls_at_to_bits(seed in 0u64..u64::MAX) {
            let mut rng = XorShift64::new(seed);
            for n in LENGTHS {
                let cols: Vec<Vec<c64>> = (0..4).map(|_| vector(&mut rng, n)).collect();
                let alpha: [c64; 4] =
                    std::array::from_fn(|_| c64::new(sample(&mut rng), sample(&mut rng)));
                let y0 = vector(&mut rng, n);
                let mut want = y0.clone();
                for (al, col) in alpha.iter().zip(&cols) {
                    zaxpy(*al, col, &mut want);
                }
                let x = [&cols[0][..], &cols[1][..], &cols[2][..], &cols[3][..]];
                let mut got = y0.clone();
                zaxpy_x4(alpha, x, &mut got);
                for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert!(same_bits(*g, *w), "n={n} [{k}]: {g:?} vs {w:?}");
                }
            }
        }
    }

    #[test]
    fn zdotc_rows_hands_out_every_row_in_order_with_zdotc_bits() {
        let mut rng = XorShift64::new(0x0dd5);
        let rows: Vec<Vec<c64>> = (0..9).map(|_| vector(&mut rng, 65)).collect();
        let b = vector(&mut rng, 65);
        for n in 0..=9 {
            let mut seen = Vec::new();
            zdotc_rows(n, |i| &rows[i], &b, |i, d| seen.push((i, d)));
            assert_eq!(seen.len(), n);
            for (k, (i, d)) in seen.into_iter().enumerate() {
                assert_eq!(i, k);
                assert!(same_bits(d, zdotc(&rows[i], &b)), "n={n} row {i}");
            }
        }
    }

    #[test]
    fn a_non_finite_input_poisons_only_its_own_lane() {
        let mut rng = XorShift64::new(0x5eed);
        let n = 65;
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for lane in 0..4 {
                for (k, imag) in [(0usize, false), (31, true), (64, false)] {
                    let mut rows: Vec<Vec<c64>> = (0..4).map(|_| vector(&mut rng, n)).collect();
                    if imag {
                        rows[lane][k].im = poison;
                    } else {
                        rows[lane][k].re = poison;
                    }
                    let b = vector(&mut rng, n);
                    let a = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]];
                    let got = zdotc_x4(a, &b);
                    for (r, row) in rows.iter().enumerate() {
                        let want = zdotc(row, &b);
                        if r == lane {
                            assert!(!got[r].is_finite(), "{poison} lane {r}");
                            assert!(!want.is_finite());
                        } else {
                            assert!(same_bits(got[r], want), "{poison} lane {r}");
                        }
                    }
                    // the same poison in the axpy's lane-th column reaches
                    // element k only
                    let alpha: [c64; 4] =
                        std::array::from_fn(|_| c64::new(sample(&mut rng), sample(&mut rng)));
                    let y0 = vector(&mut rng, n);
                    let mut got = y0.clone();
                    zaxpy_x4(alpha, a, &mut got);
                    let mut want = y0.clone();
                    for (al, col) in alpha.iter().zip(&rows) {
                        zaxpy(*al, col, &mut want);
                    }
                    for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                        if j == k {
                            assert!(!g.is_finite() && !w.is_finite(), "{poison} [{j}]");
                        } else {
                            assert!(same_bits(*g, *w), "{poison} [{j}]");
                        }
                    }
                }
            }
        }
    }

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn arithmetic_basics() {
        let a = c64::new(1.0, 2.0);
        let b = c64::new(-3.0, 0.5);
        assert_eq!(a + b, c64::new(-2.0, 2.5));
        assert_eq!(a - b, c64::new(4.0, 1.5));
        assert_eq!(
            a * b,
            c64::new(1.0 * -3.0 - 2.0 * 0.5, 1.0 * 0.5 + 2.0 * -3.0)
        );
        let q = a / b;
        let back = q * b;
        assert!(close(back.re, a.re, 1e-14) && close(back.im, a.im, 1e-14));
    }

    #[test]
    fn conj_and_norm() {
        let a = c64::new(3.0, -4.0);
        assert_eq!(a.conj(), c64::new(3.0, 4.0));
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
        assert!(close((a * a.conj()).re, 25.0, 1e-14));
    }

    #[test]
    fn cis_is_unit_circle() {
        for k in 0..16 {
            let t = k as f64 * 0.7;
            let z = c64::cis(t);
            assert!(close(z.norm_sqr(), 1.0, 1e-14));
            assert!(close(z.arg(), t.sin().atan2(t.cos()), 1e-12));
        }
    }

    #[test]
    fn mul_i_shortcuts() {
        let a = c64::new(1.5, -0.25);
        assert_eq!(a.mul_i(), a * c64::I);
        assert_eq!(a.mul_neg_i(), a * -c64::I);
    }

    #[test]
    fn exp_matches_euler() {
        let z = c64::new(0.3, 1.2);
        let e = z.exp();
        let expect = c64::cis(1.2).scale(0.3f64.exp());
        assert!(close(e.re, expect.re, 1e-14));
        assert!(close(e.im, expect.im, 1e-14));
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[(4.0, 0.0), (-1.0, 0.0), (3.0, -4.0), (0.0, 2.0)] {
            let z = c64::new(re, im);
            let s = z.sqrt();
            let b = s * s;
            assert!(close(b.re, re, 1e-12) && close(b.im, im, 1e-12));
        }
    }

    #[test]
    fn blas1_helpers() {
        let x = vec![c64::new(1.0, 1.0), c64::new(2.0, 0.0)];
        let mut y = vec![c64::new(0.0, 1.0), c64::new(1.0, -1.0)];
        let d = zdotc(&x, &y);
        // conj(1+i)(i) + conj(2)(1-i) = (1-i)(i) + 2 - 2i = i + 1 + 2 - 2i = 3 - i
        assert_eq!(d, c64::new(3.0, -1.0));
        zaxpy(c64::new(0.0, 1.0), &x, &mut y);
        assert_eq!(y[0], c64::new(-1.0, 2.0));
        assert!(close(znrm2(&x), (1.0f64 + 1.0 + 4.0).sqrt(), 1e-14));
    }
}
