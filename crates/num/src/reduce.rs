//! Canonical fixed-order floating-point reductions.
//!
//! Floating-point addition is not associative, so *the order of a
//! reduction is part of its result*. This workspace's determinism
//! contract (bit-identical results for any ranks×threads layout, and
//! across kill-and-resume) therefore requires every float reduction to
//! have a **named, pinned order**. These helpers are that name for the
//! serial case: a left-linear fold in iteration order, the reference
//! order every parallel reduction (`pt_par::parallel_reduce`, the PT
//! residual's ascending fold of its fixed-chunk overlap partials) is
//! tested to reproduce or document deviations from.
//!
//! `pt-analyze`'s `float-fold-order` lint rejects raw iterator
//! `sum`/`fold` in numeric crates; call sites route through here (or
//! through `pt_par::parallel_reduce`) instead, so a future "optimize the
//! loop" edit cannot silently reorder a reduction.

use crate::complex::c64;

/// Left-linear sum in iteration order: `((0 + x₀) + x₁) + …`.
///
/// Bit-identical to `Iterator::sum::<f64>()` — the point is the explicit
/// name, not a different algorithm.
#[inline]
pub fn sum_f64(it: impl IntoIterator<Item = f64>) -> f64 {
    // pt-analyze: allow(float-fold-order) — this IS the canonical left-linear reference fold the lint points call sites at
    it.into_iter().fold(0.0, |a, b| a + b)
}

/// Left-linear complex sum in iteration order (the `Sum for c64` impl
/// delegates here).
#[inline]
pub fn sum_c64(it: impl IntoIterator<Item = c64>) -> c64 {
    // pt-analyze: allow(float-fold-order) — this IS the canonical left-linear reference fold the lint points call sites at
    it.into_iter().fold(c64::ZERO, |a, b| a + b)
}

/// Max over the iterator, seeded at `0.0` — callers take the max of
/// nonnegative magnitudes (residuals, |Δ|, norms), where the seed is the
/// identity. A NaN anywhere makes the result NaN: a residual of a
/// non-finite iterate must not read as converged, and `f64::max` alone
/// would drop the NaN in favour of the other slot. Any NaN wins in any
/// order, and on NaN-free input this is exactly `fold(0.0, f64::max)`.
#[inline]
pub fn max_f64(it: impl IntoIterator<Item = f64>) -> f64 {
    // pt-analyze: allow(float-fold-order) — canonical fixed-order max; order-insensitive, NaN propagates from any slot
    it.into_iter().fold(0.0, |a, b| {
        if a.is_nan() || b.is_nan() {
            f64::NAN
        } else {
            f64::max(a, b)
        }
    })
}

/// Min over the iterator, seeded at `+∞`.
#[inline]
pub fn min_f64(it: impl IntoIterator<Item = f64>) -> f64 {
    // pt-analyze: allow(float-fold-order) — canonical fixed-order min; f64::min is order-insensitive except for NaN, pinned here
    it.into_iter().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_matches_iterator_sum_bitwise() {
        let xs: Vec<f64> = (0..1000).map(|i| 1.0 / (1.0 + i as f64).sqrt()).collect();
        let theirs: f64 = xs.iter().copied().sum();
        assert_eq!(sum_f64(xs.iter().copied()).to_bits(), theirs.to_bits());
    }

    #[test]
    fn sum_c64_matches_fold() {
        let xs: Vec<c64> = (0..100)
            .map(|i| c64::new(i as f64, -0.5 * i as f64))
            .collect();
        let s = sum_c64(xs.iter().copied());
        let mut acc = c64::ZERO;
        for x in &xs {
            acc += *x;
        }
        assert_eq!(s.re.to_bits(), acc.re.to_bits());
        assert_eq!(s.im.to_bits(), acc.im.to_bits());
    }

    #[test]
    fn extrema_seeds() {
        assert_eq!(max_f64([]), 0.0);
        assert_eq!(min_f64([]), f64::INFINITY);
        assert_eq!(max_f64([0.5, 2.0, 1.0]), 2.0);
        assert_eq!(min_f64([0.5, 2.0, 1.0]), 0.5);
    }

    #[test]
    fn max_propagates_nan_from_any_position() {
        assert!(max_f64([f64::NAN]).is_nan());
        assert!(max_f64([f64::NAN, 1.0]).is_nan());
        assert!(max_f64([1.0, f64::NAN, 3.0]).is_nan());
        assert!(max_f64([1.0, 3.0, f64::NAN]).is_nan());
        assert_eq!(max_f64([1.0, f64::INFINITY]), f64::INFINITY);
    }
}
