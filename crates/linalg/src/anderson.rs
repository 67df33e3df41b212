//! Anderson-accelerated fixed-point update (Anderson 1965 — reference [2]
//! of the paper).
//!
//! Both of the paper's fixed points run on this one history, fit and
//! update: the ground-state SCF mixes the real density, and every PT-CN
//! step mixes each band's complex coefficients (§3.4, history depth up to
//! 20). The element type is the only difference, so a density history
//! holds `f64` and a band's holds `c64`; the least-squares fit always
//! runs through [`lstsq`] on the real values embedded as complex.

use crate::mat::CMat;
use crate::solve::lstsq;
use pt_num::c64;
use std::ops::{Add, Mul, Sub, SubAssign};

/// An element an [`Anderson`] history can hold: `f64` or `c64`.
pub trait AndersonScalar:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Mul<f64, Output = Self>
    + SubAssign
    + Into<c64>
{
    /// The element's share of a least-squares coefficient: its real part
    /// for a real history, all of it for a complex one.
    fn from_coefficient(g: c64) -> Self;
}

impl AndersonScalar for f64 {
    fn from_coefficient(g: c64) -> Self {
        g.re
    }
}

impl AndersonScalar for c64 {
    fn from_coefficient(g: c64) -> Self {
        g
    }
}

/// Anderson mixing over one vector: a history of at most `depth + 1`
/// (iterate, residual) pairs, oldest first.
pub struct Anderson<T> {
    depth: usize,
    beta: f64,
    history: Vec<(Vec<T>, Vec<T>)>,
}

impl<T: AndersonScalar> Anderson<T> {
    /// `depth` = number of difference pairs kept (m ≥ 1), `beta` = the
    /// underlying linear-mixing step.
    pub fn new(depth: usize, beta: f64) -> Self {
        assert!(depth >= 1, "Anderson depth must be at least 1");
        Anderson {
            depth,
            beta,
            history: Vec::new(),
        }
    }

    /// The stored (iterate, residual) pairs, oldest first.
    pub fn history(&self) -> &[(Vec<T>, Vec<T>)] {
        &self.history
    }

    /// Push the current iterate `x` and its residual `f = g(x) − x`, and
    /// write the next iterate into `out`:
    /// `x + β·f − Σ_j γ_j·(Δx_j + β·Δf_j)` with γ the least-squares fit
    /// `min_γ ‖f − Σ_j γ_j·Δf_j‖` over the history's differences
    /// `Δ_j = (·)_n − (·)_{n−1−j}`. The first call is a plain relaxed step.
    pub fn step(&mut self, x: Vec<T>, f: Vec<T>, out: &mut [T]) {
        assert_eq!(x.len(), f.len());
        assert_eq!(x.len(), out.len());
        self.history.push((x, f));
        if self.history.len() > self.depth + 1 {
            self.history.remove(0);
        }
        let m = self.history.len() - 1; // number of difference pairs
        let (xcur, fcur) = &self.history[m];
        for (o, (xv, fv)) in out.iter_mut().zip(xcur.iter().zip(fcur)) {
            *o = *xv + *fv * self.beta;
        }
        if m == 0 {
            return;
        }
        let mut a = CMat::zeros(fcur.len(), m);
        for j in 0..m {
            let fj = &self.history[m - 1 - j].1;
            for (i, (fv, fjv)) in fcur.iter().zip(fj).enumerate() {
                a[(i, j)] = (*fv - *fjv).into();
            }
        }
        let b: Vec<c64> = fcur.iter().map(|&v| v.into()).collect();
        let gamma = lstsq(&a, &b, 1e-12);
        for (j, g) in gamma.into_iter().enumerate() {
            let g = T::from_coefficient(g);
            let (xj, fj) = &self.history[m - 1 - j];
            for (i, o) in out.iter_mut().enumerate() {
                let dx = xcur[i] - xj[i];
                let df = fcur[i] - fj[i];
                *o -= g * (dx + df * self.beta);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The real density mixer `pt-scf` carried before the two mixers shared
    /// this core, verbatim: the oracle the `f64` path is held to at
    /// `to_bits`.
    struct RealMixerOracle {
        depth: usize,
        beta: f64,
        xs: Vec<Vec<f64>>,
        fs: Vec<Vec<f64>>,
    }

    impl RealMixerOracle {
        fn new(depth: usize, beta: f64) -> Self {
            RealMixerOracle {
                depth,
                beta,
                xs: Vec::new(),
                fs: Vec::new(),
            }
        }

        fn step(&mut self, x: &[f64], f: &[f64]) -> Vec<f64> {
            self.xs.push(x.to_vec());
            self.fs.push(f.to_vec());
            if self.xs.len() > self.depth + 1 {
                self.xs.remove(0);
                self.fs.remove(0);
            }
            let m = self.xs.len() - 1;
            let n = x.len();
            if m == 0 {
                return x.iter().zip(f).map(|(a, b)| a + self.beta * b).collect();
            }
            let fn_ = &self.fs[m];
            let mut a = CMat::zeros(n, m);
            for j in 0..m {
                let fj = &self.fs[m - 1 - j];
                for i in 0..n {
                    a[(i, j)] = c64::real(fn_[i] - fj[i]);
                }
            }
            let b: Vec<c64> = fn_.iter().map(|&v| c64::real(v)).collect();
            let gamma = lstsq(&a, &b, 1e-12);
            let mut out: Vec<f64> = self.xs[m]
                .iter()
                .zip(fn_)
                .map(|(xv, fv)| xv + self.beta * fv)
                .collect();
            for (j, g) in gamma.iter().enumerate() {
                let gj = g.re;
                let xj = &self.xs[m - 1 - j];
                let fj = &self.fs[m - 1 - j];
                for i in 0..n {
                    let dx = self.xs[m][i] - xj[i];
                    let df = fn_[i] - fj[i];
                    out[i] -= gj * (dx + self.beta * df);
                }
            }
            out
        }
    }

    fn step(mixer: &mut Anderson<f64>, x: &[f64], f: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len()];
        mixer.step(x.to_vec(), f.to_vec(), &mut out);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // over random real histories (depth 1-8, beta in (0, 1], vectors
        // longer than the history, as a density is) the f64 core repeats
        // the deleted real mixer bit for bit, iterate after iterate: the
        // density loop's trajectory did not move when the two mixers merged
        #[test]
        fn the_real_path_repeats_the_deleted_real_mixer_bit_for_bit(
            depth in 1usize..9,
            beta_raw in 1u32..1001,
            n in 9usize..41,
            steps in 1usize..17,
            seed in 0u64..u64::MAX,
        ) {
            let beta = beta_raw as f64 / 1000.0;
            let mut rng = pt_num::rng::XorShift64::new(seed);
            let mut core = Anderson::new(depth, beta);
            let mut oracle = RealMixerOracle::new(depth, beta);
            let mut x: Vec<f64> = (0..n).map(|_| rng.next_centered()).collect();
            for _ in 0..steps {
                // a residual that shrinks with a random direction on top,
                // as a mixed density's does
                let f: Vec<f64> = x
                    .iter()
                    .map(|v| -0.3 * v + 0.1 * rng.next_centered())
                    .collect();
                let want = oracle.step(&x, &f);
                let got = step(&mut core, &x, &f);
                prop_assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
                x = got;
            }
        }
    }

    /// On a linear fixed point x* = M x + b with ‖M‖ < 1, Anderson with
    /// enough history converges in ~rank(M)+1 steps — far faster than the
    /// plain linear mixing it accelerates.
    #[test]
    fn solves_linear_fixed_point_fast() {
        let n = 12;
        // diagonal contraction with a few distinct rates
        let rates: Vec<f64> = (0..n).map(|i| 0.9 - 0.05 * (i % 4) as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let g = |x: &[f64]| -> Vec<f64> {
            x.iter()
                .zip(&rates)
                .zip(&b)
                .map(|((xv, r), bv)| r * xv + bv)
                .collect()
        };
        // exact solution
        let xstar: Vec<f64> = rates.iter().zip(&b).map(|(r, bv)| bv / (1.0 - r)).collect();
        let mut mixer = Anderson::new(8, 0.5);
        let mut x = vec![0.0; n];
        let mut it_converged = None;
        for it in 0..50 {
            let gx = g(&x);
            let f: Vec<f64> = gx.iter().zip(&x).map(|(a, b)| a - b).collect();
            let err = f.iter().map(|v| v.abs()).fold(0.0, f64::max);
            if err < 1e-12 {
                it_converged = Some(it);
                break;
            }
            x = step(&mut mixer, &x, &f);
        }
        let it = it_converged.expect("did not converge");
        // 4 distinct rates → Anderson needs only a handful of iterations
        assert!(
            it <= 20,
            "took {it} iterations (linear mixing alone needs ~250)"
        );
        for (a, b) in x.iter().zip(&xstar) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn plain_mixing_first_step() {
        let mut m = Anderson::new(3, 0.25);
        let out = step(&mut m, &[1.0, 2.0], &[0.4, -0.8]);
        assert!((out[0] - 1.1).abs() < 1e-15);
        assert!((out[1] - 1.8).abs() < 1e-15);
    }

    #[test]
    fn history_is_bounded() {
        let mut m = Anderson::new(2, 0.5);
        let x = vec![0.0; 3];
        for i in 0..10 {
            let f = vec![1.0 / (i + 1) as f64; 3];
            let _ = step(&mut m, &x, &f);
            assert!(m.history().len() <= 3);
        }
    }
}
