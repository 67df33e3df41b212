//! Anderson mixing for the PT-CN wavefunction fixed point.
//!
//! §3.4: "The Anderson mixing method for solving the nonlinear equations
//! requires the solution of a least squares problem for each wavefunction
//! … the maximum mixing dimension is set to 20." This is the part whose
//! memory footprint (up to 20 copies of Ψ) the paper parks in the 512 GB
//! host RAM of Summit's fat nodes.
//!
//! The history lives for one fixed point: Alg. 1 starts every step's
//! solve from an empty one, so a mixer is a local of the PT-CN step —
//! never propagator state, never part of a snapshot.
//!
//! The mixer is preconditioned by a diagonal `P` over the plane waves:
//! every residual is multiplied by `P` before it enters the history, so
//! the least-squares fit and the update both see `P·f`. PT-CN passes the
//! kinetic diagonal `P_G = 1 / (1 + i·(dt/2)·½|G + A|²)` (DESIGN.md,
//! "PT-CN fixed point"), which takes the stiff high-|G| modes out of the
//! per-band Anderson depth.

use pt_linalg::{Anderson, CMat};
use pt_num::c64;

/// Per-band Anderson mixer over complex coefficient vectors: one
/// [`Anderson`] history per band, each fed the preconditioned residual.
pub struct BandAndersonMixer {
    /// diagonal preconditioner, one entry per coefficient row
    precond: Vec<c64>,
    /// one history per band
    cores: Vec<Anderson<c64>>,
}

impl BandAndersonMixer {
    /// History depth: the paper's maximum mixing dimension (§3.4).
    pub const DEPTH: usize = 20;
    /// Relaxation β of the underlying Anderson step.
    pub const BETA: f64 = 1.0;

    /// A mixer of [`Self::DEPTH`] and [`Self::BETA`] for `n_bands` bands;
    /// `precond` is the diagonal applied to every residual (one entry per
    /// coefficient row).
    pub fn new(n_bands: usize, precond: Vec<c64>) -> Self {
        BandAndersonMixer {
            precond,
            cores: (0..n_bands)
                .map(|_| Anderson::new(Self::DEPTH, Self::BETA))
                .collect(),
        }
    }

    /// Stored history length (same for every band).
    pub fn history_len(&self) -> usize {
        self.cores.first().map_or(0, |c| c.history().len())
    }

    /// Memory footprint in units of one wavefunction block (the paper's
    /// "up to 20 copies of Ψ" accounting).
    pub fn psi_copies(&self) -> usize {
        2 * self.history_len()
    }

    /// One Anderson update: `x` current iterate (bands as columns), `f`
    /// the fixed-point residual g(x) − x. Returns the next iterate, mixed
    /// on the preconditioned residual `P·f`.
    ///
    /// The bands are independent least-squares problems (§3.4), so each
    /// runs as one pool task owning its history and its output column.
    /// The GEMM inside a band's fit nests inline on that task, and a
    /// band's arithmetic never depends on the pool width.
    pub fn step(&mut self, x: &CMat, f: &CMat) -> CMat {
        assert_eq!(x.ncols(), self.cores.len());
        assert_eq!(f.ncols(), self.cores.len());
        let ng = x.nrows();
        assert_eq!(self.precond.len(), ng);
        let mut out = CMat::zeros(ng, self.cores.len());
        let mut bands: Vec<(&mut Anderson<c64>, &mut [c64])> = self
            .cores
            .iter_mut()
            .zip(out.data_mut().chunks_mut(ng.max(1)))
            .collect();
        let precond = &self.precond;
        pt_par::parallel_chunks_mut(&mut bands, 1, |b, band| {
            let (core, col) = &mut band[0];
            let pf = f.col(b).iter().zip(precond).map(|(v, p)| *p * *v);
            core.step(x.col(b).to_vec(), pf.collect(), col);
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_complex_linear_fixed_point() {
        // per-band g(x) = D x + b with complex diagonal |D| < 1
        let ng = 8;
        let nb = 2;
        let d: Vec<c64> = (0..ng)
            .map(|i| c64::cis(0.3 * i as f64).scale(0.6 + 0.03 * (i % 5) as f64))
            .collect();
        let b: Vec<c64> = (0..ng).map(|i| c64::new(0.1 * i as f64, -0.05)).collect();
        let g = |x: &CMat| -> CMat {
            let mut o = CMat::zeros(ng, nb);
            for j in 0..nb {
                for i in 0..ng {
                    o[(i, j)] = d[i] * x[(i, j)] + b[i].scale((j + 1) as f64);
                }
            }
            o
        };
        let mut mixer = BandAndersonMixer::new(nb, vec![c64::ONE; ng]);
        let mut x = CMat::zeros(ng, nb);
        let mut conv = None;
        for it in 0..60 {
            let gx = g(&x);
            let mut f = gx.clone();
            for j in 0..nb {
                for i in 0..ng {
                    f[(i, j)] = gx[(i, j)] - x[(i, j)];
                }
            }
            let err = f.norm_fro();
            if err < 1e-12 {
                conv = Some(it);
                break;
            }
            x = mixer.step(&x, &f);
        }
        let it = conv.expect("no convergence");
        assert!(it <= 25, "took {it}");
        // verify fixed point x = Dx + b(j+1)
        for j in 0..nb {
            for i in 0..ng {
                let want = b[i].scale((j + 1) as f64) * (c64::ONE - d[i]).inv();
                assert!((x[(i, j)] - want).abs() < 1e-9);
            }
        }
    }

    /// Iterations the mixer needs on the PT-CN-shaped linear fixed point
    /// `R(x) = (1 + i·c·(k + v))·x − b` per band, with `k` a ½|G|²-like
    /// spectrum, `c·k_max ≫ 1` (the stiffness of dt/2 · ½|G|² at the
    /// cut-off) and `v` a small potential-like term; `None` if it never
    /// reaches 1e-10.
    fn iterations_on_stiff_diagonal(
        precond: Vec<c64>,
        c: f64,
        k: &[f64],
        v: &[f64],
    ) -> Option<usize> {
        let (ng, nb) = (k.len(), 2);
        let b = |i: usize, j: usize| c64::new(1.0 / (1.0 + i as f64), 0.1 * (j + 1) as f64);
        let mut mixer = BandAndersonMixer::new(nb, precond);
        let mut x = CMat::zeros(ng, nb);
        for it in 0..200 {
            let mut f = CMat::zeros(ng, nb);
            for j in 0..nb {
                for i in 0..ng {
                    let a = c64::new(1.0, c * (k[i] + v[i]));
                    f[(i, j)] = b(i, j) - a * x[(i, j)];
                }
            }
            if f.norm_fro() < 1e-10 {
                return Some(it);
            }
            x = mixer.step(&x, &f);
        }
        None
    }

    #[test]
    fn the_kinetic_diagonal_at_least_halves_the_iterations_on_a_stiff_fixed_point() {
        // 48 plane waves on shells k = ½|G|² up to 18 Ha, dt/2 = 0.5 a.u.:
        // c·k_max = 9, the stiff end of the PT-CN map
        let ng = 48;
        let c = 0.5;
        let k: Vec<f64> = (0..ng)
            .map(|i| 0.5 * (0.4 * (i / 3) as f64).powi(2))
            .collect();
        let v: Vec<f64> = (0..ng).map(|i| 0.3 * (0.7 * i as f64).sin()).collect();
        let kinetic: Vec<c64> = k.iter().map(|&kg| c64::new(1.0, c * kg).inv()).collect();
        let plain = iterations_on_stiff_diagonal(vec![c64::ONE; ng], c, &k, &v);
        let preconditioned = iterations_on_stiff_diagonal(kinetic, c, &k, &v);
        // measured: 56 plain, 10 preconditioned
        let plain = plain.expect("P = I converges too, only slower");
        let preconditioned = preconditioned.expect("the preconditioned mixer converges");
        assert!(2 * preconditioned <= plain, "{preconditioned} vs {plain}");
    }

    #[test]
    fn the_history_holds_the_preconditioned_residual() {
        let ng = 6;
        let p: Vec<c64> = (0..ng)
            .map(|i| c64::new(1.0, 0.7 * i as f64).inv())
            .collect();
        let mut f = CMat::zeros(ng, 2);
        for j in 0..2 {
            for i in 0..ng {
                f[(i, j)] = c64::new(0.3 * i as f64 - 1.0, 0.2 * j as f64 + 0.1);
            }
        }
        let mut mixer = BandAndersonMixer::new(2, p.clone());
        let x = CMat::zeros(ng, 2);
        let next = mixer.step(&x, &f);
        for j in 0..2 {
            for i in 0..ng {
                let pf = p[i] * f[(i, j)];
                assert_eq!(mixer.cores[j].history()[0].1[i], pf);
                // the first update is a relaxed step along P·f
                assert_eq!(next[(i, j)], x[(i, j)] + pf);
            }
        }
    }

    #[test]
    fn band_parallel_steps_repeat_the_band_serial_loop_bit_for_bit() {
        // 8 iterations of a nonlinear per-band map on pools of 1, 2 and 4
        // threads, against the loop that stepped one band after another
        let (ng, nb) = (292, 5);
        let mut rng = pt_num::rng::XorShift64::new(4242);
        let mut draw = |scale: f64| c64::new(rng.next_centered(), rng.next_centered()).scale(scale);
        let precond: Vec<c64> = (0..ng).map(|_| c64::ONE + draw(0.5)).collect();
        let d: Vec<c64> = (0..ng).map(|_| draw(1.2)).collect();
        let x0 = CMat::from_fn(ng, nb, |_, _| draw(1.0));
        let residual = |x: &CMat| {
            CMat::from_fn(ng, nb, |i, j| {
                let v = x[(i, j)];
                d[i] * v + v * v.scale(0.1 * (j + 1) as f64) - v + c64::real(0.05)
            })
        };
        let mut oracle: Vec<Anderson<c64>> = (0..nb)
            .map(|_| Anderson::new(BandAndersonMixer::DEPTH, BandAndersonMixer::BETA))
            .collect();
        let mut want = vec![x0.clone()];
        for _ in 0..8 {
            let x = want.last().unwrap();
            let f = residual(x);
            let mut next = CMat::zeros(ng, nb);
            for (b, core) in oracle.iter_mut().enumerate() {
                let pf = f.col(b).iter().zip(&precond).map(|(v, p)| *p * *v);
                core.step(x.col(b).to_vec(), pf.collect(), next.col_mut(b));
            }
            want.push(next);
        }
        for threads in [1, 2, 4] {
            pt_par::ThreadPool::new(threads).install(|| {
                let mut mixer = BandAndersonMixer::new(nb, precond.clone());
                let mut x = x0.clone();
                for (it, w) in want.iter().enumerate().skip(1) {
                    x = mixer.step(&x, &residual(&x));
                    for (k, (g, e)) in x.data().iter().zip(w.data()).enumerate() {
                        assert!(
                            g.re.to_bits() == e.re.to_bits() && g.im.to_bits() == e.im.to_bits(),
                            "threads={threads} iteration {it} [{k}]: {g:?} vs {e:?}"
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn history_depth_is_bounded_at_20() {
        let mut m = BandAndersonMixer::new(1, vec![c64::ONE; 4]);
        let x = CMat::zeros(4, 1);
        for i in 0..30 {
            let mut f = CMat::zeros(4, 1);
            f[(0, 0)] = c64::real(1.0 / (i + 1) as f64);
            let _ = m.step(&x, &f);
        }
        assert!(m.history_len() <= 21);
        assert!(m.psi_copies() <= 42);
    }
}
