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

use pt_linalg::{lstsq, CMat};
use pt_num::c64;

/// Per-band Anderson mixer over complex coefficient vectors.
pub struct BandAndersonMixer {
    depth: usize,
    beta: f64,
    n_bands: usize,
    /// history per band: iterates and residuals
    xs: Vec<Vec<Vec<c64>>>,
    fs: Vec<Vec<Vec<c64>>>,
}

impl BandAndersonMixer {
    /// `depth` ≤ 20 in the paper; `beta` is the underlying relaxation.
    pub fn new(n_bands: usize, depth: usize, beta: f64) -> Self {
        BandAndersonMixer {
            depth,
            beta,
            n_bands,
            xs: vec![Vec::new(); n_bands],
            fs: vec![Vec::new(); n_bands],
        }
    }

    /// Stored history length (same for every band).
    pub fn history_len(&self) -> usize {
        self.xs.first().map(|h| h.len()).unwrap_or(0)
    }

    /// Memory footprint in units of one wavefunction block (the paper's
    /// "up to 20 copies of Ψ" accounting).
    pub fn psi_copies(&self) -> usize {
        2 * self.history_len()
    }

    /// One Anderson update: `x` current iterate (bands as columns), `f`
    /// the fixed-point residual g(x) − x. Returns the next iterate.
    pub fn step(&mut self, x: &CMat, f: &CMat) -> CMat {
        assert_eq!(x.ncols(), self.n_bands);
        assert_eq!(f.ncols(), self.n_bands);
        let ng = x.nrows();
        let mut out = CMat::zeros(ng, self.n_bands);
        for b in 0..self.n_bands {
            let hx = &mut self.xs[b];
            let hf = &mut self.fs[b];
            hx.push(x.col(b).to_vec());
            hf.push(f.col(b).to_vec());
            if hx.len() > self.depth + 1 {
                hx.remove(0);
                hf.remove(0);
            }
            let m = hx.len() - 1;
            let xcur = &hx[m];
            let fcur = &hf[m];
            let col = out.col_mut(b);
            if m == 0 {
                for (o, (xv, fv)) in col.iter_mut().zip(xcur.iter().zip(fcur)) {
                    *o = *xv + fv.scale(self.beta);
                }
                continue;
            }
            // least squares over difference history
            let mut a = CMat::zeros(ng, m);
            for j in 0..m {
                let fj = &hf[m - 1 - j];
                for i in 0..ng {
                    a[(i, j)] = fcur[i] - fj[i];
                }
            }
            let gamma = lstsq(&a, fcur, 1e-12);
            for (i, o) in col.iter_mut().enumerate() {
                *o = xcur[i] + fcur[i].scale(self.beta);
            }
            for (j, g) in gamma.iter().enumerate() {
                let xj = &hx[m - 1 - j];
                let fj = &hf[m - 1 - j];
                for (i, o) in col.iter_mut().enumerate() {
                    let dx = xcur[i] - xj[i];
                    let df = fcur[i] - fj[i];
                    *o -= *g * (dx + df.scale(self.beta));
                }
            }
        }
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
        let mut mixer = BandAndersonMixer::new(nb, 10, 0.5);
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

    #[test]
    fn history_depth_is_bounded_at_20() {
        let mut m = BandAndersonMixer::new(1, 20, 1.0);
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
