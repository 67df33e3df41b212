//! Grid evaluation of the XC energy and potential.
//!
//! The paper's "others" component (§3.4) includes exactly this work: FFTs
//! for the gradient of the electron density, the semi-local XC evaluation
//! (via Libxc there, in-crate here), and the assembly of the potential. It
//! runs once per Hamiltonian application, so it is laid out as one pipeline
//! over the dense grid's own plan and G table (borrowed per call):
//!
//! 1. ρ(G) is transformed **once**. It feeds the gradient and a *rider*:
//!    the convolution of ρ with a real G-space kernel `k(|G|²)` that the
//!    caller wants on the same grid (pt-ham passes the Coulomb kernel, so
//!    the rider is the Hartree potential).
//! 2. The spectra of real fields are Hermitian, so they go back **two per
//!    complex inverse**: `∂xρ + i·∂yρ` and `∂zρ + i·rider`. This needs
//!    `iG_d ρ(G)` to be exactly Hermitian, i.e. `G_d(−G) = −G_d(G)`, which
//!    the G table violates on the Nyquist plane of an even axis (index
//!    `n/2` is its own mirror but carries `+n/2`). There the pipeline uses
//!    `½(G(idx) − G(−idx))` — for an orthogonal cell that zeroes `G_d` on
//!    axis d's Nyquist plane — and `½(k(idx) + k(−idx))`: precisely the
//!    Hermitian part, which is all that taking `.re` of an unpaired inverse
//!    ever kept.
//! 3. One sequential pointwise pass evaluates the functional and sums
//!    `E_xc` in grid order, so the bits do not depend on the pool (the
//!    transforms are pool-independent by construction).
//! 4. PBE's `∇·(2 ∂f/∂σ ∇ρ)` costs three forward transforms and one
//!    inverse: 7 transforms per PBE update, 2 per LDA update.
//!
//! Work arrays are one per-thread scratch buffer (the `pt-fft` idiom),
//! grown on a thread's first call: a warm evaluation allocates nothing.

use crate::functional::{lda_exc_vxc, pbe_exc_vxc, XcKind};
use pt_fft::Fft3;
use pt_lattice::GridGVectors;
use pt_num::{c64, with_scratch};
use std::cell::RefCell;

thread_local! {
    static SCRATCH: RefCell<Vec<c64>> = const { RefCell::new(Vec::new()) };
}

/// Visit every grid point in index order as `f(idx, mirror)`: `mirror` is
/// the index of −G for points on the Nyquist plane of an even axis — where
/// the G table is not odd under G → −G — and `None` everywhere else.
fn for_each_point((nx, ny, nz): (usize, usize, usize), mut f: impl FnMut(usize, Option<usize>)) {
    let nyquist = |i: usize, n: usize| 2 * i == n; // never on an odd axis
    let mut idx = 0;
    for iz in 0..nz {
        for iy in 0..ny {
            let on_plane = nyquist(iz, nz) || nyquist(iy, ny);
            for ix in 0..nx {
                let mirror = (on_plane || nyquist(ix, nx))
                    .then(|| (nx - ix) % nx + nx * ((ny - iy) % ny + ny * ((nz - iz) % nz)));
                f(idx, mirror);
                idx += 1;
            }
        }
    }
}

/// The odd part of the G table at `idx`: G itself off the Nyquist planes.
fn odd_g(gv: &GridGVectors, idx: usize, mirror: Option<usize>) -> [f64; 3] {
    let g = gv.g_cart[idx];
    match mirror {
        None => g,
        Some(m) => {
            let h = gv.g_cart[m];
            [
                0.5 * (g[0] - h[0]),
                0.5 * (g[1] - h[1]),
                0.5 * (g[2] - h[2]),
            ]
        }
    }
}

/// From the spectrum `rho_g` of a real field: `xy ← ∂xρ + i·∂yρ` and
/// `z_rider ← ∂zρ + i·IFFT(kernel · ρ(G))`, two real fields per inverse.
fn gradient_and_rider(
    fft: &Fft3,
    gv: &GridGVectors,
    even_kernel: impl Fn(usize, Option<usize>) -> f64,
    rho_g: &[c64],
    xy: &mut [c64],
    z_rider: &mut [c64],
) {
    for_each_point(gv.dims, |idx, mirror| {
        let g = odd_g(gv, idx, mirror);
        // i·G_x ρ(G) + i·(i·G_y ρ(G))
        xy[idx] = rho_g[idx] * c64::new(-g[1], g[0]);
        z_rider[idx] = rho_g[idx].mul_i().scale(g[2] + even_kernel(idx, mirror));
    });
    fft.inverse(xy);
    fft.inverse(z_rider);
}

/// Semi-local XC evaluator for one functional on one cell.
pub struct XcGridEvaluator {
    kind: XcKind,
    volume: f64,
}

impl XcGridEvaluator {
    /// Create an evaluator for `kind` on a cell of `volume` (bohr³).
    pub fn new(kind: XcKind, volume: f64) -> Self {
        XcGridEvaluator { kind, volume }
    }

    /// Which functional this evaluator computes.
    pub fn kind(&self) -> XcKind {
        self.kind
    }

    /// Evaluate `E_xc` and `v_xc(r)` for the real density `rho` on the grid
    /// of `fft` / `gv`, and with the same ρ(G) the rider
    /// `IFFT(kernel(|G|²) · ρ(G))`. Returns `E_xc`; the fields are handed
    /// out point by point, in grid order, as `sink(idx, v_xc, rider)`.
    ///
    /// Negative densities are clamped to zero inside the functional only;
    /// the gradient and the rider see `rho` as given.
    pub fn evaluate(
        &self,
        fft: &Fft3,
        gv: &GridGVectors,
        rho: &[f64],
        kernel: impl Fn(f64) -> f64,
        mut sink: impl FnMut(usize, f64, f64),
    ) -> f64 {
        let n = rho.len();
        assert_eq!(n, gv.len());
        assert_eq!(n, fft.len());
        let even_kernel = |idx: usize, mirror: Option<usize>| match mirror {
            None => kernel(gv.g2[idx]),
            Some(m) => 0.5 * (kernel(gv.g2[idx]) + kernel(gv.g2[m])),
        };
        let spectrum = |out: &mut [c64]| {
            for (z, &r) in out.iter_mut().zip(rho) {
                *z = c64::real(r);
            }
            fft.forward(out);
        };
        let mut e = 0.0;
        match self.kind {
            XcKind::Lda => with_scratch(&SCRATCH, n, |a| {
                spectrum(a);
                for_each_point(gv.dims, |idx, mirror| {
                    a[idx] = a[idx].scale(even_kernel(idx, mirror));
                });
                fft.inverse(a);
                for (i, (&r, rider)) in rho.iter().zip(a.iter()).enumerate() {
                    let r = r.max(0.0);
                    let (eps, v) = lda_exc_vxc(r);
                    e += r * eps;
                    sink(i, v, rider.re);
                }
            }),
            XcKind::Pbe => with_scratch(&SCRATCH, 4 * n, |work| {
                let (a, rest) = work.split_at_mut(n);
                let (b, rest) = rest.split_at_mut(n);
                let (c, d) = rest.split_at_mut(n);
                spectrum(a);
                gradient_and_rider(fft, gv, even_kernel, a, b, c);
                // a = ρ(G) is spent: w = 2 ∂f/∂σ ∇ρ goes into (a, b, d), and
                // ∂f/∂ρ into ∂zρ's slot of c
                for i in 0..n {
                    let (gx, gy, gz) = (b[i].re, b[i].im, c[i].re);
                    let r = rho[i].max(0.0);
                    let (eps, dfdr, dfds) = pbe_exc_vxc(r, gx * gx + gy * gy + gz * gz);
                    e += r * eps;
                    a[i] = c64::real(2.0 * dfds * gx);
                    b[i] = c64::real(2.0 * dfds * gy);
                    d[i] = c64::real(2.0 * dfds * gz);
                    c[i].re = dfdr;
                }
                // v_xc = ∂f/∂ρ − ∇·w
                fft.forward(a);
                fft.forward(b);
                fft.forward(d);
                for_each_point(gv.dims, |idx, mirror| {
                    let g = odd_g(gv, idx, mirror);
                    a[idx] = (a[idx].scale(g[0]) + b[idx].scale(g[1]) + d[idx].scale(g[2])).mul_i();
                });
                fft.inverse(a);
                for (i, (div, z)) in a.iter().zip(c.iter()).enumerate() {
                    sink(i, z.re - div.re, z.im);
                }
            }),
        }
        e * self.volume / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_lattice::Cell;
    use std::f64::consts::PI;

    struct Setup {
        ev: XcGridEvaluator,
        fft: Fft3,
        gv: GridGVectors,
    }

    impl Setup {
        fn new(kind: XcKind, n: usize, l: f64) -> Self {
            let cell = Cell::cubic(l);
            Setup {
                ev: XcGridEvaluator::new(kind, cell.volume()),
                fft: Fft3::new(n, n, n),
                gv: GridGVectors::new(&cell, (n, n, n)),
            }
        }

        /// `(E_xc, v_xc)` with no rider.
        fn evaluate(&self, rho: &[f64]) -> (f64, Vec<f64>) {
            let mut v = vec![0.0; rho.len()];
            let e = self
                .ev
                .evaluate(&self.fft, &self.gv, rho, |_| 0.0, |i, vxc, _| v[i] = vxc);
            (e, v)
        }
    }

    fn smooth_density(n: usize) -> Vec<f64> {
        // strictly positive, periodic, non-trivial
        let mut rho = vec![0.0; n * n * n];
        for iz in 0..n {
            for iy in 0..n {
                for ix in 0..n {
                    let (x, y, z) = (
                        ix as f64 / n as f64 * 2.0 * PI,
                        iy as f64 / n as f64 * 2.0 * PI,
                        iz as f64 / n as f64 * 2.0 * PI,
                    );
                    rho[ix + n * (iy + n * iz)] =
                        0.2 + 0.1 * x.sin() * y.cos() + 0.05 * (z.sin() * x.cos());
                }
            }
        }
        rho
    }

    #[test]
    fn uniform_density_lda_closed_form() {
        let n = 8;
        let s = Setup::new(XcKind::Lda, n, 10.0);
        let rho = vec![0.3; n * n * n];
        let (e, v) = s.evaluate(&rho);
        let (eps, vv) = lda_exc_vxc(0.3);
        let want_e = 0.3 * eps * 1000.0;
        assert!((e - want_e).abs() < 1e-10 * want_e.abs());
        for &vi in &v {
            assert!((vi - vv).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_density_pbe_equals_lda() {
        let n = 8;
        let rho = vec![0.25; n * n * n];
        let (ep, vp) = Setup::new(XcKind::Pbe, n, 10.0).evaluate(&rho);
        let (el, vl) = Setup::new(XcKind::Lda, n, 10.0).evaluate(&rho);
        assert!((ep - el).abs() < 1e-8 * el.abs(), "{ep} vs {el}");
        for (a, b) in vp.iter().zip(&vl) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn functional_derivative_consistency() {
        // The fundamental test of the GGA potential assembly:
        // dE[ρ + λ δρ]/dλ |_{λ=0} == ∫ v_xc δρ dr, including the
        // ∇·(∂f/∂∇ρ) term.
        for kind in [XcKind::Lda, XcKind::Pbe] {
            let n = 10;
            let l = 8.0;
            let s = Setup::new(kind, n, l);
            let rho = smooth_density(n);
            let m = n * n * n;
            let dv = l * l * l / m as f64;
            // smooth perturbation; its sin·cos term overlaps v_xc at first
            // order in the density's modulation, so ∫ v_xc δρ is not left
            // to vanish by symmetry
            let drho: Vec<f64> = (0..m)
                .map(|i| {
                    let x = (i % n) as f64 / n as f64 * 2.0 * PI;
                    let y = ((i / n) % n) as f64 / n as f64 * 2.0 * PI;
                    0.01 * (x.cos() + y.sin() + x.sin() * y.cos())
                })
                .collect();
            let lam = 1e-4;
            let rp: Vec<f64> = rho.iter().zip(&drho).map(|(a, b)| a + lam * b).collect();
            let rm: Vec<f64> = rho.iter().zip(&drho).map(|(a, b)| a - lam * b).collect();
            let (ep, _) = s.evaluate(&rp);
            let (em, _) = s.evaluate(&rm);
            let dnum = (ep - em) / (2.0 * lam);
            let (_, v) = s.evaluate(&rho);
            let dan: f64 = v.iter().zip(&drho).map(|(a, b)| a * b).sum::<f64>() * dv;
            // measured 1.0e-10 (LDA) and 1.6e-10 (PBE): what is left is the
            // round-off of the energy difference
            assert!(
                (dnum - dan).abs() < 2e-9 * (1.0 + dan.abs()),
                "{kind:?}: {dnum} vs {dan}"
            );
        }
    }

    #[test]
    fn paired_gradient_and_rider_of_plane_waves_are_exact() {
        // even grid: every axis has a Nyquist plane; odd grid: none
        for n in [12usize, 9] {
            let l = 6.0;
            let s = Setup::new(XcKind::Pbe, n, l);
            let k = 2.0 * PI / l;
            let at = |i: usize| i as f64 * l / n as f64;
            let m = n * n * n;
            let mut f = vec![c64::ZERO; m];
            for iz in 0..n {
                for iy in 0..n {
                    for ix in 0..n {
                        f[ix + n * (iy + n * iz)] = c64::real(
                            (k * at(ix)).sin() + (2.0 * k * at(iy)).cos() + (k * at(iz)).cos(),
                        );
                    }
                }
            }
            s.fft.forward(&mut f);
            let (mut xy, mut zr) = (vec![c64::ZERO; m], vec![c64::ZERO; m]);
            let yukawa = |idx: usize, _| 1.0 / (1.0 + s.gv.g2[idx]);
            gradient_and_rider(&s.fft, &s.gv, yukawa, &f, &mut xy, &mut zr);
            for iz in 0..n {
                for iy in 0..n {
                    for ix in 0..n {
                        let i = ix + n * (iy + n * iz);
                        let want = [
                            k * (k * at(ix)).cos(),
                            -2.0 * k * (2.0 * k * at(iy)).sin(),
                            -k * (k * at(iz)).sin(),
                            ((k * at(ix)).sin() + (k * at(iz)).cos()) / (1.0 + k * k)
                                + (2.0 * k * at(iy)).cos() / (1.0 + 4.0 * k * k),
                        ];
                        let got = [xy[i].re, xy[i].im, zr[i].re, zr[i].im];
                        for (g, w) in got.iter().zip(&want) {
                            assert!((g - w).abs() < 1e-12, "n={n}: {got:?} vs {want:?}");
                        }
                    }
                }
            }
        }
    }
}
