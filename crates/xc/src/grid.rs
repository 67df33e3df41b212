//! Grid evaluation of the XC energy and potential.
//!
//! The paper's "others" component (§3.4) includes exactly this work: FFTs
//! for the gradient of the electron density, the semi-local XC evaluation
//! (via Libxc there, in-crate here), and the assembly of the potential. It
//! runs once per density whose potential is built, so it is laid out as one
//! pipeline over the dense grid's own plan and G table (borrowed per call):
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
//! 3. The functional is evaluated on the pool, one chunk of
//!    [`POINTS_PER_TASK`] grid points per task and stage by stage inside
//!    it (`functional::pbe_chunk`), each point into its own slots. A
//!    second pass on the calling thread then sums `E_xc` and hands the
//!    fields out in grid order, so no reduction order depends on the pool.
//! 4. PBE's `∇·(2 ∂f/∂σ ∇ρ)` costs three forward transforms and one
//!    inverse: 7 transforms per PBE update, 2 per LDA update.
//!
//! Transforms that are independent go through the batched entries — the
//! two paired inverses as one batch, the three forwards of `w` as another,
//! one serial transform per pool task; a lone transform runs on the serial
//! entry. Each transform is serial inside either way, so the fields do not
//! depend on the pool.
//!
//! Work arrays are one per-thread scratch buffer (the `pt-fft` idiom),
//! grown on a thread's first call: a warm evaluation allocates nothing.

use crate::functional::{lda_chunk, pbe_chunk, XcKind, CHUNK};
use pt_fft::Fft3;
use pt_lattice::GridGVectors;
use pt_num::{c64, with_scratch};
use std::cell::RefCell;

thread_local! {
    static SCRATCH: RefCell<Vec<c64>> = const { RefCell::new(Vec::new()) };
}

/// Grid points per pool task of the pointwise pass: one staged call of
/// the functional. Fixed, so the deal does not depend on the pool; each
/// point's value depends on that point alone, so no deal could move a bit.
const POINTS_PER_TASK: usize = CHUNK;

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

/// From the spectrum `rho_g` of a real field, into `pair = [xy | z_rider]`:
/// `xy ← ∂xρ + i·∂yρ` and `z_rider ← ∂zρ + i·IFFT(kernel · ρ(G))`, two real
/// fields per inverse, both inverses one batch.
fn gradient_and_rider(
    fft: &Fft3,
    gv: &GridGVectors,
    even_kernel: impl Fn(usize, Option<usize>) -> f64,
    rho_g: &[c64],
    pair: &mut [c64],
) {
    let (xy, z_rider) = pair.split_at_mut(rho_g.len());
    for_each_point(gv.dims, |idx, mirror| {
        let g = odd_g(gv, idx, mirror);
        // i·G_x ρ(G) + i·(i·G_y ρ(G))
        xy[idx] = rho_g[idx] * c64::new(-g[1], g[0]);
        z_rider[idx] = rho_g[idx].mul_i().scale(g[2] + even_kernel(idx, mirror));
    });
    fft.inverse_batch(pair);
}

/// Run `chunk(first, slots)` for every run of [`POINTS_PER_TASK`] grid
/// points on the pool, one task each: `slots` are the run's `width`
/// entries per point of `out` (`out.len() = width · n`), from point
/// `first` on.
fn pointwise(out: &mut [c64], width: usize, chunk: impl Fn(usize, &mut [c64]) + Sync) {
    pt_par::parallel_chunks_mut(out, width * POINTS_PER_TASK, |c, slots| {
        chunk(c * POINTS_PER_TASK, slots);
    });
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
            fft.forward_serial(out);
        };
        let mut e = 0.0;
        match self.kind {
            XcKind::Lda => with_scratch(&SCRATCH, 2 * n, |work| {
                let (a, f) = work.split_at_mut(n);
                spectrum(a);
                for_each_point(gv.dims, |idx, mirror| {
                    a[idx] = a[idx].scale(even_kernel(idx, mirror));
                });
                fft.inverse_serial(a);
                // f = (ρ ε_xc, v_xc) per point
                pointwise(f, 1, |first, f| {
                    let n = f.len();
                    let mut r = [0.0; CHUNK];
                    for (r, &rho) in r.iter_mut().zip(&rho[first..first + n]) {
                        *r = rho.max(0.0);
                    }
                    let (mut eps, mut v) = ([0.0; CHUNK], [0.0; CHUNK]);
                    lda_chunk::<CHUNK>(&r[..n], &mut eps[..n], &mut v[..n]);
                    for (k, f) in f.iter_mut().enumerate() {
                        *f = c64::new(r[k] * eps[k], v[k]);
                    }
                });
                for (i, (f, rider)) in f.iter().zip(a.iter()).enumerate() {
                    e += f.re;
                    sink(i, f.im, rider.re);
                }
            }),
            // [ρ(G), then (ρ ε_xc, ∂f/∂ρ), (∂f/∂σ, 0) per point | w_y | w_z | xy | z_rider]:
            // the paired inverses are the last two slots, the forwards of
            // w = 2 ∂f/∂σ ∇ρ the three before them (xy's slot takes w_x)
            XcKind::Pbe => with_scratch(&SCRATCH, 6 * n, |work| {
                let (f, fields) = work.split_at_mut(2 * n);
                spectrum(&mut f[..n]);
                gradient_and_rider(fft, gv, even_kernel, &f[..n], &mut fields[2 * n..]);
                let (w, z_rider) = fields.split_at_mut(3 * n);
                // ρ(G) is spent: f takes the functional's three numbers
                let (xy, zr) = (&w[2 * n..], &*z_rider);
                pointwise(f, 2, |first, f| {
                    let n = f.len() / 2;
                    let (mut r, mut sigma) = ([0.0; CHUNK], [0.0; CHUNK]);
                    for k in 0..n {
                        let i = first + k;
                        let (gx, gy, gz) = (xy[i].re, xy[i].im, zr[i].re);
                        r[k] = rho[i].max(0.0);
                        sigma[k] = gx * gx + gy * gy + gz * gz;
                    }
                    let (mut eps, mut dfdr, mut dfds) = ([0.0; CHUNK], [0.0; CHUNK], [0.0; CHUNK]);
                    pbe_chunk::<CHUNK>(
                        &r[..n],
                        &sigma[..n],
                        &mut eps[..n],
                        &mut dfdr[..n],
                        &mut dfds[..n],
                    );
                    for (k, f) in f.chunks_exact_mut(2).enumerate() {
                        f[0] = c64::new(r[k] * eps[k], dfdr[k]);
                        f[1] = c64::real(dfds[k]);
                    }
                });
                let (wy, rest) = w.split_at_mut(n);
                let (wz, wx) = rest.split_at_mut(n);
                for (i, f) in f.chunks_exact(2).enumerate() {
                    let (gx, gy, gz) = (wx[i].re, wx[i].im, z_rider[i].re);
                    let dfds = f[1].re;
                    e += f[0].re;
                    wx[i] = c64::real(2.0 * dfds * gx);
                    wy[i] = c64::real(2.0 * dfds * gy);
                    wz[i] = c64::real(2.0 * dfds * gz);
                    // ∂f/∂ρ into ∂zρ's slot, beside the rider
                    z_rider[i].re = f[0].im;
                }
                // v_xc = ∂f/∂ρ − ∇·w
                fft.forward_batch(w);
                let (wy, rest) = w.split_at_mut(n);
                let (wz, wx) = rest.split_at_mut(n);
                for_each_point(gv.dims, |idx, mirror| {
                    let g = odd_g(gv, idx, mirror);
                    wx[idx] =
                        (wx[idx].scale(g[0]) + wy[idx].scale(g[1]) + wz[idx].scale(g[2])).mul_i();
                });
                fft.inverse_serial(wx);
                for (i, (div, z)) in wx.iter().zip(z_rider.iter()).enumerate() {
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
        let (eps, vv) = crate::lda_exc_vxc(0.3);
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
            let mut pair = vec![c64::ZERO; 2 * m];
            let yukawa = |idx: usize, _| 1.0 / (1.0 + s.gv.g2[idx]);
            gradient_and_rider(&s.fft, &s.gv, yukawa, &f, &mut pair);
            let (xy, zr) = pair.split_at(m);
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
