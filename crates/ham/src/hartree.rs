//! Hartree potential by G-space Poisson solve on the dense grid.
//!
//! `∇² v_H = −4π ρ` is one multiplication in G space: `v_H(G) = 4π/G² · ρ(G)`.
//! The transform pair around it is not run here: ρ(G) is the same spectrum
//! the XC gradient needs, and `v_H(G)` is Hermitian, so the kernel rides
//! through [`pt_xc::XcGridEvaluator::evaluate`] — one forward transform of ρ
//! for both, and `v_H` comes back in the imaginary slot of the `∂zρ`
//! inverse (see [`crate::KsSystem::potentials`]).

/// The Coulomb kernel `4π/|G|²` at `g2 = |G|²`. The G = 0 component is
/// dropped (jellium convention — it cancels against the pseudopotential
/// α-term and the Ewald background).
pub(crate) fn coulomb_kernel(g2: f64) -> f64 {
    if g2 > 1e-12 {
        4.0 * std::f64::consts::PI / g2
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_fft::Fft3;
    use pt_lattice::{Cell, GridGVectors};
    use pt_xc::{XcGridEvaluator, XcKind};

    /// `(v_H(r), E_H = ½ ∫ v_H ρ)` through the shared-ρ(G) pipeline, on its
    /// PBE side: `v_H` comes back paired with `∂zρ`.
    fn hartree_potential(
        rho: &[f64],
        fft: &Fft3,
        gv: &GridGVectors,
        volume: f64,
    ) -> (Vec<f64>, f64) {
        let mut vh = vec![0.0; rho.len()];
        XcGridEvaluator::new(XcKind::Pbe, volume).evaluate(
            fft,
            gv,
            rho,
            coulomb_kernel,
            |i, _, v| vh[i] = v,
        );
        let dv = volume / rho.len() as f64;
        let eh = 0.5 * pt_num::reduce::sum_f64(vh.iter().zip(rho).map(|(v, r)| v * r)) * dv;
        (vh, eh)
    }

    #[test]
    fn plane_wave_density_analytic() {
        // ρ(r) = cos(G₀·x): v_H must be (4π/G₀²) cos(G₀·x)
        let l = 10.0;
        let n = 16;
        let cell = Cell::cubic(l);
        let gv = GridGVectors::new(&cell, (n, n, n));
        let fft = Fft3::new(n, n, n);
        let g0 = 2.0 * std::f64::consts::PI / l;
        let mut rho = vec![0.0; n * n * n];
        for iz in 0..n {
            for iy in 0..n {
                for ix in 0..n {
                    rho[ix + n * (iy + n * iz)] = (g0 * ix as f64 * l / n as f64).cos();
                }
            }
        }
        let (vh, eh) = hartree_potential(&rho, &fft, &gv, cell.volume());
        let scale = 4.0 * std::f64::consts::PI / (g0 * g0);
        for (i, &v) in vh.iter().enumerate() {
            let ix = i % n;
            let want = scale * (g0 * ix as f64 * l / n as f64).cos();
            assert!((v - want).abs() < 1e-10, "{v} vs {want}");
        }
        // E_H = ½ ∫ vρ = ½·scale·(Ω/2)
        let want_e = 0.5 * scale * cell.volume() / 2.0;
        assert!((eh - want_e).abs() < 1e-8 * want_e, "{eh} vs {want_e}");
    }

    #[test]
    fn gaussian_charge_matches_erf_solution() {
        // ρ(r) = q (a/π)^{3/2} e^{−a r²} (periodized): v_H(r) ≈ q erf(√a r)/r
        // near the center of a large box, up to the uniform-background const.
        let l = 24.0;
        let n = 48;
        let a = 2.0;
        let q = 1.0;
        let cell = Cell::cubic(l);
        let gv = GridGVectors::new(&cell, (n, n, n));
        let fft = Fft3::new(n, n, n);
        let norm = q * (a / std::f64::consts::PI).powf(1.5);
        let c = l / 2.0;
        let mut rho = vec![0.0; n * n * n];
        for iz in 0..n {
            for iy in 0..n {
                for ix in 0..n {
                    let dx = ix as f64 * l / n as f64 - c;
                    let dy = iy as f64 * l / n as f64 - c;
                    let dz = iz as f64 * l / n as f64 - c;
                    let r2 = dx * dx + dy * dy + dz * dz;
                    rho[ix + n * (iy + n * iz)] = norm * (-a * r2).exp();
                }
            }
        }
        let (vh, _eh) = hartree_potential(&rho, &fft, &gv, cell.volume());
        // compare differences of v_H (kills the G=0 constant) at two radii
        let at = |fx: f64| {
            let ix = (fx * n as f64).round() as usize;
            let iy = n / 2;
            let iz = n / 2;
            let r = (ix as f64 * l / n as f64 - c).abs();
            (vh[ix + n * (iy + n * iz)], r)
        };
        let (v1, r1) = at(0.58);
        let (v2, r2) = at(0.70);
        let exact = |r: f64| q * pt_num::erf(a.sqrt() * r) / r;
        let want = exact(r1) - exact(r2);
        let got = v1 - v2;
        assert!(
            (got - want).abs() < 6e-3,
            "images+grid residual too large: {got} vs {want}"
        );
    }

    /// The potential update as it ran before the pipeline: ρ(G) once per
    /// consumer, the raw G table, one real field per inverse transform and
    /// `.re` of it. Returns `(E_xc, v_xc, v_H)`.
    fn one_field_per_inverse(
        fft: &Fft3,
        gv: &GridGVectors,
        volume: f64,
        rho: &[f64],
    ) -> (f64, Vec<f64>, Vec<f64>) {
        use pt_num::c64;
        let n = rho.len();
        let spectrum = |f: &[f64]| {
            let mut z: Vec<c64> = f.iter().map(|&v| c64::real(v)).collect();
            fft.forward(&mut z);
            z
        };
        let real_inverse = |mut z: Vec<c64>| -> Vec<f64> {
            fft.inverse(&mut z);
            z.iter().map(|z| z.re).collect()
        };
        let rho_g = spectrum(rho);
        let vh = real_inverse(
            rho_g
                .iter()
                .zip(&gv.g2)
                .map(|(z, &g2)| z.scale(coulomb_kernel(g2)))
                .collect(),
        );
        let grad: Vec<Vec<f64>> = (0..3)
            .map(|d| {
                real_inverse(
                    rho_g
                        .iter()
                        .zip(&gv.g_cart)
                        .map(|(z, g)| z.mul_i().scale(g[d]))
                        .collect(),
                )
            })
            .collect();
        let mut e = 0.0;
        let mut dfdr = vec![0.0; n];
        let mut w = vec![vec![0.0; n]; 3];
        for i in 0..n {
            let sigma = grad[0][i] * grad[0][i] + grad[1][i] * grad[1][i] + grad[2][i] * grad[2][i];
            let r = rho[i].max(0.0);
            let (eps, dr, ds) = pt_xc::pbe_exc_vxc(r, sigma);
            e += r * eps;
            dfdr[i] = dr;
            for d in 0..3 {
                w[d][i] = 2.0 * ds * grad[d][i];
            }
        }
        let mut div_g = vec![c64::ZERO; n];
        for (d, wd) in w.iter().enumerate() {
            for ((acc, z), g) in div_g.iter_mut().zip(spectrum(wd)).zip(&gv.g_cart) {
                *acc += z.mul_i().scale(g[d]);
            }
        }
        let div = real_inverse(div_g);
        let vxc = dfdr.iter().zip(&div).map(|(a, b)| a - b).collect();
        (e * volume / n as f64, vxc, vh)
    }

    #[test]
    fn paired_inverses_match_one_field_per_inverse() {
        // even dims put a Nyquist plane on every axis — where iG·ρ(G) of
        // the raw table is not Hermitian — odd dims have none; the sheared
        // cell makes every G_d depend on every Miller index. White noise
        // has power on all of it.
        let sheared = Cell::new([[7.0, 0.0, 0.0], [1.5, 6.0, 0.0], [-1.0, 2.0, 5.0]]);
        let cases = [
            (Cell::orthorhombic(7.0, 6.0, 5.0), (12, 10, 8)),
            (sheared, (12, 10, 8)),
            (Cell::cubic(6.0), (15, 15, 15)),
        ];
        for (cell, dims) in cases {
            let gv = GridGVectors::new(&cell, dims);
            let fft = Fft3::new(dims.0, dims.1, dims.2);
            let mut rng = pt_num::rng::XorShift64::new(7);
            let rho: Vec<f64> = (0..gv.len())
                .map(|_| 0.05 + 0.04 * rng.next_centered())
                .collect();
            let (e_want, vxc_want, vh_want) = one_field_per_inverse(&fft, &gv, cell.volume(), &rho);
            let (mut vxc, mut vh) = (vec![0.0; rho.len()], vec![0.0; rho.len()]);
            let e = XcGridEvaluator::new(XcKind::Pbe, cell.volume()).evaluate(
                &fft,
                &gv,
                &rho,
                coulomb_kernel,
                |i, x, h| (vxc[i], vh[i]) = (x, h),
            );
            assert!((e - e_want).abs() < 1e-13 * e_want.abs(), "{e} vs {e_want}");
            let scale = |v: &[f64]| pt_num::reduce::max_f64(v.iter().map(|x| x.abs()));
            for (got, want) in [(&vxc, &vxc_want), (&vh, &vh_want)] {
                let tol = 1e-13 * scale(want);
                for (a, b) in got.iter().zip(want.iter()) {
                    assert!((a - b).abs() < tol, "{dims:?}: {a} vs {b} (tol {tol:e})");
                }
            }
        }
    }
}
