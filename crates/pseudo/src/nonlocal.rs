//! Kleinman–Bylander separable nonlocal pseudopotential.
//!
//! `V_NL = Σ_{a,l,i,m} |β_{a,l,i,m}⟩ h^l_i ⟨β_{a,l,i,m}|`, with plane-wave
//! matrix elements
//! `β(G) = Ω^{-1/2} (−i)^l  p̃_{il}(|G|) Y_lm(Ĝ) e^{−iG·τ_a}`,
//! `p̃_{il}(g) = 4π ∫ p_{il}(r) j_l(gr) r² dr`.
//!
//! The radial transform is evaluated by quadrature at construction (exact
//! to ~1e-10 for these Gaussians), which sidesteps transcription errors in
//! the analytic GTH Fourier formulas; the quadrature itself is validated in
//! tests by Parseval's theorem.
//!
//! A real-space sparse application path ([`NonlocalPs::apply_real_space`])
//! mirrors the paper's choice (§3.2: real-space projectors stored as sparse
//! vectors on every processor, >5× faster than reciprocal space for
//! hundreds of atoms, zero communication).

use crate::gth::{gth_parameters, GthParams};
use pt_lattice::{GSphere, Species, Structure};
use pt_num::c64;
use std::fmt;

/// Highest angular momentum channel this implementation evaluates (the
/// GTH Si/C/H sets here stop at p channels).
pub const MAX_ANGULAR_MOMENTUM: usize = 1;

/// A pseudopotential requested an angular-momentum channel this
/// implementation does not evaluate (`l > 1`: no j_l / Y_lm tables).
/// Construction reports it as a value — `KsSystemBuilder::build` converts
/// it into `PtError::InvalidConfig`, so an exotic pseudopotential request
/// fails cleanly instead of aborting the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnsupportedAngularMomentum {
    /// Species whose parameter set carries the channel.
    pub species: Species,
    /// The offending angular momentum.
    pub l: usize,
}

impl fmt::Display for UnsupportedAngularMomentum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pseudopotential for {:?} requests an l = {} channel; this implementation evaluates l <= {}",
            self.species, self.l, MAX_ANGULAR_MOMENTUM
        )
    }
}

impl std::error::Error for UnsupportedAngularMomentum {}

/// Spherical Bessel functions j_0, j_1. Callers are guarded by the l ≤ 1
/// channel validation in [`NonlocalPs::with_parameters`].
fn sph_bessel(l: usize, x: f64) -> f64 {
    if x.abs() < 0.05 {
        // series to O(x⁴): avoids the 1/x − 1/x cancellation in the exact
        // j₁ formula, which loses ~6 digits below x ≈ 1e-5
        let x2 = x * x;
        return match l {
            0 => 1.0 - x2 / 6.0 + x2 * x2 / 120.0,
            _ => x / 3.0 * (1.0 - x2 / 10.0 + x2 * x2 / 280.0),
        };
    }
    match l {
        0 => x.sin() / x,
        _ => x.sin() / (x * x) - x.cos() / x,
    }
}

/// Real spherical harmonics with unit L² norm on the sphere
/// (Y_00 = 1/√4π, Y_1m = √(3/4π)·{x̂,ŷ,ẑ}). Callers are guarded by the
/// l ≤ 1 channel validation in [`NonlocalPs::with_parameters`].
fn real_ylm(l: usize, m: usize, ghat: [f64; 3]) -> f64 {
    let fourpi = 4.0 * std::f64::consts::PI;
    match (l, m) {
        (0, 0) => 1.0 / fourpi.sqrt(),
        (1, 0) => (3.0 / fourpi).sqrt() * ghat[0],
        (1, 1) => (3.0 / fourpi).sqrt() * ghat[1],
        _ => (3.0 / fourpi).sqrt() * ghat[2],
    }
}

/// One separable projector: its plane-wave coefficients and coupling h.
#[derive(Clone, Debug)]
pub struct Projector {
    /// Coefficients β(G) over the wavefunction sphere.
    pub beta: Vec<c64>,
    /// KB coupling constant h (Ha).
    pub h: f64,
    /// Owning atom index (for bookkeeping/diagnostics).
    pub atom: usize,
    /// Angular momentum l.
    pub l: usize,
}

/// The assembled nonlocal pseudopotential for a structure on a sphere.
#[derive(Clone, Debug)]
pub struct NonlocalPs {
    /// All separable projectors.
    pub projectors: Vec<Projector>,
}

impl NonlocalPs {
    /// Build every projector for `structure` over `sphere` using the
    /// built-in GTH parameter tables.
    pub fn new(
        structure: &Structure,
        sphere: &GSphere,
    ) -> Result<Self, UnsupportedAngularMomentum> {
        let params: Vec<GthParams> = structure
            .atoms
            .iter()
            .map(|a| gth_parameters(a.species))
            .collect();
        Self::with_parameters(structure, sphere, &params)
    }

    /// Build from explicit per-atom parameter sets (one entry per atom of
    /// `structure`, in order). Channels beyond the implemented angular
    /// momenta are rejected up front with a typed error — this is the
    /// validation gate behind which [`sph_bessel`] / [`real_ylm`] may
    /// assume `l ≤ 1`.
    pub fn with_parameters(
        structure: &Structure,
        sphere: &GSphere,
        per_atom: &[GthParams],
    ) -> Result<Self, UnsupportedAngularMomentum> {
        assert_eq!(
            per_atom.len(),
            structure.atoms.len(),
            "one GthParams entry per atom"
        );
        for params in per_atom {
            for &(l, _, _) in &params.channels {
                if l > MAX_ANGULAR_MOMENTUM {
                    return Err(UnsupportedAngularMomentum {
                        species: params.species,
                        l,
                    });
                }
            }
        }
        let vol = structure.cell.volume();
        let positions = structure.cart_positions();
        let mut projectors = Vec::new();
        for (ia, params) in per_atom.iter().enumerate() {
            let tau = positions[ia];
            for &(l, rl, h12) in &params.channels {
                for i in 1..=2usize {
                    let h = h12[i - 1];
                    if h == 0.0 {
                        continue;
                    }
                    // radial transform table: evaluate p̃(g) per unique |G|
                    // via 300-pt Simpson on [0, 12 r_l]
                    let radial = |g: f64| -> f64 {
                        let rmax = 12.0 * rl;
                        let n = 300;
                        let hstep = rmax / n as f64;
                        let mut s = 0.0;
                        for k in 0..=n {
                            let r = k as f64 * hstep;
                            let w = if k == 0 || k == n {
                                1.0
                            } else if k % 2 == 1 {
                                4.0
                            } else {
                                2.0
                            };
                            s += w
                                * params.projector_radial(i, l, rl, r)
                                * sph_bessel(l, g * r)
                                * r
                                * r;
                        }
                        4.0 * std::f64::consts::PI * s * hstep / 3.0
                    };
                    let nm = 2 * l + 1;
                    let mut betas: Vec<Vec<c64>> = vec![vec![c64::ZERO; sphere.len()]; nm];
                    let ptilde: Vec<f64> =
                        pt_par::parallel_map(sphere.len(), |k| radial(sphere.g2[k].sqrt()));
                    let il = match l % 4 {
                        0 => c64::ONE,
                        1 => -c64::I, // (−i)^1
                        2 => -c64::ONE,
                        _ => c64::I,
                    };
                    for (k, (&g2, gv)) in sphere.g2.iter().zip(&sphere.g_cart).enumerate() {
                        let g = g2.sqrt();
                        let ghat = if g > 1e-12 {
                            [gv[0] / g, gv[1] / g, gv[2] / g]
                        } else {
                            [0.0, 0.0, 0.0]
                        };
                        let phase = c64::cis(-(gv[0] * tau[0] + gv[1] * tau[1] + gv[2] * tau[2]));
                        for (m, beta) in betas.iter_mut().enumerate() {
                            let y = if g > 1e-12 {
                                real_ylm(l, m, ghat)
                            } else if l == 0 {
                                real_ylm(0, 0, [0.0, 0.0, 1.0])
                            } else {
                                0.0
                            };
                            beta[k] = il * phase * (ptilde[k] * y / vol.sqrt());
                        }
                    }
                    for beta in betas {
                        projectors.push(Projector {
                            beta,
                            h,
                            atom: ia,
                            l,
                        });
                    }
                }
            }
        }
        Ok(NonlocalPs { projectors })
    }

    /// Apply `V_NL` to a single orbital's coefficients: `out += V_NL ψ`,
    /// one projector at a time (its amplitude depends on `psi` alone, so
    /// nothing needs staging).
    pub fn apply(&self, psi: &[c64], out: &mut [c64]) {
        for proj in &self.projectors {
            let amp = pt_num::complex::zdotc(&proj.beta, psi).scale(proj.h);
            pt_num::complex::zaxpy(amp, &proj.beta, out);
        }
    }

    /// Apply to a block of orbitals (columns of length N_G stored
    /// contiguously), parallel over bands — the band-index layout of §3.1.
    pub fn apply_block(&self, psis: &[c64], out: &mut [c64], ng: usize) {
        assert_eq!(psis.len(), out.len());
        assert_eq!(psis.len() % ng, 0);
        pt_par::parallel_chunks_mut(out, ng, |b, o| {
            self.apply(&psis[b * ng..(b + 1) * ng], o);
        });
    }

    /// Nonlocal energy Σ_i f_i Σ_p h_p |⟨β_p|ψ_i⟩|².
    pub fn energy(&self, psis: &[c64], ng: usize, occ: &[f64]) -> f64 {
        // parallel per-band energies materialized in band order, then the
        // canonical serial sum — the reduction order is pinned by
        // `pt_num::reduce`, not by the pool schedule
        let per_band: Vec<f64> = pt_par::parallel_map(occ.len().min(psis.len() / ng), |b| {
            let p = &psis[b * ng..(b + 1) * ng];
            let mut e = 0.0;
            for proj in &self.projectors {
                e += proj.h * pt_num::complex::zdotc(&proj.beta, p).norm_sqr();
            }
            occ[b] * e
        });
        pt_num::reduce::sum_f64(per_band)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_lattice::{fft_dims_for_cutoff, silicon_cubic_supercell};

    #[test]
    fn bessel_small_argument_series() {
        for x in [1e-8f64, 1e-7] {
            assert!((sph_bessel(0, x) - 1.0).abs() < 1e-12);
            assert!((sph_bessel(1, x) - x / 3.0).abs() < 1e-12);
        }
        // series matches the exact formula evaluated at the same x just
        // inside the switch (x = 0.04 < 0.05)
        let x = 0.04f64;
        assert!((sph_bessel(0, x) - x.sin() / x).abs() < 1e-12);
        assert!((sph_bessel(1, x) - (x.sin() / (x * x) - x.cos() / x)).abs() < 1e-9);
        // series matches exact formula just above the switch
        assert!((sph_bessel(0, 0.06) - (0.06f64.sin() / 0.06)).abs() < 1e-12);
        let j1 = 0.06f64.sin() / 0.0036 - 0.06f64.cos() / 0.06;
        assert!((sph_bessel(1, 0.06) - j1).abs() < 1e-12);
    }

    #[test]
    fn ylm_orthonormal_on_lebedev_like_grid() {
        // crude check: average of Y·Y' over many random directions ≈ δ/4π
        let mut rng = pt_num::rng::XorShift64::new(12345u64);
        let dirs: Vec<[f64; 3]> = (0..200_000)
            .map(|_| loop {
                let v = [
                    rng.next_centered(),
                    rng.next_centered(),
                    rng.next_centered(),
                ];
                let n2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
                if n2 > 1e-4 && n2 < 0.25 {
                    let n = n2.sqrt();
                    return [v[0] / n, v[1] / n, v[2] / n];
                }
            })
            .collect();
        let pairs = [(0usize, 0usize), (1, 0), (1, 1), (1, 2)];
        for (a, &(la, ma)) in pairs.iter().enumerate() {
            for (b, &(lb, mb)) in pairs.iter().enumerate() {
                let avg: f64 = dirs
                    .iter()
                    .map(|&d| real_ylm(la, ma, d) * real_ylm(lb, mb, d))
                    .sum::<f64>()
                    / dirs.len() as f64;
                let want = if a == b {
                    1.0 / (4.0 * std::f64::consts::PI)
                } else {
                    0.0
                };
                assert!((avg - want).abs() < 4e-3, "({la}{ma})({lb}{mb}) avg={avg}");
            }
        }
    }

    #[test]
    fn projector_parseval() {
        // ∫ p̃(G)² G² dG = (2π)³ ∫ p(r)² r² dr = (2π)³ (normalized radials)
        let p = gth_parameters(pt_lattice::Species::Si);
        let (l, rl, _h) = p.channels[0];
        let radial_ft = |g: f64| {
            let rmax = 12.0 * rl;
            let n = 400;
            let h = rmax / n as f64;
            let mut s = 0.0;
            for k in 0..=n {
                let r = k as f64 * h;
                let w = if k == 0 || k == n {
                    1.0
                } else if k % 2 == 1 {
                    4.0
                } else {
                    2.0
                };
                s += w * p.projector_radial(1, l, rl, r) * sph_bessel(l, g * r) * r * r;
            }
            4.0 * std::f64::consts::PI * s * h / 3.0
        };
        // ∫₀^∞ p̃² g² dg by quadrature
        let gmax = 30.0 / rl.sqrt();
        let n = 600;
        let h = gmax / n as f64;
        let mut s = 0.0;
        for k in 0..=n {
            let g = k as f64 * h;
            let w = if k == 0 || k == n {
                1.0
            } else if k % 2 == 1 {
                4.0
            } else {
                2.0
            };
            let v = radial_ft(g);
            s += w * v * v * g * g;
        }
        s *= h / 3.0;
        let want = (2.0 * std::f64::consts::PI).powi(3);
        assert!((s / want - 1.0).abs() < 1e-6, "{s} vs {want}");
    }

    #[test]
    fn nonlocal_is_hermitian_and_low_rank() {
        let s = silicon_cubic_supercell(1, 1, 1);
        let dims = fft_dims_for_cutoff(&s.cell, 3.0);
        let sphere = GSphere::new(&s.cell, 3.0, dims);
        let nl = NonlocalPs::new(&s, &sphere).unwrap();
        // Si: 2 s-projectors + 3 p-projectors per atom = 5 × 8 atoms
        assert_eq!(nl.projectors.len(), 40);
        let ng = sphere.len();
        // Hermiticity: ⟨a|V b⟩ = ⟨V a|b⟩ for random vectors
        let mut rng = pt_num::rng::XorShift64::new(7u64);
        let a: Vec<c64> = (0..ng)
            .map(|_| c64::new(rng.next_centered(), rng.next_centered()))
            .collect();
        let b: Vec<c64> = (0..ng)
            .map(|_| c64::new(rng.next_centered(), rng.next_centered()))
            .collect();
        let mut va = vec![c64::ZERO; ng];
        let mut vb = vec![c64::ZERO; ng];
        nl.apply(&a, &mut va);
        nl.apply(&b, &mut vb);
        let lhs = pt_num::complex::zdotc(&a, &vb);
        let rhs = pt_num::complex::zdotc(&va, &b);
        assert!((lhs - rhs).abs() < 1e-10 * (1.0 + lhs.abs()));
    }

    #[test]
    fn apply_block_matches_apply() {
        let s = silicon_cubic_supercell(1, 1, 1);
        let dims = fft_dims_for_cutoff(&s.cell, 2.0);
        let sphere = GSphere::new(&s.cell, 2.0, dims);
        let nl = NonlocalPs::new(&s, &sphere).unwrap();
        let ng = sphere.len();
        let nb = 3;
        let mut rng = pt_num::rng::XorShift64::new(99u64);
        let psis: Vec<c64> = (0..ng * nb)
            .map(|_| c64::new(rng.next_centered(), rng.next_centered()))
            .collect();
        let mut out1 = vec![c64::ZERO; ng * nb];
        nl.apply_block(&psis, &mut out1, ng);
        let mut out2 = vec![c64::ZERO; ng * nb];
        for b in 0..nb {
            nl.apply(&psis[b * ng..(b + 1) * ng], &mut out2[b * ng..(b + 1) * ng]);
        }
        let err = out1
            .iter()
            .zip(&out2)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-12);
    }

    #[test]
    fn exotic_angular_momentum_is_a_typed_error_not_a_panic() {
        // a d channel (l = 2) has no j_2 / Y_2m tables here; requesting it
        // must fail cleanly with the offending channel identified
        let s = silicon_cubic_supercell(1, 1, 1);
        let dims = fft_dims_for_cutoff(&s.cell, 2.0);
        let sphere = GSphere::new(&s.cell, 2.0, dims);
        let mut per_atom: Vec<GthParams> =
            s.atoms.iter().map(|a| gth_parameters(a.species)).collect();
        per_atom[0].channels.push((2, 0.4, [1.0, 0.0]));
        let err = NonlocalPs::with_parameters(&s, &sphere, &per_atom).unwrap_err();
        assert_eq!(err.l, 2);
        assert!(err.to_string().contains("l = 2"), "{err}");
        // the stock tables stay valid
        assert!(NonlocalPs::new(&s, &sphere).is_ok());
    }
}
