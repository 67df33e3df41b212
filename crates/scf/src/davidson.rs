//! Preconditioned block-Davidson eigensolver for the lowest Kohn–Sham
//! states.
//!
//! H touches each direction once. The initial block gets `HX = H·X` and a
//! Rayleigh–Ritz; every iteration after that forms the residual
//! `R = HX − Xλ` from the carried `HX`, expands with the Teter-
//! preconditioned, orthonormalized `W = T⁻¹R`, applies H to `W` alone, and
//! runs Rayleigh–Ritz on `[X | W]` with images `[HX | HW]`, keeping the
//! lowest `n_bands` states. The rotation that makes the new `X` is applied
//! to `[HX | HW]` too, so `HX` stays the image of `X` without another
//! application. This is the restart-every-step cousin of LOBPCG: slightly
//! more H-applications, far fewer numerical hazards.

use pt_ham::Hamiltonian;
use pt_linalg::{eigh, gemm, CMat, Op};
use pt_num::c64;

/// Solver options.
#[derive(Clone, Copy, Debug)]
pub struct DavidsonOptions {
    /// Maximum outer iterations.
    pub max_iter: usize,
    /// Convergence threshold on max residual 2-norm.
    pub tol: f64,
}

/// Solver outcome.
pub struct DavidsonResult {
    /// Eigenvalues, ascending.
    pub eigenvalues: Vec<f64>,
    /// Max residual norm at exit.
    pub residual: f64,
    /// Iterations used.
    pub iterations: usize,
}

/// Teter–Payne–Allan preconditioner factor for one coefficient: a smooth
/// approximation of `1/(kin/e_kin_band)` that is ≈1 for low-G and decays
/// as `(e_band/kin)` for high-G components.
pub fn teter_preconditioner(kin: f64, e_kin_band: f64) -> f64 {
    let x = kin / e_kin_band.max(1e-12);
    let x2 = x * x;
    let x3 = x2 * x;
    let num = 27.0 + 18.0 * x + 12.0 * x2 + 8.0 * x3;
    num / (num + 16.0 * x3 * x)
}

/// Orthonormalize the columns of `x` in place; the tiny diagonal shift
/// keeps nearly linearly dependent residual blocks factorable.
fn orthonormalize(x: &mut CMat) {
    pt_linalg::orthonormalize_columns(x, 1e-12);
}

/// Canonical orthonormalization: returns `x · V · λ^{-1/2}` keeping only
/// overlap eigenpairs with λ above `thresh` — linearly dependent columns
/// (e.g. noise-amplified residuals of already-converged bands) are dropped
/// instead of being normalized back into the subspace.
fn canonical_orthonormalize(x: &CMat, thresh: f64) -> CMat {
    let n = x.ncols();
    let mut s = CMat::zeros(n, n);
    gemm(c64::ONE, x, Op::ConjTrans, x, Op::None, c64::ZERO, &mut s);
    let (w, v) = eigh(&s);
    let keep: Vec<usize> = (0..n).filter(|&i| w[i] > thresh).collect();
    let mut t = CMat::zeros(n, keep.len());
    for (jn, &jo) in keep.iter().enumerate() {
        let scale = 1.0 / w[jo].sqrt();
        let src: Vec<c64> = v.col(jo).iter().map(|z| z.scale(scale)).collect();
        t.col_mut(jn).copy_from_slice(&src);
    }
    let mut out = CMat::zeros(x.nrows(), keep.len());
    gemm(c64::ONE, x, Op::None, &t, Op::None, c64::ZERO, &mut out);
    out
}

/// `w ← w − X (X^H w)`: remove the span of the orthonormal `x` from `w`.
fn project_out(x: &CMat, w: &mut CMat) {
    let mut xtw = CMat::zeros(x.ncols(), w.ncols());
    gemm(c64::ONE, x, Op::ConjTrans, w, Op::None, c64::ZERO, &mut xtw);
    gemm(-c64::ONE, x, Op::None, &xtw, Op::None, c64::ONE, w);
}

/// `[a | b]`, the columns of `b` after those of `a`.
fn hstack(a: &CMat, b: &CMat) -> CMat {
    CMat::from_vec(
        a.nrows(),
        a.ncols() + b.ncols(),
        [a.data(), b.data()].concat(),
    )
}

/// Rayleigh–Ritz on the orthonormal `basis` with images `hbasis = H·basis`:
/// the lowest `nb` Ritz values, and the Ritz vectors with their images
/// (`basis` and `hbasis` rotated by the same eigenvectors).
fn rayleigh_ritz(basis: &CMat, hbasis: &CMat, nb: usize) -> (Vec<f64>, CMat, CMat) {
    let m = basis.ncols();
    let mut s = CMat::zeros(m, m);
    gemm(
        c64::ONE,
        basis,
        Op::ConjTrans,
        hbasis,
        Op::None,
        c64::ZERO,
        &mut s,
    );
    let (w, v) = eigh(&s);
    // columns are contiguous: the lowest nb eigenvectors are a prefix
    let vkeep = CMat::from_vec(m, nb, v.data()[..m * nb].to_vec());
    let rotate = |b: &CMat| {
        let mut out = CMat::zeros(b.nrows(), nb);
        gemm(c64::ONE, b, Op::None, &vkeep, Op::None, c64::ZERO, &mut out);
        out
    };
    (w[..nb].to_vec(), rotate(basis), rotate(hbasis))
}

/// Find the lowest `x.ncols()` eigenpairs of `h`; `x` holds the initial
/// guess on entry and the eigenvectors on exit. A non-finite Ritz value
/// (a NaN or infinity in `h`) ends the solve with a NaN residual.
pub fn lowest_eigenpairs(h: &Hamiltonian, x: &mut CMat, opts: DavidsonOptions) -> DavidsonResult {
    let ng = x.nrows();
    let nb = x.ncols();
    orthonormalize(x);
    let kin = h.kinetic_diag();
    // the only application to X: from here on HX is rotated along with it
    let mut hx = CMat::zeros(ng, nb);
    h.apply_block(x, &mut hx);
    let mut evals;
    (evals, *x, hx) = rayleigh_ritz(x, &hx, nb);
    let mut resid = f64::INFINITY;
    let mut iterations = 0;

    let finite = |evals: &[f64]| evals.iter().all(|e| e.is_finite());
    for it in 0..opts.max_iter {
        if !finite(&evals) {
            break;
        }
        iterations = it + 1;
        // residuals R = HX − Xλ, preconditioned expansion W
        let mut wblk = CMat::zeros(ng, nb);
        resid = 0.0f64;
        #[allow(
            clippy::needless_range_loop,
            reason = "j indexes x, hx, evals and wblk together"
        )]
        for j in 0..nb {
            // band kinetic energy for the Teter scale, floored so that
            // near-zero-kinetic bands (the G = 0 state) are not crushed
            let ekin: f64 =
                pt_num::reduce::sum_f64(x.col(j).iter().zip(&kin).map(|(c, k)| k * c.norm_sqr()))
                    .max(0.1);
            let mut rn = 0.0;
            for (i, wv) in wblk.col_mut(j).iter_mut().enumerate() {
                let r = hx.col(j)[i] - x.col(j)[i].scale(evals[j]);
                rn += r.norm_sqr();
                *wv = r.scale(teter_preconditioner(kin[i], ekin));
            }
            resid = resid.max(rn.sqrt());
            // scale-free thresholding downstream: normalize the column
            if rn > 0.0 {
                let wn = pt_num::complex::znrm2(wblk.col(j));
                if wn > 1e-300 {
                    for z in wblk.col_mut(j) {
                        *z = z.scale(1.0 / wn);
                    }
                }
            }
        }
        if resid < opts.tol {
            break;
        }

        // project W against X, then canonically orthonormalize (dropping
        // the noise directions of already-converged bands). The λ^{-1/2}
        // scaling can amplify what the first projection left of X by up to
        // 1e5, so a second projection makes [X | W] orthonormal to rounding
        project_out(x, &mut wblk);
        let mut wkeep = canonical_orthonormalize(&wblk, 1e-10);
        if wkeep.ncols() == 0 {
            break; // nothing left to expand with: fully converged subspace
        }
        project_out(x, &mut wkeep);

        // H on the new directions only; Rayleigh-Ritz on [X | W]
        let mut hw = CMat::zeros(ng, wkeep.ncols());
        h.apply_block(&wkeep, &mut hw);
        (evals, *x, hx) = rayleigh_ritz(&hstack(x, &wkeep), &hstack(&hx, &hw), nb);
    }
    if !finite(&evals) {
        resid = f64::NAN;
    }
    DavidsonResult {
        eigenvalues: evals,
        residual: resid,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_ham::{HybridConfig, KsSystem, PwGrids};
    use pt_lattice::silicon_cubic_supercell;
    use pt_xc::XcKind;
    use std::sync::Arc;

    #[test]
    fn teter_limits() {
        // low-G: ≈ 1; high-G: decays like 27/(16 x⁴)·... → small
        assert!((teter_preconditioner(0.0, 1.0) - 1.0).abs() < 1e-12);
        assert!(teter_preconditioner(0.1, 1.0) > 0.9);
        assert!(teter_preconditioner(50.0, 1.0) < 0.02); // ~ 1/(2x)
    }

    /// The zero-potential Hamiltonian of Si-8's sphere at ecut 2 (no
    /// nonlocal part, no exchange) and a seeded random 5-band guess.
    fn free_electron() -> (Hamiltonian, CMat) {
        let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(XcKind::Lda)
            .build()
            .unwrap();
        let grids: &Arc<PwGrids> = &sys.grids;
        // built via struct: V = 0 and no projectors
        let h = Hamiltonian {
            grids: Arc::clone(grids),
            vloc_r: vec![0.0; grids.n_dense()],
            nonlocal: Arc::new(pt_pseudo::NonlocalPs { projectors: vec![] }),
            fock: None,
            a_field: [0.0; 3],
        };
        let mut rng = pt_num::rng::XorShift64::new(1);
        let x = CMat::from_fn(grids.ng(), 5, |_, _| {
            c64::new(rng.next_centered(), rng.next_centered())
        });
        (h, x)
    }

    /// Si-8 HSE06 at ecut 2 on the uniform density: the hybrid Hamiltonian
    /// whose exchange operator is defined by Φ, the lowest states of the
    /// semi-local one, and Φ itself.
    fn hybrid_si8() -> (Hamiltonian, CMat) {
        let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(XcKind::Pbe)
            .hybrid(HybridConfig::hse06())
            .build()
            .unwrap();
        let ne: f64 = sys.occupations.iter().sum();
        let rho = vec![ne / sys.grids.volume; sys.grids.n_dense()];
        let mut phi = CMat::rand_normalized(sys.grids.ng(), sys.n_bands(), 11);
        let local = sys.local_hamiltonian(&rho, [0.0; 3]).unwrap();
        let opts = DavidsonOptions {
            max_iter: 20,
            tol: 1e-6,
        };
        lowest_eigenpairs(&local, &mut phi, opts);
        let h = sys.hamiltonian(&rho, Some(&phi), [0.0; 3]).unwrap();
        (h, phi)
    }

    /// max_j ‖H x_j − λ_j x_j‖ with H applied afresh.
    fn fresh_residual(h: &Hamiltonian, x: &CMat, evals: &[f64]) -> f64 {
        let mut hx = CMat::zeros(x.nrows(), x.ncols());
        h.apply_block(x, &mut hx);
        (0..x.ncols())
            .map(|j| {
                let r: Vec<c64> = hx
                    .col(j)
                    .iter()
                    .zip(x.col(j))
                    .map(|(hv, v)| *hv - v.scale(evals[j]))
                    .collect();
                pt_num::complex::znrm2(&r)
            })
            .fold(0.0, f64::max)
    }

    /// Free-electron check: with V = 0 the eigenvalues must be the lowest
    /// ½|G|² values of the sphere.
    #[test]
    fn free_electron_bands() {
        let (h, mut x) = free_electron();
        let nb = x.ncols();
        let r = lowest_eigenpairs(
            &h,
            &mut x,
            DavidsonOptions {
                max_iter: 60,
                tol: 1e-9,
            },
        );
        // exact: sphere g2 sorted ascending; lowest nb values of ½|G|²
        let mut kin: Vec<f64> = h.grids.sphere.g2.iter().map(|g| 0.5 * g).collect();
        kin.sort_by(|a, b| a.partial_cmp(b).unwrap());
        #[allow(
            clippy::needless_range_loop,
            reason = "j indexes eigenvalues and kin together"
        )]
        for j in 0..nb {
            assert!(
                (r.eigenvalues[j] - kin[j]).abs() < 1e-7,
                "band {j}: {} vs {}",
                r.eigenvalues[j],
                kin[j]
            );
        }
        assert!(r.residual < 1e-7);
    }

    /// With a weak cosine potential the lowest band must drop below the
    /// free-electron value (second-order perturbation theory sign check).
    #[test]
    fn weak_potential_lowers_ground_state() {
        let s = silicon_cubic_supercell(1, 1, 1);
        let sys = KsSystem::builder(s.clone())
            .ecut(2.0)
            .xc(XcKind::Lda)
            .build()
            .unwrap();
        let grids = &sys.grids;
        let (n1, _n2, _n3) = grids.fft_dense.dims();
        let vloc: Vec<f64> = (0..grids.n_dense())
            .map(|i| {
                let ix = i % n1;
                0.3 * (2.0 * std::f64::consts::PI * ix as f64 / n1 as f64).cos()
            })
            .collect();
        let h = pt_ham::Hamiltonian {
            grids: Arc::clone(grids),
            vloc_r: vloc,
            nonlocal: Arc::new(pt_pseudo::NonlocalPs { projectors: vec![] }),
            fock: None,
            a_field: [0.0; 3],
        };
        let mut x = CMat::from_fn(grids.ng(), 2, |i, j| {
            c64::new(
                ((i * 7 + j * 13) % 17) as f64 - 8.0,
                ((i * 3 + j) % 11) as f64 - 5.0,
            )
        });
        let r = lowest_eigenpairs(
            &h,
            &mut x,
            DavidsonOptions {
                max_iter: 60,
                tol: 1e-8,
            },
        );
        assert!(
            r.eigenvalues[0] < -1e-4,
            "E0 = {} should be < 0",
            r.eigenvalues[0]
        );
    }

    /// HX is never recomputed, only rotated: on converged free-electron
    /// and hybrid cases, the residual of a fresh application stays within
    /// 1e-10 of the reported one, which bounds what the carried image
    /// drifted from H·X.
    #[test]
    fn carried_hx_residual_is_honest() {
        let (free, x_free) = free_electron();
        let (hybrid, phi) = hybrid_si8();
        for (name, h, mut x) in [("free", free, x_free), ("hybrid", hybrid, phi)] {
            let opts = DavidsonOptions {
                max_iter: 60,
                tol: 1e-8,
            };
            let r = lowest_eigenpairs(&h, &mut x, opts);
            assert!(
                r.residual < opts.tol,
                "{name}: not converged, {}",
                r.residual
            );
            let fresh = fresh_residual(&h, &x, &r.eigenvalues);
            assert!(
                fresh <= r.residual + 1e-10,
                "{name}: fresh {fresh:e} vs reported {:e}",
                r.residual
            );
        }
    }

    /// One NaN in the local potential reaches every column of `H·X`: the
    /// solve stops at its first Rayleigh–Ritz with a NaN residual instead
    /// of reporting convergence or panicking.
    #[test]
    fn a_poisoned_hamiltonian_reports_a_non_finite_residual() {
        let (mut h, mut x) = free_electron();
        h.vloc_r[7] = f64::NAN;
        let r = lowest_eigenpairs(
            &h,
            &mut x,
            DavidsonOptions {
                max_iter: 60,
                tol: 1e-8,
            },
        );
        assert!(r.residual.is_nan(), "residual {}", r.residual);
        assert_eq!(r.iterations, 0);
        assert!(r.eigenvalues.iter().all(|e| e.is_nan()));
    }

    /// Every kernel inside (local H, the exchange's general schedule, GEMM,
    /// the reductions) chunks by shape only, so the pool width cannot move
    /// a bit of the result.
    #[test]
    fn lowest_eigenpairs_is_bit_identical_on_1_2_and_4_threads() {
        let (h, phi) = hybrid_si8();
        let x0 = CMat::rand_normalized(phi.nrows(), phi.ncols(), 5);
        let opts = DavidsonOptions {
            max_iter: 3,
            tol: 1e-12,
        };
        let bits = |threads: usize| {
            let mut x = x0.clone();
            let r =
                pt_par::ThreadPool::new(threads).install(|| lowest_eigenpairs(&h, &mut x, opts));
            let mut out: Vec<u64> = x
                .data()
                .iter()
                .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                .collect();
            out.extend(r.eigenvalues.iter().map(|e| e.to_bits()));
            out.push(r.residual.to_bits());
            out
        };
        let one = bits(1);
        for threads in [2, 4] {
            assert!(bits(threads) == one, "{threads} threads");
        }
    }
}
