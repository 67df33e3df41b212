//! Pointwise exchange–correlation energy densities and their derivatives,
//! in closed form.
//!
//! Conventions: `exc` is the energy *per electron* ε_xc(ρ, σ), so the total
//! XC energy is `∫ ρ ε_xc dr`. `f = ρ ε_xc` is the energy density whose
//! partials `∂f/∂ρ`, `∂f/∂σ` (σ = |∇ρ|²) feed the potential construction.
//!
//! Everything hangs off one `cbrt(ρ)`: `r_s = (3/4πρ)^{1/3}`,
//! `k_F = (3π²ρ)^{1/3}` and the Slater energy `ε_x = −3k_F/4π` are multiples
//! of it. A PBE point then costs one `sqrt` (√r_s in PW92), two `ln` (PW92
//! and `H`), and one `exp_m1` (the `A` of `H`):
//!
//! * exchange — `F_x(s²) = 1 + κ·μs²/(κ + μs²)`, `s² = σ/(4k_F²ρ²)`;
//! * correlation — PW92 `ε_c(r_s)` with `dε_c/dr_s`, plus
//!   `H = γ ln(1 + (β/γ)t²(1 + y)/(1 + y + y²))`, `y = At²`,
//!   `t² = σ/(4k_s²ρ²)`, `k_s² = 4k_F/π`, `A = (β/γ)/expm1(−ε_c/γ)`,
//!   differentiated through both `t²` and `A(ε_c(r_s))`.
//!
//! `μ = βπ²/3`, so at σ → 0 the exchange and correlation parts of `∂f/∂σ`
//! cancel exactly: `∂f/∂σ ∝ σ` wherever the gradient is small. The tests
//! hold the closed forms against finite-difference oracles of the energy.
//!
//! One point is one dependent chain: `cbrt` → divide → `sqrt` → `ln` →
//! `exp_m1` → `ln`, each waiting on the last. So the kernels run a chunk
//! of points stage by stage — one loop per library call and one per block
//! of arithmetic between them, over chunk-local arrays — and independent
//! points fill the pipeline. Every point still gets the operations of the
//! one-point formula in their order: the stages move no bit, which the
//! tests hold against the one-point body kept as their oracle.

/// Which semi-local functional to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum XcKind {
    /// Slater exchange + PW92 correlation.
    Lda,
    /// PBE exchange + PBE correlation (spin unpolarized).
    Pbe,
}

const THIRD: f64 = 1.0 / 3.0;
/// `ε_x^{LDA} = CX·ρ^{1/3}`, `CX = −(3/4)(3/π)^{1/3}`.
const CX: f64 = -0.738_558_766_382_022_4;
/// `r_s = RS·ρ^{−1/3}`, `RS = (3/4π)^{1/3}`.
const RS: f64 = 0.620_350_490_899_4;
/// `k_F = KF·ρ^{1/3}`, `KF = (3π²)^{1/3}`.
const KF: f64 = 3.093_667_726_280_136;
const KAPPA: f64 = 0.804;
const MU: f64 = 0.219_514_972_764_517_1; // βπ²/3
const BETA: f64 = 0.066_724_550_603_149_22;
const GAMMA: f64 = 0.031_090_690_869_654_895; // (1 − ln2)/π²

/// The most points the grid's staged calls take: the pointwise pass's
/// chunk (`POINTS_PER_TASK` in `grid.rs`). A staged call's work arrays
/// are `N` long, `CHUNK` there and 1 for the one-point entries.
pub(crate) const CHUNK: usize = 256;

/// Below this density a point's `(ε_xc, derivatives)` are all zero.
const RHO_CUT: f64 = 1e-30;
/// Below this density a point's derivatives are zero, its energy kept.
const RHO_CUT_DERIVATIVES: f64 = 1e-20;

// PW92 (Perdew–Wang 1992), ζ = 0.
const PW_A: f64 = 0.031091;
const PW_ALPHA1: f64 = 0.21370;
const PW_BETA1: f64 = 7.5957;
const PW_BETA2: f64 = 3.5876;
const PW_BETA3: f64 = 1.6382;
const PW_BETA4: f64 = 0.49294;

/// PW92's `Q(r_s)` and `dQ/dr_s`: the arithmetic before its `ln`.
fn pw92_q(rs: f64) -> (f64, f64) {
    let sq = rs.sqrt();
    (
        2.0 * PW_A * (PW_BETA1 * sq + PW_BETA2 * rs + PW_BETA3 * rs * sq + PW_BETA4 * rs * rs),
        PW_A * (PW_BETA1 / sq + 2.0 * PW_BETA2 + 3.0 * PW_BETA3 * sq + 4.0 * PW_BETA4 * rs),
    )
}

/// PW92 `(ε_c, dε_c/dr_s)` from `r_s`, `Q`, `Q'` and `l = ln(1 + 1/Q)`.
fn pw92_ec(rs: f64, q: f64, dq: f64, l: f64) -> (f64, f64) {
    let pre = -2.0 * PW_A * (1.0 + PW_ALPHA1 * rs);
    (
        pre * l,
        -2.0 * PW_A * PW_ALPHA1 * l - pre * dq / (q * (q + 1.0)),
    )
}

/// `ln(1 + 1/Q)`: PW92's one library call.
fn pw92_ln(q: f64) -> f64 {
    (1.0 + 1.0 / q).ln()
}

/// LDA `(ε_xc, v_xc)` at up to `N` points, `v_xc = d(ρ ε_xc)/dρ`, stage
/// by stage: `cbrt`, the arithmetic up to PW92's `ln`, the `ln`, the rest.
pub(crate) fn lda_chunk<const N: usize>(rho: &[f64], exc: &mut [f64], vxc: &mut [f64]) {
    let n = rho.len();
    assert!(n <= N && exc.len() == n && vxc.len() == n);
    let mut cbrt = [0.0; N];
    let (mut rs, mut q, mut dq, mut l) = ([0.0; N], [0.0; N], [0.0; N], [0.0; N]);
    for i in 0..n {
        cbrt[i] = rho[i].cbrt();
    }
    for i in 0..n {
        rs[i] = RS / cbrt[i];
        (q[i], dq[i]) = pw92_q(rs[i]);
    }
    for i in 0..n {
        l[i] = pw92_ln(q[i]);
    }
    for i in 0..n {
        let ex = CX * cbrt[i];
        let (ec, dec_drs) = pw92_ec(rs[i], q[i], dq[i], l[i]);
        // ε_x ∝ ρ^{1/3} and dr_s/dρ = −r_s/3ρ
        (exc[i], vxc[i]) = if rho[i] <= RHO_CUT {
            (0.0, 0.0)
        } else {
            (ex + ec, 4.0 * THIRD * ex + ec - THIRD * rs[i] * dec_drs)
        };
    }
}

/// PBE `(ε_xc, ∂f/∂ρ, ∂f/∂σ)` at up to `N` points, `f = ρ ε_xc`, stage
/// by stage: one loop per library call (`cbrt`, PW92's `ln(1 + 1/Q)`,
/// `exp_m1(−ε_c/γ)`, `ln(1 + P)`) and one per block of arithmetic between
/// them.
pub(crate) fn pbe_chunk<const N: usize>(
    rho: &[f64],
    sigma: &[f64],
    exc: &mut [f64],
    dfdr: &mut [f64],
    dfds: &mut [f64],
) {
    let n = rho.len();
    assert!(n <= N && sigma.len() == n);
    assert!(exc.len() == n && dfdr.len() == n && dfds.len() == n);
    let mut cbrt = [0.0; N];
    let (mut rs, mut q, mut dq, mut l) = ([0.0; N], [0.0; N], [0.0; N], [0.0; N]);
    let (mut t2, mut dt2_dsigma) = ([0.0; N], [0.0; N]);
    let (mut ec, mut dec_drs, mut em1) = ([0.0; N], [0.0; N], [0.0; N]);
    let (mut y, mut inv, mut p, mut lp) = ([0.0; N], [0.0; N], [0.0; N], [0.0; N]);
    for i in 0..n {
        cbrt[i] = rho[i].cbrt();
    }
    // exchange, whole, into the outputs; correlation up to PW92's ln
    for i in 0..n {
        let (r, c, s) = (rho[i], cbrt[i], sigma[i]);
        let kf = KF * c;
        let ex_lda = CX * c;
        let ds2_dsigma = 1.0 / (4.0 * kf * kf * r * r);
        let s2 = s * ds2_dsigma;
        // F_x = 1 + κw with w = μs²/(κ + μs²) ∈ [0, 1], F_x' = μ(κd)²
        let d = 1.0 / (KAPPA + MU * s2);
        let fx = 1.0 + KAPPA * (MU * s2 * d);
        let dfx = MU * (KAPPA * d) * (KAPPA * d);
        // s² ∝ σρ^{−8/3}
        exc[i] = ex_lda * fx;
        dfdr[i] = 4.0 * THIRD * ex_lda * (fx - 2.0 * s2 * dfx);
        dfds[i] = r * ex_lda * dfx * ds2_dsigma;
        rs[i] = RS / c;
        (q[i], dq[i]) = pw92_q(rs[i]);
        let ks2 = 4.0 * KF * c / std::f64::consts::PI;
        dt2_dsigma[i] = 1.0 / (4.0 * ks2 * r * r); // φ = 1 (unpolarized)
        t2[i] = s * dt2_dsigma[i];
    }
    for i in 0..n {
        l[i] = pw92_ln(q[i]);
    }
    for i in 0..n {
        (ec[i], dec_drs[i]) = pw92_ec(rs[i], q[i], dq[i], l[i]);
    }
    // −ε_c/γ falls to ~1e-5 at the low-density cut-off: exp(x) − 1 would
    // cancel most of A's digits there
    for i in 0..n {
        em1[i] = (-ec[i] / GAMMA).exp_m1();
    }
    for i in 0..n {
        y[i] = BETA / GAMMA / em1[i] * t2[i]; // A t²
        inv[i] = 1.0 / (1.0 + y[i] + y[i] * y[i]);
        p[i] = BETA / GAMMA * t2[i] * (1.0 + y[i]) * inv[i];
    }
    for i in 0..n {
        lp[i] = (1.0 + p[i]).ln();
    }
    for i in 0..n {
        let (y, inv, p) = (y[i], inv[i], p[i]);
        let h = GAMMA * lp[i];
        let dh_dt2 = BETA * (1.0 + 2.0 * y) * inv * inv / (1.0 + p);
        // (∂H/∂A)(dA/dε_c) with dA/dε_c = A²e^{−ε_c/γ}/β; the factors are
        // grouped so that each stays ≤ 1 as y → ∞
        let dh_dec = -(y * y * inv) * (y * (2.0 + y) * inv) * (em1[i] + 1.0) / (1.0 + p);
        // dr_s/dρ = −r_s/3ρ and t² ∝ σρ^{−7/3}
        let ec_h = ec[i] + h;
        let dc_drho =
            ec_h - THIRD * rs[i] * dec_drs[i] * (1.0 + dh_dec) - 7.0 * THIRD * t2[i] * dh_dt2;
        let dc_dsigma = rho[i] * dh_dt2 * dt2_dsigma[i];
        // a cut point ran the stages like any other; its values are
        // dropped here
        (exc[i], dfdr[i], dfds[i]) = if rho[i] <= RHO_CUT {
            (0.0, 0.0, 0.0)
        } else if rho[i] <= RHO_CUT_DERIVATIVES {
            (exc[i] + ec_h, 0.0, 0.0)
        } else {
            (exc[i] + ec_h, dfdr[i] + dc_drho, dfds[i] + dc_dsigma)
        };
    }
}

/// LDA `(ε_xc, v_xc)` with `v_xc = d(ρ ε_xc)/dρ`: the staged kernel of
/// the grid at one point.
pub fn lda_exc_vxc(rho: f64) -> (f64, f64) {
    let (mut exc, mut vxc) = ([0.0], [0.0]);
    lda_chunk::<1>(&[rho], &mut exc, &mut vxc);
    (exc[0], vxc[0])
}

/// PBE `(ε_xc, ∂f/∂ρ, ∂f/∂σ)` at one point, `f = ρ ε_xc(ρ, σ)` and
/// σ = |∇ρ|² ≥ 0: the staged kernel of the grid at one point. Below
/// ρ = 1e-20 the derivatives are cut to zero, below 1e-30 the energy too.
pub fn pbe_exc_vxc(rho: f64, sigma: f64) -> (f64, f64, f64) {
    let (mut exc, mut dfdr, mut dfds) = ([0.0], [0.0], [0.0]);
    pbe_chunk::<1>(&[rho], &[sigma], &mut exc, &mut dfdr, &mut dfds);
    (exc[0], dfdr[0], dfds[0])
}

/// PBE ε_xc(ρ, σ) with σ = |∇ρ|² (energy per electron).
pub fn pbe_exc(rho: f64, sigma: f64) -> f64 {
    pbe_exc_vxc(rho, sigma).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-analytic implementation, kept as the oracle: the `powf`
    /// transcription of the energies and 4th-order central differences of
    /// them (which is what the grid evaluator ran per point).
    mod oracle {
        const THIRD: f64 = 1.0 / 3.0;

        pub fn eps_x_lda(rho: f64) -> f64 {
            let cx = -0.75 * (3.0 / std::f64::consts::PI).powf(THIRD);
            cx * rho.powf(THIRD)
        }

        pub fn eps_c_pw92(rho: f64) -> f64 {
            if rho <= 1e-30 {
                return 0.0;
            }
            let rs = (3.0 / (4.0 * std::f64::consts::PI * rho)).powf(THIRD);
            let a = 0.031091;
            let alpha1 = 0.21370;
            let beta1 = 7.5957;
            let beta2 = 3.5876;
            let beta3 = 1.6382;
            let beta4 = 0.49294;
            let sq = rs.sqrt();
            let denom = 2.0 * a * (beta1 * sq + beta2 * rs + beta3 * rs * sq + beta4 * rs * rs);
            -2.0 * a * (1.0 + alpha1 * rs) * (1.0 + 1.0 / denom).ln()
        }

        pub fn lda_vxc(rho: f64) -> f64 {
            let h = (rho * 1e-5).max(1e-12);
            let f = |r: f64| r * eps_c_pw92(r);
            let vc = (-f(rho + 2.0 * h) + 8.0 * f(rho + h) - 8.0 * f(rho - h) + f(rho - 2.0 * h))
                / (12.0 * h);
            4.0 * THIRD * eps_x_lda(rho) + vc
        }

        pub fn pbe_exc(rho: f64, sigma: f64) -> f64 {
            if rho <= 1e-30 {
                return 0.0;
            }
            let pi = std::f64::consts::PI;
            let kf = (3.0 * pi * pi * rho).powf(THIRD);
            let s2 = sigma / (4.0 * kf * kf * rho * rho);
            const KAPPA: f64 = 0.804;
            const MU: f64 = 0.219_514_972_764_517_1;
            let fx = 1.0 + KAPPA - KAPPA / (1.0 + MU * s2 / KAPPA);
            let ex = eps_x_lda(rho) * fx;
            const GAMMA: f64 = 0.031_090_690_869_654_895;
            const BETA: f64 = 0.066_724_550_603_149_22;
            let ec_unif = eps_c_pw92(rho);
            let ks = (4.0 * kf / pi).sqrt();
            let t2 = sigma / (4.0 * ks * ks * rho * rho);
            let a = BETA / GAMMA / ((-ec_unif / GAMMA).exp() - 1.0);
            let at2 = a * t2;
            let num = 1.0 + at2;
            let den = 1.0 + at2 + at2 * at2;
            let h = GAMMA * (1.0 + BETA / GAMMA * t2 * num / den).ln();
            ex + ec_unif + h
        }

        pub fn pbe_derivatives(rho: f64, sigma: f64) -> (f64, f64) {
            let f = |r: f64, s: f64| r * pbe_exc(r, s.max(0.0));
            let hr = (rho * 1e-5).max(1e-13);
            let dfdr = (-f(rho + 2.0 * hr, sigma) + 8.0 * f(rho + hr, sigma)
                - 8.0 * f(rho - hr, sigma)
                + f(rho - 2.0 * hr, sigma))
                / (12.0 * hr);
            let hs = (sigma.abs() * 1e-5).max(1e-13);
            let dfds = (-f(rho, sigma + 2.0 * hs) + 8.0 * f(rho, sigma + hs)
                - 8.0 * f(rho, sigma - hs)
                + f(rho, sigma - 2.0 * hs))
                / (12.0 * hs);
            (dfdr, dfds)
        }
    }

    /// The one-point body the stages replaced, kept as their oracle: each
    /// point a dependent chain through `cbrt`, PW92's `ln`, `exp_m1` and
    /// `ln(1 + P)`. The stages must give every point these bits.
    mod point {
        use super::super::{BETA, CX, GAMMA, KAPPA, KF, MU, RS, THIRD};

        /// PW92 correlation energy per electron `ε_c(r_s, ζ = 0)` and
        /// `dε_c/dr_s` (Perdew–Wang 1992).
        pub fn pw92(rs: f64) -> (f64, f64) {
            const A: f64 = 0.031091;
            const ALPHA1: f64 = 0.21370;
            const BETA1: f64 = 7.5957;
            const BETA2: f64 = 3.5876;
            const BETA3: f64 = 1.6382;
            const BETA4: f64 = 0.49294;
            let sq = rs.sqrt();
            let q = 2.0 * A * (BETA1 * sq + BETA2 * rs + BETA3 * rs * sq + BETA4 * rs * rs);
            let dq = A * (BETA1 / sq + 2.0 * BETA2 + 3.0 * BETA3 * sq + 4.0 * BETA4 * rs);
            let l = (1.0 + 1.0 / q).ln();
            let pre = -2.0 * A * (1.0 + ALPHA1 * rs);
            (pre * l, -2.0 * A * ALPHA1 * l - pre * dq / (q * (q + 1.0)))
        }

        /// LDA `(ε_xc, v_xc)` with `v_xc = d(ρ ε_xc)/dρ`.
        pub fn lda_exc_vxc(rho: f64) -> (f64, f64) {
            if rho <= 1e-30 {
                return (0.0, 0.0);
            }
            let cbrt = rho.cbrt();
            let ex = CX * cbrt;
            let rs = RS / cbrt;
            let (ec, dec_drs) = pw92(rs);
            // ε_x ∝ ρ^{1/3} and dr_s/dρ = −r_s/3ρ
            (ex + ec, 4.0 * THIRD * ex + ec - THIRD * rs * dec_drs)
        }

        /// PBE exchange at one point, from ρ, ρ^{1/3} and σ:
        /// `(ε_x, ∂(ρε_x)/∂ρ, ∂(ρε_x)/∂σ)`.
        pub fn pbe_exchange(rho: f64, cbrt: f64, sigma: f64) -> (f64, f64, f64) {
            let kf = KF * cbrt;
            let ex_lda = CX * cbrt;
            let ds2_dsigma = 1.0 / (4.0 * kf * kf * rho * rho);
            let s2 = sigma * ds2_dsigma;
            // F_x = 1 + κw with w = μs²/(κ + μs²) ∈ [0, 1], F_x' = μ(κd)²
            let d = 1.0 / (KAPPA + MU * s2);
            let fx = 1.0 + KAPPA * (MU * s2 * d);
            let dfx = MU * (KAPPA * d) * (KAPPA * d);
            // s² ∝ σρ^{−8/3}
            (
                ex_lda * fx,
                4.0 * THIRD * ex_lda * (fx - 2.0 * s2 * dfx),
                rho * ex_lda * dfx * ds2_dsigma,
            )
        }

        /// PBE correlation at one point, from ρ, ρ^{1/3} and σ:
        /// `(ε_c + H, ∂(ρ(ε_c + H))/∂ρ, ∂(ρH)/∂σ)`.
        pub fn pbe_correlation(rho: f64, cbrt: f64, sigma: f64) -> (f64, f64, f64) {
            let rs = RS / cbrt;
            let (ec, dec_drs) = pw92(rs);
            let ks2 = 4.0 * KF * cbrt / std::f64::consts::PI;
            let dt2_dsigma = 1.0 / (4.0 * ks2 * rho * rho); // φ = 1 (unpolarized)
            let t2 = sigma * dt2_dsigma;
            let em1 = (-ec / GAMMA).exp_m1();
            let y = BETA / GAMMA / em1 * t2; // A t²
            let inv = 1.0 / (1.0 + y + y * y);
            let p = BETA / GAMMA * t2 * (1.0 + y) * inv;
            let h = GAMMA * (1.0 + p).ln();
            let dh_dt2 = BETA * (1.0 + 2.0 * y) * inv * inv / (1.0 + p);
            let dh_dec = -(y * y * inv) * (y * (2.0 + y) * inv) * (em1 + 1.0) / (1.0 + p);
            // dr_s/dρ = −r_s/3ρ and t² ∝ σρ^{−7/3}
            (
                ec + h,
                ec + h - THIRD * rs * dec_drs * (1.0 + dh_dec) - 7.0 * THIRD * t2 * dh_dt2,
                rho * dh_dt2 * dt2_dsigma,
            )
        }

        /// PBE `(ε_xc, ∂f/∂ρ, ∂f/∂σ)` at one point, `f = ρ ε_xc(ρ, σ)`.
        pub fn pbe_exc_vxc(rho: f64, sigma: f64) -> (f64, f64, f64) {
            if rho <= 1e-30 {
                return (0.0, 0.0, 0.0);
            }
            let cbrt = rho.cbrt();
            let (ex, dx_drho, dx_dsigma) = pbe_exchange(rho, cbrt, sigma);
            let (ec, dc_drho, dc_dsigma) = pbe_correlation(rho, cbrt, sigma);
            if rho <= 1e-20 {
                return (ex + ec, 0.0, 0.0);
            }
            (ex + ec, dx_drho + dc_drho, dx_dsigma + dc_dsigma)
        }
    }

    const RHOS: [f64; 8] = [1e-4, 1e-3, 0.01, 0.03, 0.08, 0.1, 0.5, 1.5];
    const SIGMAS: [f64; 8] = [0.0, 1e-12, 1e-8, 1e-5, 1e-3, 0.01, 0.2, 3.0];

    fn eps_x_lda(rho: f64) -> f64 {
        CX * rho.cbrt()
    }

    fn eps_c_pw92(rho: f64) -> f64 {
        point::pw92(RS / rho.cbrt()).0
    }

    fn rel(got: f64, want: f64) -> f64 {
        (got - want).abs() / want.abs()
    }

    #[test]
    fn slater_exchange_reference() {
        // ε_x = −(3/4)(3/π)^{1/3} ρ^{1/3}; at rs = 1 (ρ = 3/4π):
        // ε_x = −0.458165/rs... known value 0.4581652932831429
        let rho = 3.0 / (4.0 * std::f64::consts::PI);
        let (exc, _v) = lda_exc_vxc(rho);
        let ex = eps_x_lda(rho);
        assert!((ex + 0.458_165_293_283_142_9).abs() < 1e-12, "{ex}");
        assert!(exc < ex, "correlation must lower the energy");
    }

    #[test]
    fn pw92_reference_values() {
        // ε_c(rs) for ζ=0 from the PW92 parametrization:
        // rs=1: −0.059775, rs=2: −0.044772, rs=5: −0.028216
        let cases = [(1.0, -0.059775), (2.0, -0.044772), (5.0, -0.028216)];
        for (rs, want) in cases {
            let rho = 3.0 / (4.0 * std::f64::consts::PI * rs * rs * rs);
            let ec = eps_c_pw92(rho);
            assert!((ec - want).abs() < 5e-5, "rs={rs}: {ec} vs {want}");
        }
    }

    #[test]
    fn lda_matches_the_stencil_oracle() {
        for rho in [1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0] {
            let (e, v) = lda_exc_vxc(rho);
            let e_want = oracle::eps_x_lda(rho) + oracle::eps_c_pw92(rho);
            assert!(rel(e, e_want) < 1e-14, "rho={rho}: ε {e} vs {e_want}");
            let v_want = oracle::lda_vxc(rho);
            assert!(rel(v, v_want) < 1e-10, "rho={rho}: v {v} vs {v_want}");
        }
    }

    #[test]
    fn pbe_reduces_to_lda_at_zero_gradient() {
        for rho in [0.05, 0.3, 2.0] {
            let (lda, _) = lda_exc_vxc(rho);
            let pbe = pbe_exc(rho, 0.0);
            assert!((pbe - lda).abs() < 1e-10, "rho={rho}: {pbe} vs {lda}");
        }
    }

    #[test]
    fn pbe_exchange_enhancement_bounded() {
        // F_x ∈ [1, 1+κ]: PBE energy must lie between LDA·1 and LDA·1.804
        // (exchange part only; test via large-gradient limit)
        let rho = 0.2;
        let ex_lda = eps_x_lda(rho);
        let huge = pbe_exc(rho, 1e6) - eps_c_pw92(rho) /* h→ −ec cancels ec */;
        // at huge σ, H → −ε_c so correlation ≈ 0 and exchange saturates
        assert!(
            huge < ex_lda,
            "enhancement must deepen exchange: {huge} vs {ex_lda}"
        );
        assert!(huge > ex_lda * (1.0 + 0.804) - 1e-6, "bounded by 1+κ");
    }

    #[test]
    fn correlation_h_term_positive() {
        // gradient correction H ≥ 0 reduces |ε_c|
        let rho: f64 = 0.3;
        let (ec0, ..) = point::pbe_correlation(rho, rho.cbrt(), 0.0);
        let (ec1, ..) = point::pbe_correlation(rho, rho.cbrt(), 0.5);
        assert!(ec1 > ec0, "H must raise ε_c: {ec1} vs {ec0}");
    }

    #[test]
    fn pbe_energy_matches_the_powf_transcription() {
        for rho in RHOS {
            for sigma in SIGMAS {
                let (got, want) = (pbe_exc(rho, sigma), oracle::pbe_exc(rho, sigma));
                assert!(rel(got, want) < 1e-14, "({rho}, {sigma}): {got} vs {want}");
            }
        }
    }

    #[test]
    fn pbe_density_derivative_matches_the_stencil_oracle() {
        for rho in RHOS {
            for sigma in SIGMAS {
                let (_, got, _) = pbe_exc_vxc(rho, sigma);
                let (want, _) = oracle::pbe_derivatives(rho, sigma);
                assert!(rel(got, want) < 1e-9, "({rho}, {sigma}): {got} vs {want}");
            }
        }
    }

    #[test]
    fn pbe_gradient_derivative_matches_the_stencil_where_it_is_well_conditioned() {
        // the stencil's step is h = 1e-5·σ, so its round-off floor
        // ε|f|/h swamps ∂f/∂σ wherever that is small — see
        // `pbe_gradient_coefficients_cancel_at_zero_gradient`
        for rho in [0.01, 0.03, 0.08] {
            for sigma in [0.01, 0.2] {
                let (_, _, got) = pbe_exc_vxc(rho, sigma);
                let (_, want) = oracle::pbe_derivatives(rho, sigma);
                assert!(rel(got, want) < 1e-7, "({rho}, {sigma}): {got} vs {want}");
            }
        }
    }

    #[test]
    fn pbe_gradient_coefficients_cancel_at_zero_gradient() {
        // μ = βπ²/3 makes the exchange and correlation gradient expansions
        // cancel: ∂f/∂σ → 0 linearly in σ, from −3μ/(16π k_F ρ) and
        // +βπ/(16 k_F ρ)
        let pi = std::f64::consts::PI;
        for rho in [1e-3_f64, 0.01, 0.03, 0.08, 0.1, 0.5, 1.5] {
            let cbrt = rho.cbrt();
            let kf = KF * cbrt;
            let (.., x) = point::pbe_exchange(rho, cbrt, 0.0);
            let (.., c) = point::pbe_correlation(rho, cbrt, 0.0);
            assert!(rel(x, -3.0 * MU / (16.0 * pi * kf * rho)) < 1e-12, "{x}");
            assert!(rel(c, BETA * pi / (16.0 * kf * rho)) < 1e-12, "{c}");
            assert!((x + c).abs() <= 1e-12 * x.abs(), "rho={rho}: {x} + {c}");
            for sigma in SIGMAS {
                let (.., x) = point::pbe_exchange(rho, cbrt, sigma);
                let (.., c) = point::pbe_correlation(rho, cbrt, sigma);
                assert!(x <= 0.0 && 0.0 <= c, "({rho}, {sigma}): {x}, {c}");
            }
        }
    }

    /// `(ρ, σ)` pairs over both cut-offs (0, 1e-31 and 1e-25, between
    /// them), then ρ from 1e-8 to 2 against σ from 0 and 1e-14 to 10.
    fn cut_off_and_bulk_points() -> Vec<(f64, f64)> {
        let log = |lo: f64, hi: f64, k: usize| {
            (0..k).map(move |j| 10f64.powf(lo + (hi - lo) * j as f64 / (k - 1) as f64))
        };
        let rhos = [-1e-3, 0.0, 1e-31, 1e-25]
            .into_iter()
            .chain(log(-8.0, 2f64.log10(), 37));
        let sigmas: Vec<f64> = std::iter::once(0.0).chain(log(-14.0, 1.0, 31)).collect();
        rhos.flat_map(|r| sigmas.iter().map(move |&s| (r, s)))
            .collect()
    }

    #[test]
    fn staged_kernels_equal_the_one_point_oracle_to_the_bit() {
        let points = cut_off_and_bulk_points();
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        for len in [1, 2, 63, 64, 255, 256] {
            for chunk in points.chunks(len) {
                let rho: Vec<f64> = chunk.iter().map(|p| p.0).collect();
                let sigma: Vec<f64> = chunk.iter().map(|p| p.1).collect();
                let n = chunk.len();
                let (mut exc, mut dfdr, mut dfds) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
                pbe_chunk::<CHUNK>(&rho, &sigma, &mut exc, &mut dfdr, &mut dfds);
                for (k, &(r, s)) in chunk.iter().enumerate() {
                    let (e, dr, ds) = point::pbe_exc_vxc(r, s);
                    assert!(
                        same(exc[k], e) && same(dfdr[k], dr) && same(dfds[k], ds),
                        "PBE, chunk of {len}, ({r}, {s}): {:?} vs {:?}",
                        (exc[k], dfdr[k], dfds[k]),
                        (e, dr, ds)
                    );
                }
                let mut vxc = vec![0.0; n];
                lda_chunk::<CHUNK>(&rho, &mut exc, &mut vxc);
                for (k, &r) in rho.iter().enumerate() {
                    let (e, v) = point::lda_exc_vxc(r);
                    assert!(
                        same(exc[k], e) && same(vxc[k], v),
                        "LDA, chunk of {len}, {r}: {:?} vs {:?}",
                        (exc[k], vxc[k]),
                        (e, v)
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        // nothing non-finite may reach `v_total`, from the low-density
        // cut-off up to core-like densities and gradients
        #[test]
        fn prop_pbe_is_finite_and_bounded(rho_exp in 0u32..2001, sigma_exp in 0u32..2502) {
            let rho = 10f64.powf(-19.0 + rho_exp as f64 / 100.0); // [1e-19, 10]
            let sigma = match sigma_exp {
                0 => 0.0,
                e => 10f64.powf(-21.01 + e as f64 / 100.0), // [1e-21, 1e4]
            };
            let (exc, dfdr, dfds) = pbe_exc_vxc(rho, sigma);
            let want = point::pbe_exc_vxc(rho, sigma);
            prop_assert!(
                [exc, dfdr, dfds].map(f64::to_bits) == [want.0, want.1, want.2].map(f64::to_bits)
            );
            prop_assert!(exc.is_finite() && dfdr.is_finite() && dfds.is_finite());
            prop_assert!(exc <= 0.0);
            // F_x = ε_x/ε_x^{LDA}, recovered through one rounded division
            let fx = point::pbe_exchange(rho, rho.cbrt(), sigma).0 / eps_x_lda(rho);
            prop_assert!((1.0 - 1e-15..=1.0 + KAPPA + 1e-15).contains(&fx));
        }
    }
}
