//! Gauge-invariant observables and sanity probes, and the one fixed
//! record every step of a [`crate::Simulation`] commits.
//!
//! The PT gauge is defined so that physical observables — anything that is
//! a function of the density matrix P = ΨΨ* — are untouched by the gauge
//! transformation (§2). These helpers quantify exactly that.

use pt_ham::{integrate, KsSystem};
use pt_linalg::{gemm, CMat, Op};
use pt_num::c64;

/// The channels of a step's record, in emission order — the gauge-invariant
/// observables the paper's runs track (§4, Fig. 6).
pub(crate) const CHANNELS: [&str; 9] = [
    "energy",
    "current_x",
    "current_y",
    "current_z",
    "n_electrons",
    "dipole_x",
    "dipole_y",
    "dipole_z",
    "orthonormality_error",
];

/// One step's record, paired with [`CHANNELS`]: the total energy, the
/// current density, the electron count `∫ρ`, the electronic dipole moment
/// `∫ r ρ(r) dr` (lever arms from [`grid_coords`]) and `max |Ψ*Ψ − I|`,
/// all from one density of `psi`.
pub(crate) fn step_record(
    sys: &KsSystem,
    psi: &CMat,
    a_field: [f64; 3],
    coords: &[[f64; 3]],
) -> [(&'static str, f64); 9] {
    let g = &sys.grids;
    let rho = sys.density(psi);
    let energy = sys.energies(psi, &rho, a_field).total();
    let j = current_density(sys, psi, a_field);
    let dv = g.volume / g.n_dense() as f64;
    let mut d = [0.0f64; 3];
    for (w, r) in rho.iter().map(|&v| v * dv).zip(coords) {
        d[0] += w * r[0];
        d[1] += w * r[1];
        d[2] += w * r[2];
    }
    let values = [
        energy,
        j[0],
        j[1],
        j[2],
        integrate(g, &rho),
        d[0],
        d[1],
        d[2],
        orthonormality_error(psi),
    ];
    std::array::from_fn(|k| (CHANNELS[k], values[k]))
}

/// Cartesian coordinates of every dense-grid point, x fastest (the grid
/// never changes during a run, so a run builds them once).
pub(crate) fn grid_coords(sys: &KsSystem) -> Vec<[f64; 3]> {
    let (nx, ny, nz) = sys.grids.fft_dense.dims();
    let cell = &sys.structure.cell;
    let mut coords = Vec::with_capacity(sys.grids.n_dense());
    for iz in 0..nz {
        for iy in 0..ny {
            for ix in 0..nx {
                coords.push(cell.frac_to_cart([
                    ix as f64 / nx as f64,
                    iy as f64 / ny as f64,
                    iz as f64 / nz as f64,
                ]));
            }
        }
    }
    coords
}

/// Max deviation of `Ψ*Ψ` from the identity.
pub fn orthonormality_error(psi: &CMat) -> f64 {
    let nb = psi.ncols();
    let mut s = CMat::zeros(nb, nb);
    gemm(
        c64::ONE,
        psi,
        Op::ConjTrans,
        psi,
        Op::None,
        c64::ZERO,
        &mut s,
    );
    s.max_diff(&CMat::eye(nb))
}

/// Distance between the density matrices (projectors) spanned by two
/// orbital blocks: ‖P₁ − P₂‖_F via the subspace-angle identity
/// `‖P₁ − P₂‖_F² = 2 nb − 2 ‖Ψ₁* Ψ₂‖_F²` (blocks assumed orthonormal).
pub fn density_matrix_distance(psi1: &CMat, psi2: &CMat) -> f64 {
    assert_eq!(psi1.ncols(), psi2.ncols());
    let nb = psi1.ncols();
    let mut o = CMat::zeros(nb, nb);
    gemm(
        c64::ONE,
        psi1,
        Op::ConjTrans,
        psi2,
        Op::None,
        c64::ZERO,
        &mut o,
    );
    let cross: f64 = pt_num::reduce::sum_f64(o.data().iter().map(|z| z.norm_sqr()));
    (2.0 * nb as f64 - 2.0 * cross).max(0.0).sqrt()
}

/// Macroscopic current density `j(t) = (1/Ω) Σ_i f_i ⟨ψ_i|(−i∇ + A)|ψ_i⟩`
/// — the primary observable of a velocity-gauge laser simulation.
pub fn current_density(sys: &KsSystem, psi: &CMat, a_field: [f64; 3]) -> [f64; 3] {
    let g = &sys.grids;
    let mut j = [0.0; 3];
    for (b, &f) in sys.occupations.iter().enumerate() {
        for (c, gc) in psi.col(b).iter().zip(&g.sphere.g_cart) {
            let w = f * c.norm_sqr();
            j[0] += w * (gc[0] + a_field[0]);
            j[1] += w * (gc[1] + a_field[1]);
            j[2] += w * (gc[2] + a_field[2]);
        }
    }
    [j[0] / g.volume, j[1] / g.volume, j[2] / g.volume]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_orthonormal(ng: usize, nb: usize, seed: u64) -> CMat {
        let mut m = CMat::rand_normalized(ng, nb, seed);
        pt_linalg::orthonormalize_columns(&mut m, 0.0);
        m
    }

    #[test]
    fn orthonormal_block_has_zero_error() {
        let m = rand_orthonormal(40, 5, 3);
        assert!(orthonormality_error(&m) < 1e-12);
    }

    #[test]
    fn density_matrix_distance_gauge_invariance() {
        // rotating an orthonormal block by a unitary leaves P unchanged
        let m = rand_orthonormal(30, 4, 7);
        let h = {
            let a = rand_orthonormal(4, 4, 9);
            let mut h = CMat::zeros(4, 4);
            for j in 0..4 {
                for i in 0..4 {
                    h[(i, j)] = (a[(i, j)] + a[(j, i)].conj()).scale(0.5);
                }
            }
            h
        };
        let (_w, u) = pt_linalg::eigh(&h);
        let mut rotated = CMat::zeros(30, 4);
        gemm(
            c64::ONE,
            &m,
            Op::None,
            &u,
            Op::None,
            c64::ZERO,
            &mut rotated,
        );
        assert!(density_matrix_distance(&m, &rotated) < 1e-10);
        // and two random subspaces are far apart
        let other = rand_orthonormal(30, 4, 99);
        assert!(density_matrix_distance(&m, &other) > 0.5);
    }
}
