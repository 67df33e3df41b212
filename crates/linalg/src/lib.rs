//! `pt-linalg` — dense complex linear algebra for the plane-wave stack.
//!
//! The paper's matrix work splits into two shapes:
//!
//! * **tall-skinny** `N_G × N_e` wavefunction blocks: overlap matrices
//!   `S = Ψ^H (HΨ)` (Alg. 3 line 2), subspace rotations `Ψ S`, and the
//!   Cholesky-based re-orthogonalization at the end of every PT-CN step
//!   (§3.4). These are [`gemm`]/[`herk`]-style kernels, panel-parallel
//!   over the `pt-par` pool (standing in for CUBLAS on the V100s).
//! * **tiny** `≤ 20×20` Anderson least-squares problems and `N_e × N_e`
//!   subspace eigenproblems, handled by [`lstsq`] (regularized normal
//!   equations) and [`eigh`] (Householder tridiagonalization, then
//!   implicit-shift QL: one O(n³) pass).

mod eig;
mod mat;
mod solve;

pub use eig::eigh;
pub use mat::{CMat, Op};
pub use solve::{
    cholesky_in_place, lstsq, orthonormalize_columns, solve_lower, solve_upper_conj, trsm_right_lh,
    try_cholesky_in_place,
};

pub use mat::{gemm, herk};
