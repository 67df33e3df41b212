//! `pt-xc` — semi-local exchange–correlation functionals.
//!
//! HSE06 (the paper's functional) is PBE plus 25 % short-range exact
//! exchange. This crate provides the semi-local side: LDA (Slater exchange
//! + PW92 correlation) and PBE (spin-unpolarized), evaluated on the real-
//!   space density grid, plus the White–Bird-style construction of the GGA
//!   potential `v_xc = ∂f/∂ρ − ∇·(2 ∂f/∂σ ∇ρ)` using G-space derivatives
//!   (σ = |∇ρ|²). The short-range Fock part lives in `pt-ham`.
//!
//! Derivative strategy: every partial is analytic — one fused
//! `(ε_xc, ∂f/∂ρ, ∂f/∂σ)` evaluation per grid point ([`pbe_exc_vxc`],
//! [`lda_exc_vxc`]). The finite-difference stencils of the energy density
//! that used to stand in for the PBE chain survive as test oracles only:
//! they pin the closed forms, and the closed forms in turn are free of the
//! stencils' round-off floor where `∂f/∂σ` is small.

mod functional;
mod grid;

pub use functional::{lda_exc_vxc, pbe_exc, pbe_exc_vxc, XcKind};
pub use grid::XcGridEvaluator;
