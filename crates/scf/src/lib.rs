//! `pt-scf` — ground-state Kohn–Sham solver.
//!
//! An rt-TDDFT run starts from the ground state (the paper propagates the
//! occupied manifold of a converged hybrid-functional SCF). This crate
//! provides:
//!
//! * a preconditioned block-Davidson eigensolver ([`lowest_eigenpairs`])
//!   with the Teter–Payne–Allan kinetic preconditioner — the standard
//!   plane-wave workhorse;
//! * the SCF driver ([`scf_loop`]): one density loop (Davidson → ρ →
//!   Anderson mixing through `pt_linalg::Anderson`, the same update the
//!   paper applies to *wavefunctions* inside PT-CN). A semi-local system
//!   runs it once. A hybrid runs it twice: a semi-local bootstrap, whose
//!   orbitals become the exchange operator's defining orbitals Φ, then one
//!   solve with Φ frozen. Φ is not refreshed afterwards (ACE is an optional
//!   compression of this operator, see `pt-core`'s ablation).
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

mod davidson;
mod driver;

pub use davidson::{lowest_eigenpairs, teter_preconditioner, DavidsonOptions, DavidsonResult};
pub use driver::{scf_loop, ScfOptions, ScfResult};
