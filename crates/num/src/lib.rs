//! `pt-num` — numeric foundations for the pwdft-rt workspace.
//!
//! Provides the double-precision complex scalar [`c64`] used throughout the
//! plane-wave stack (the only complex type: every buffer, wire message and
//! snapshot payload is `f64`), special functions needed by the
//! pseudopotential and screened-exchange kernels, physical constants /
//! unit conversions (Hartree atomic units), the per-thread scratch buffer
//! body ([`with_scratch`]), and the
//! counting allocator the allocation-budget tests install
//! ([`CountingAlloc`]).
//!
//! Everything downstream (FFT, linear algebra, Hamiltonian) is written
//! against these types, so this crate is dependency-free.
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod complex;
mod counting;
pub mod reduce;
pub mod rng;
mod scratch;
pub mod special;
pub mod units;

pub use complex::c64;
pub use counting::{allocations, CountingAlloc};
pub use scratch::with_scratch;
pub use special::{erf, erfc, gamma_half_int};
