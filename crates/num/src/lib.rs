//! `pt-num` — numeric foundations for the pwdft-rt workspace.
//!
//! Provides the double-precision complex scalar [`c64`] used throughout the
//! plane-wave stack, a single-precision twin [`c32`] used for the
//! "single-precision MPI" wire format of the paper (§3.2, optimization 4),
//! special functions needed by the pseudopotential and screened-exchange
//! kernels, physical constants / unit conversions (Hartree atomic
//! units), and the per-thread scratch buffer body ([`with_scratch`]).
//!
//! Everything downstream (FFT, linear algebra, Hamiltonian) is written
//! against these types, so this crate is dependency-free.

pub mod complex;
pub mod reduce;
pub mod rng;
mod scratch;
pub mod special;
pub mod units;

pub use complex::{c32, c64};
pub use scratch::with_scratch;
pub use special::{erf, erfc, gamma_half_int};
