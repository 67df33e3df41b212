//! `pt-ham` — the plane-wave Kohn–Sham Hamiltonian with hybrid functional.
//!
//! This is the substrate PWDFT provides in the paper: everything needed to
//! apply `H[P] Ψ` (Eq. 2) to a block of orbitals —
//!
//! * kinetic term `½|G + A(t)|²` (velocity-gauge vector potential for the
//!   laser coupling),
//! * total local potential (local pseudopotential + Hartree + semi-local
//!   XC + scalar external) on the dense density grid,
//! * Kleinman–Bylander nonlocal pseudopotential,
//! * the **Fock exchange operator** `V_X[P]` (Eq. 3), evaluated exactly as
//!   Alg. 2: one Poisson-like FFT solve per orbital pair on the
//!   wavefunction grid — one pair term and one partner-chunk fold, run in
//!   process (pt-par threads) or as tiles dealt over a pt-mpi rank team,
//!   with identical bits,
//! * total-energy assembly including the Ewald ion–ion term,
//! * the PT residual of Alg. 3 on the fixed 64-row chunk grid
//!   ([`pt_residual`]), run on the driver's replicated blocks on every
//!   layout — no rank team flips Ψ to G-space for it.
//!
//! A [`KsSystem`] owns its machine layout and what the layout owns: the
//! `layout.cores()`-wide pool its drivers install, **and** — for
//! `ranks > 1` — its rank team, spawned on the first exact exchange block
//! and parked for the system's lifetime. [`KsSystem::exchange_block`] is
//! the one layout-aware exact exchange entry point: `W = V_X[Φ]Φ` inline
//! for one rank, one job on the team (Alg. 2's broadcasts plus the dealt
//! pair tiles of [`distributed_fock_apply`]) for more, with the same bits.
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod ace;
mod density;
mod distributed;
mod error;
mod fock;
mod grids;
mod hamiltonian;
mod hartree;
mod residual;
mod scratch;
mod system;

pub use ace::AceOperator;
pub use density::{density_from_orbitals, density_residual, integrate};
pub use distributed::{distributed_fock_apply, BandDistribution};
pub use error::PtError;
pub use fock::{ExchangeTile, FockMode, FockOperator, ScreenedKernel};
pub use grids::PwGrids;
pub use hamiltonian::Hamiltonian;
pub use residual::{pt_residual, OVERLAP_CHUNK_ROWS};
pub use system::{
    Energies, ExchangeMode, HybridConfig, KsSystem, KsSystemBuilder, Potentials, SystemSignature,
};
