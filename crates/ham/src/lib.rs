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
//! * the PT residual of Alg. 3 on the fixed 64-row chunk grid, comm-free
//!   ([`pt_residual`]) or with the band-index ↔ G-space layout flips of a
//!   rank team ([`distributed_residual`]).

mod ace;
mod density;
mod distributed;
mod error;
mod fock;
mod grids;
mod hamiltonian;
mod hartree;
mod scratch;
mod system;

pub use ace::AceOperator;
pub use density::{density_from_orbitals, density_residual, integrate};
pub use distributed::{
    distributed_fock_apply, distributed_residual, pt_residual, BandDistribution, OVERLAP_CHUNK_ROWS,
};
pub use error::PtError;
pub use fock::{ExchangeTile, FockMode, FockOperator, ScreenedKernel};
pub use grids::PwGrids;
pub use hamiltonian::Hamiltonian;
pub use system::{
    Energies, ExchangeMode, HybridConfig, KsSystem, KsSystemBuilder, Potentials, SystemSignature,
};
