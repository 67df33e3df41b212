//! `pt-lattice` — periodic cells, atomic structures and plane-wave grids.
//!
//! This crate owns everything geometric: the simulation cell and its
//! reciprocal lattice, the silicon supercell builders matching the paper's
//! test systems (1×1×3 … 4×6×8 conventional cells of 8 Si atoms at
//! a = 5.43 Å, §4), the G-vector spheres for the wavefunction (E_cut) and
//! density (4·E_cut) grids, 2,3,5-smooth FFT grid sizing — which reproduces
//! the paper's 60×90×120 wavefunction grid for the 1536-atom cell at
//! E_cut = 10 Ha exactly — and the Ewald ion–ion energy needed for total
//! energies.
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

mod cell;
mod ewald;
mod gvec;
mod structure;

pub use cell::Cell;
pub use ewald::ewald_energy;
pub use gvec::{fft_dims_for_cutoff, GSphere, GridGVectors};
pub use structure::{silicon_cubic_supercell, Atom, Species, Structure};
