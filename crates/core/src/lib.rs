//! `pt-core` — parallel-transport rt-TDDFT propagation (the paper's
//! primary contribution), packaged behind a unified simulation API.
//!
//! The parallel transport (PT) gauge (§2, Eq. 4) evolves the orbitals by
//!
//! `i ∂t Ψ = HΨ − Ψ(Ψ* H Ψ)`
//!
//! whose right-hand side is a *residual*: it vanishes on any invariant
//! subspace, so the PT orbitals move as slowly as the physics allows.
//! Discretized with Crank–Nicolson this gives the implicit PT-CN step
//! (Eq. 5 / Alg. 1), a nonlinear fixed-point problem solved by Anderson
//! mixing with history up to 20 (§3.4). PT-CN takes ~50 as steps where
//! explicit RK4 needs ~0.5 as — a 20–30× end-to-end win on Summit (Fig. 6)
//! because each Fock exchange application is so expensive.
//!
//! # The simulation API
//!
//! * [`Propagator`] — the closed one-step value, one variant per propagator
//!   the paper runs: `Propagator::PtCn(`[`PtCnPropagator`]`)` (Alg. 1,
//!   options [`PtCnOptions`]; Anderson mixing at the paper's depth 20) and
//!   `Propagator::Rk4` (the Fig. 6 baseline, no options). Selected at
//!   runtime by value; every value a run holds is one its snapshot
//!   records and a resume rebuilds. Both reach exact exchange only through
//!   `KsSystem::exchange_block`, which runs it where the system's
//!   ranks × threads layout says — inline on the installed pool for one
//!   rank, on the system's own persistent virtual-MPI rank team with
//!   pinned pools for more, with identical bits — so a propagator is a
//!   plain value: options plus the ACE projector, nothing runtime-only.
//! * [`SimulationBuilder`] / [`Simulation`] — configure system, laser,
//!   `dt`, step count and propagator, then [`Simulation::run`] owns the
//!   time loop and returns a [`TimeSeries`]. The builder is the only
//!   constructor of a `Simulation`, for a fresh run and a resumed one
//!   alike; a built `Simulation` has no setters. Every step commits one fixed
//!   record — energy, current, electron count, dipole and orthonormality
//!   error, beside the field and the [`StepStats`] — in one place; a step
//!   whose record is not finite is refused with [`PtError::Diverged`].
//! * Misuse returns the typed [`PtError`] (re-exported from `pt-ham`) —
//!   nothing on the public setup path panics.
//!
//! Also provided: [`LaserPulse`] — the 380 nm velocity-gauge pulse of §4;
//! gauge-invariant observables (energy, current, density-matrix
//! invariants) and [`max_stable_rk4_dt`], RK4's step-size ceiling
//! 2√2 / λ_max(H) from a Lanczos estimate of the top of H's spectrum.
//!
//! # Checkpoint / restart
//!
//! Long trajectories survive job-time limits through the `pt-io` snapshot
//! subsystem: `SimulationBuilder::checkpoint_every` emits rolling
//! [`RunCheckpoint`]s from inside the time loop, and
//! [`Simulation::resume`] (one file) or [`Simulation::resume_latest`] (the
//! newest file of a directory that reads) returns a [`SimulationBuilder`]
//! preloaded from the snapshot, whose `build()` continues the run
//! bit-identically (see `DESIGN.md`, "Snapshot format & resume
//! semantics"). A snapshot holds what the next
//! step of a resumed run reads — ψ, the clock, the laser, the options, the
//! ACE projector, the series — and nothing a resume recomputes.

mod anderson_c;
pub mod checkpoint;
mod laser;
mod observables;
mod propagator;
mod simulation;
mod stability;

pub use anderson_c::BandAndersonMixer;
pub use checkpoint::{latest_checkpoint, RunCheckpoint};
pub use laser::LaserPulse;
pub use observables::{current_density, density_matrix_distance, orthonormality_error};
pub use propagator::{
    AceCapture, Propagator, PtCnOptions, PtCnPropagator, StepPhases, StepStats, TdState,
};
pub use pt_ham::PtError;
pub use simulation::{CancelToken, Simulation, SimulationBuilder, StepUpdate, TimeSeries};
pub use stability::max_stable_rk4_dt;
