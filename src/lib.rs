//! # pwdft-rt
//!
//! A from-scratch Rust reproduction of *"Parallel Transport Time-Dependent
//! Density Functional Theory Calculations with Hybrid Functional on Summit"*
//! (Jia, Wang, Lin — SC'19, arXiv:1905.01348).
//!
//! Two layers:
//!
//! * **Layer A (real numerics)** — a complete plane-wave Kohn–Sham DFT +
//!   rt-TDDFT stack: own FFTs ([`fft`]), complex dense linear algebra
//!   ([`linalg`]), periodic cells and G-spheres ([`lattice`]), GTH
//!   pseudopotentials ([`pseudo`]), LDA/PBE ([`xc`]), the screened Fock
//!   exchange operator and full Hamiltonian ([`ham`]), ground-state SCF
//!   ([`scf`]), and the parallel-transport PT-CN propagator with its RK4
//!   baseline ([`core`]). A virtual MPI runtime ([`mpi`]) runs the paper's
//!   distributed algorithms (Alg. 2/3) across in-process rank threads with
//!   real data movement and byte accounting. Everything executes on the
//!   [`par`] fixed-worker thread pool (`PT_NUM_THREADS`, bit-deterministic
//!   for any thread count) through its chunk-ordered `parallel_*`
//!   primitives; a `ranks × threads_per_rank` [`par::RankLayout`] — the
//!   run's one layout value, set with [`ham::KsSystemBuilder::layout`] —
//!   sizes the system's pool to its cores and, for more than one rank,
//!   gives the system a persistent rank team with a pinned pool per rank
//!   thread. Every exact exchange block of both propagators goes through
//!   [`ham::KsSystem::exchange_block`]: inline on the pool for one rank,
//!   one job on the system's team for more — bit-identical either way.
//! * **Layer B (Summit model)** — the anchored Summit performance model
//!   ([`perf`]) that regenerates every table and figure of the paper's
//!   evaluation as one report (`examples/paper_artifacts.rs`).
//! * **Serving layer** — [`serve`]: a std-only simulation job server
//!   (queue + core-packing scheduler over [`par::RankLayout`] widths,
//!   live observable streaming over length-prefixed JSON/TCP, and
//!   crash-durable auto-resume built on the [`io`] snapshot subsystem) —
//!   the fleet workflow of a real allocation, with the same bit-exactness
//!   guarantees as a single run.
//!
//! # The unified simulation API
//!
//! The intended entry point is [`prelude`]: build a [`ham::KsSystem`] with
//! [`ham::KsSystemBuilder`] (cutoff, XC kind, hybrid config, occupations),
//! converge it with [`scf::scf_loop`], then configure a
//! [`core::Simulation`] via [`core::SimulationBuilder`] — system, laser,
//! `dt`, step count and a runtime-selectable [`core::Propagator`] (a
//! closed enum: `Propagator::PtCn` or `Propagator::Rk4`).
//! `Simulation::run()` owns the time loop and returns a
//! [`core::TimeSeries`] holding one fixed record per step — energy,
//! current, electron count, dipole, orthonormality — beside per-step
//! [`core::StepStats`]. Misuse returns the typed [`core::PtError`] — the
//! public setup path never panics — and a run that goes non-finite stops
//! with `PtError::Diverged` at the first step it would not commit. A
//! killed run resumes through the same builder:
//! [`core::Simulation::resume_latest`] returns it preloaded from the newest
//! snapshot that reads, and its `build()` continues bit-identically.
//!
//! ```no_run
//! use pwdft_rt::prelude::*;
//!
//! fn run() -> Result<(), PtError> {
//!     let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
//!         .ecut(2.5)
//!         .xc(XcKind::Pbe)
//!         .hybrid(HybridConfig::hse06())
//!         .build()?;
//!     let gs = scf_loop(&sys, ScfOptions::default())?;
//!     let series = SimulationBuilder::new(&sys)
//!         .initial_orbitals(gs.orbitals.clone())
//!         .laser(LaserPulse::paper_380nm(
//!             0.02,
//!             attosecond_to_au(200.0),
//!             attosecond_to_au(100.0),
//!         ))
//!         .dt(attosecond_to_au(25.0))
//!         .steps(10)
//!         .propagator(Propagator::PtCn(PtCnPropagator::default()))
//!         .build()?
//!         .run()?;
//!     println!("j_z(t_end) = {:?}", series.channel("current_z").unwrap().last());
//!     Ok(())
//! }
//! ```
//!
//! See `examples/quickstart.rs` for the five-minute tour and `DESIGN.md`
//! for the system inventory.
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

pub use pt_core as core;
pub use pt_fft as fft;
pub use pt_ham as ham;
pub use pt_io as io;
pub use pt_lattice as lattice;
pub use pt_linalg as linalg;
pub use pt_mpi as mpi;
pub use pt_num as num;
pub use pt_par as par;
pub use pt_perf as perf;
pub use pt_pseudo as pseudo;
pub use pt_scf as scf;
pub use pt_serve as serve;
pub use pt_trace as trace;
pub use pt_xc as xc;

/// Everything a typical simulation needs, one `use` away.
pub mod prelude {
    pub use pt_core::{
        current_density, density_matrix_distance, latest_checkpoint, max_stable_rk4_dt,
        orthonormality_error, CancelToken, LaserPulse, Propagator, PtCnOptions, PtCnPropagator,
        PtError, RunCheckpoint, Simulation, SimulationBuilder, StepStats, StepUpdate, TdState,
        TimeSeries,
    };
    pub use pt_ham::{ExchangeMode, HybridConfig, KsSystem, KsSystemBuilder, SystemSignature};
    pub use pt_io::{Json, SnapshotFile, SnapshotWriter, Table};
    pub use pt_lattice::silicon_cubic_supercell;
    pub use pt_mpi::Wire;
    pub use pt_num::units::{attosecond_to_au, au_to_attosecond};
    pub use pt_par::{RankLayout, ThreadPool};
    pub use pt_scf::{scf_loop, ScfOptions, ScfResult};
    pub use pt_serve::{Client, CorePackingScheduler, JobSpec, JobState, ServerConfig};
    pub use pt_xc::XcKind;
}
