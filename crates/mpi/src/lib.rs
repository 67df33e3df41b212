//! `pt-mpi` — a virtual MPI runtime for in-process distributed execution.
//!
//! The paper's parallel structure (§3) is MPI + CUDA: wavefunctions are
//! distributed by band index, `MPI_Bcast` streams one orbital at a time
//! through the Fock exchange loop (Alg. 2), `MPI_Alltoallv` flips between
//! band-index and G-space layouts (Alg. 3), `MPI_Allreduce` assembles
//! overlap matrices and densities, and the wire format is optionally
//! single precision (§3.2 optimization 4).
//!
//! This crate reproduces that substrate in-process: every rank is a
//! thread of a persistent [`RankEngine`], spawned once and owning its own
//! pinned `pt-par` compute pool (the paper's one-GPU-plus-CPU-slice per
//! rank), point-to-point messages are `std::sync::mpsc` channels, and the
//! collectives use the same algorithms real MPI implementations use for
//! large messages (binomial-tree broadcast, reduce+bcast allreduce,
//! pairwise alltoallv).
//! Data movement is *real* — bytes are copied between rank-local buffers,
//! optionally through an f32 wire — so the distributed Fock operator and
//! residual algorithms in `pt-ham` run exactly the communication pattern of
//! the paper, and the per-class byte counters let tests verify the paper's
//! communication-volume formulas (e.g. N_p·N_G·N_e for Alg. 2).

mod comm;
mod engine;
mod stats;

pub use comm::{rank_threads_spawned, Comm, Wire};
pub use engine::{EnginePoisoned, RankEngine};
pub use stats::{CommStats, StatsSnapshot};
