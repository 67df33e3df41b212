//! `pt-mpi` — a virtual MPI runtime for in-process distributed execution.
//!
//! The paper's parallel structure (§3) is MPI + CUDA: wavefunctions are
//! distributed by band index, `MPI_Bcast` streams one orbital at a time
//! through the Fock exchange loop (Alg. 2), `MPI_Alltoallv` flips between
//! band-index and G-space layouts (Alg. 3), and `MPI_Allreduce` assembles
//! overlap matrices and densities. Only Alg. 2 runs on ranks here: the
//! PT residual of Alg. 3 is algebra on the driver's replicated blocks, so
//! no layout flip exists and Alg. 3's traffic lives in `pt-perf`'s model.
//! The paper also sends the Fock orbitals
//! in single precision (§3.2 optimization 4); here every message is `f64`,
//! because a quantized wire would make a run's bits depend on its rank
//! layout. That optimisation's effect lives in `pt-perf`'s Summit model.
//!
//! This crate reproduces that substrate in-process: every rank is a
//! thread of a persistent [`RankEngine`], spawned once and owning its own
//! pinned `pt-par` compute pool (the paper's one-GPU-plus-CPU-slice per
//! rank), point-to-point messages are `std::sync::mpsc` channels, and the
//! collectives use the same algorithms real MPI implementations use for
//! large messages (binomial-tree broadcast, reduce+bcast allreduce).
//! Data movement is *real* — bytes are copied between rank-local
//! buffers — so the distributed Fock operator in `pt-ham` runs exactly
//! the communication pattern of the paper's Alg. 2, and the per-class
//! byte counters let tests verify its communication-volume formula
//! (N_p·N_G·N_e).

mod comm;
mod engine;
mod stats;

pub use comm::{rank_threads_spawned, Comm, Wire};
pub use engine::{EnginePoisoned, RankEngine};
pub use stats::{CommStats, StatsSnapshot};
