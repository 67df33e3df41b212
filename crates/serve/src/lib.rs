//! `pt-serve` — a simulation job server over the workspace's rt-TDDFT
//! stack: submit [`JobSpec`]s, watch observables stream live, survive
//! `kill -9`.
//!
//! The paper's production reality is a *fleet* of runs sharing a machine
//! allocation — parameter scans, convergence ladders, restarts — not one
//! heroic process. This crate packages that workflow:
//!
//! * **Queue + core-packing scheduler** ([`CorePackingScheduler`]): jobs
//!   declare a `ranks × threads_per_rank` layout
//!   ([`pt_par::RankLayout`]); the scheduler packs concurrent jobs
//!   against a server-wide core budget — FIFO with bounded backfill, so
//!   narrow jobs keep the machine busy but can never starve a wide one.
//!   Jobs that could never fit are rejected at submit with a typed error.
//! * **Live observable streaming**: each job's step tap publishes every
//!   committed step over an mpsc fan-in to the per-job progress hub;
//!   `tail` streams any channel (energy, current, dipole, SCF stats …)
//!   over a length-prefixed JSON/TCP protocol while the job runs.
//! * **Crash durability**: specs, rolling snapshots and terminal markers
//!   all live under the run directory, written atomically or
//!   CRC-verified. Kill the server (`SIGKILL`, power loss) and start it
//!   again on the same directory: finished jobs rehydrate, interrupted
//!   jobs resume from their newest *valid* snapshot and complete with
//!   **bit-identical** final series (the checkpoint/resume contract of
//!   `pt-core` extended to a whole fleet). Job panics are caught by the
//!   per-job supervisor and become typed `failed` states.
//!
//! Everything is std-only, like the rest of the workspace: the protocol
//! runs on `std::net::TcpStream`, serialization on [`pt_io::Json`].
//!
//! See `DESIGN.md` ("Job server: protocol, scheduling, durability") for
//! the wire format and the job state machine.
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod client;
mod hub;
mod protocol;
mod scheduler;
mod server;
mod spec;

pub use client::{Client, JobRate, JobStatus, StatsFrame, TailChunk};
pub use hub::JobState;
pub use protocol::{
    check_response, error_response, ok_response, read_frame, write_frame, MAX_FRAME,
};
pub use scheduler::{CorePackingScheduler, MAX_BACKFILLS_PAST_HEAD};
pub use server::{port_file, read_port_file, start, ServerConfig, ServerHandle};
pub use spec::{JobSpec, LaserSpec, SystemSpec};
