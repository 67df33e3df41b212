//! `pt-perf` — the anchored Summit performance model that regenerates the
//! paper's evaluation (Tables 1–2, Figures 3, 6, 7, 8, 9, 10) and prints it
//! as one report ([`paper_report`]). It models Summit only; measured
//! timings of this code come from the `benchmark/` package.
//!
//! Structure: every per-SCF component of the PT-CN step (Table 1's rows)
//! and every per-step operation class (Table 2's rows) is modelled as
//! `t(P, problem) = A · f(problem) · (P/36)^γ`, where
//!
//! * `f(problem)` is the *physical* size scaling (e.g. the Fock exchange
//!   computation does N_e²/P Poisson solves of N_G log N_G work; the
//!   broadcast moves N_e·N_G·4 bytes per rank in f32),
//! * `A` and `γ` are anchored to the paper's published values at P = 36
//!   and P = 3072 for the 1536-atom system ([`PAPER_COMPONENT_ANCHORS`],
//!   [`PAPER_TABLE2_ANCHORS`] — each anchor written once).
//!
//! The model reads three machine primitives: the NIC-limited per-rank
//! broadcast bandwidth with √P fat-tree contention (the RK4 model of
//! Fig. 6 and the broadcast bars of Fig. 3; it gives the 2.2 GB/s per rank
//! the paper measures in §7), NVLink staging copies (Fig. 3), and node
//! power (the §6 parity of 72 GPUs against 3072 cores). This gives a
//! transparent, testable model that reproduces shapes (who wins, by what
//! factor, where scaling stalls) rather than pretending to re-measure
//! Summit.
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

mod artifacts;
mod machine;
mod model;
mod reference;
mod report;

pub use machine::{cpu_run_power, gpu_run_power};
pub use model::{CostModel, Problem};
pub use reference::{
    PAPER_COMPONENT_ANCHORS, PAPER_CPU_STEP_SECONDS, PAPER_FOCK_APPS_PER_STEP, PAPER_GPU_COUNTS,
    PAPER_SCF_PER_STEP, PAPER_TABLE1_PER_SCF_TOTAL, PAPER_TABLE1_SPEEDUP, PAPER_TABLE1_TOTAL,
    PAPER_TABLE2_ANCHORS, PAPER_TABLE2_BCAST,
};
pub use report::paper_report;
