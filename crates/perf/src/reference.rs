//! The paper's published measurements, kept verbatim as calibration
//! anchors and test oracles.

/// GPU counts of Table 1 / Table 2.
pub const PAPER_GPU_COUNTS: [usize; 8] = [36, 72, 144, 288, 384, 768, 1536, 3072];

/// Table 1 "per SCF time" row (seconds).
pub const PAPER_TABLE1_PER_SCF_TOTAL: [f64; 8] = [101.36, 52.4, 32.5, 16.4, 13.4, 10.9, 10.9, 12.1];

/// Table 1 "Total time" row (seconds per 50 as PT-CN step).
pub const PAPER_TABLE1_TOTAL: [f64; 8] = [2453.8, 1269.1, 783.0, 393.9, 323.2, 260.9, 262.5, 286.6];

/// Table 1 total speedups over the 3072-core CPU run (8874 s).
pub const PAPER_TABLE1_SPEEDUP: [f64; 8] = [3.6, 7.0, 11.3, 22.5, 27.4, 34.0, 33.8, 30.9];

/// Per-SCF component anchors from Table 1 at P = 36 and P = 3072
/// (seconds): (name, t36, t3072), in Table 1 order. `CostModel` builds its
/// components from these and nothing else.
pub const PAPER_COMPONENT_ANCHORS: [(&str, f64, f64); 11] = [
    ("fock_mpi", 0.71, 8.074),
    ("fock_comp", 90.99, 1.43),
    ("local_semilocal", 0.337, 0.00404),
    ("residual_alltoallv", 0.884, 0.056),
    ("residual_allreduce", 0.354, 0.5243),
    ("residual_comp", 1.43, 0.023),
    ("anderson_memcpy", 1.64235, 0.0202),
    ("anderson_comp", 2.3, 0.04),
    ("density_comp", 0.1349, 0.0016),
    ("density_allreduce", 0.123, 0.171),
    ("others", 2.66, 1.85),
];

/// Table 2 anchors (per 50 as step, seconds): (class, t36, t3072), in
/// Table 2 order. `CostModel` builds its operation classes from these and
/// nothing else.
pub const PAPER_TABLE2_ANCHORS: [(&str, f64, f64); 6] = [
    ("memcpy", 60.80, 2.24),
    ("alltoallv", 20.97, 0.68),
    ("allreduce", 11.50, 16.62),
    ("bcast", 18.78, 193.89),
    ("allgatherv", 0.44, 1.24),
    ("computation", 2341.40, 71.96),
];

/// Table 2 MPI_Bcast row for all GPU counts (test oracle for the
/// contention model).
pub const PAPER_TABLE2_BCAST: [f64; 8] = [18.78, 20.89, 31.06, 44.54, 48.13, 92.26, 146.15, 193.89];

/// CPU baseline: best 3072-core time per 50 as step (§6).
pub const PAPER_CPU_STEP_SECONDS: f64 = 8874.0;

/// Average SCF iterations per PT-CN step (§4).
pub const PAPER_SCF_PER_STEP: usize = 22;

/// Fock exchange applications per PT-CN step (§7: 22 SCF + residual +
/// energy).
pub const PAPER_FOCK_APPS_PER_STEP: usize = 24;
