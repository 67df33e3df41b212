//! The benchmark's fixed vocabulary: the four workloads, the gated
//! end-to-end metrics and the per-layer metrics, each layer metric with
//! the (end-to-end metric, workload) pairs it is predicted to move.
//! `BENCHMARK.json` at the repository root is the same catalog in the
//! driver's schema; a unit test holds the two together.

use pwdft_rt::prelude::{ExchangeMode, RankLayout, XcKind};

pub const FULL: &str = "si8_hse_full_1x1";
pub const ACE8: &str = "si8_hse_ace8_1x1";
pub const LDA: &str = "si16_lda_1x2";
pub const SERVED: &str = "si8_hse_full_served_2x1";

/// One workload: a silicon supercell, a functional, an exchange mode and
/// the ranks × threads layout it runs on.
pub struct Workload {
    pub name: &'static str,
    /// One line: which layer does most of the work here, and why that
    /// makes the workload worth its run time.
    pub why: &'static str,
    pub supercell: [usize; 3],
    pub xc: XcKind,
    pub hybrid: bool,
    pub exchange: ExchangeMode,
    pub layout: RankLayout,
    /// Submitted to an in-process `pt-serve` server instead of calling
    /// `Simulation::run` directly.
    pub served: bool,
    /// Electrons in the cell (4 per silicon atom).
    pub n_electrons: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: FULL,
        why: "Plain single-threaded baseline; the Fock pair-FFT loop is ~87% of a step, so pair-FFT, scratch and fusion work shows here first.",
        supercell: [1, 1, 1],
        xc: XcKind::Pbe,
        hybrid: true,
        exchange: ExchangeMode::Full,
        layout: RankLayout {
            ranks: 1,
            threads_per_rank: 1,
        },
        served: false,
        n_electrons: 32.0,
    },
    Workload {
        name: ACE8,
        why: "Same system, ACE projector refreshed every 8 steps: 7 of 8 steps are two rank-N GEMMs and zero pair FFTs, 1 of 8 builds the projector.",
        supercell: [1, 1, 1],
        xc: XcKind::Pbe,
        hybrid: true,
        exchange: ExchangeMode::Ace {
            refresh_interval: 8,
        },
        layout: RankLayout {
            ranks: 1,
            threads_per_rank: 1,
        },
        served: false,
        n_electrons: 32.0,
    },
    Workload {
        name: LDA,
        why: "Bypass workload: no exchange, pair FFTs exactly 0; dense-grid FFT, density, nonlocal, nb^2 GEMM and pool dispatch dominate on 2 threads.",
        supercell: [2, 1, 1],
        xc: XcKind::Lda,
        hybrid: false,
        exchange: ExchangeMode::Full,
        layout: RankLayout {
            ranks: 1,
            threads_per_rank: 2,
        },
        served: false,
        n_electrons: 64.0,
    },
    Workload {
        name: SERVED,
        why: "Production path: the full-exchange spec as a pt-serve job on 2 ranks with per-step checkpoints and a live tail; protocol, scheduler, wire and I/O show here.",
        supercell: [1, 1, 1],
        xc: XcKind::Pbe,
        hybrid: true,
        exchange: ExchangeMode::Full,
        layout: RankLayout {
            ranks: 2,
            threads_per_rank: 1,
        },
        served: true,
        n_electrons: 32.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One reading of a run, as the result line carries it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A gated end-to-end metric. All are lower-is-better; `bound` is the
/// share of the parent's median by which it may worsen. The timing bounds
/// sit at the driver's cap: the run-to-run spread (IQR/median over ten
/// seeds) on the shared 2-vCPU reference host reaches 13 %, see README.md.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s_per_fs",
        unit: "s/fs",
        bound: 0.25,
    },
    EndToEnd {
        name: "step_s_p50",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "step_s_p10",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "job_wall_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.15,
    },
];

/// A per-layer metric (layer = crate, the prefix of the name). `moves`
/// lists the (end-to-end metric, workload) pairs a change to this number
/// is predicted to move; every pairing not listed is predicted "no
/// change".
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static [(&'static str, &'static str)],
}

const LO: &str = "lower";
const HI: &str = "higher";
const P10: &str = "step_s_p10";
const P50: &str = "step_s_p50";
const FS: &str = "wall_s_per_fs";
const SETUP: &str = "setup_s";
const JOB: &str = "job_wall_s";

const FOCK: &[(&str, &str)] = &[(FS, FULL), (FS, SERVED), (FS, ACE8)];
const GEMM: &[(&str, &str)] = &[
    (P50, ACE8),
    (FS, ACE8),
    (P50, LDA),
    (SETUP, FULL),
    (SETUP, LDA),
];
const SCF: &[(&str, &str)] = &[(SETUP, FULL), (SETUP, ACE8), (SETUP, LDA), (SETUP, SERVED)];
const EVERY_FS: &[(&str, &str)] = &[(FS, FULL), (FS, ACE8), (FS, LDA), (FS, SERVED)];
const CKPT: &[(&str, &str)] = &[(P50, SERVED)];
const WIRE: &[(&str, &str)] = &[(FS, SERVED)];
const POOL: &[(&str, &str)] = &[(P50, LDA)];
const SERVE: &[(&str, &str)] = &[(JOB, SERVED), (P50, SERVED)];

#[rustfmt::skip]
pub const LAYERS: [Layer; 65] = [
    Layer { name: "fft.wfc_pair_us", unit: "us", better: LO, moves: &[(P10, FULL), (FS, FULL)] },
    Layer { name: "fft.wfc_gflops", unit: "GF/s", better: HI, moves: &[(P10, FULL), (FS, FULL)] },
    Layer { name: "fft.dense_pair_us", unit: "us", better: LO, moves: &[(P10, LDA), (FS, LDA)] },
    Layer { name: "fft.dense_gflops", unit: "GF/s", better: HI, moves: &[(P10, LDA), (FS, LDA)] },
    Layer { name: "fft.batch_transforms_per_s", unit: "1/s", better: HI, moves: &[(FS, FULL)] },
    Layer { name: "fft.transforms_per_step", unit: "count", better: LO, moves: &[(FS, FULL), (FS, LDA)] },
    Layer { name: "linalg.gemm_nn_gflops", unit: "GF/s", better: HI, moves: GEMM },
    Layer { name: "linalg.gemm_cn_gflops", unit: "GF/s", better: HI, moves: GEMM },
    Layer { name: "linalg.ortho_us", unit: "us", better: LO, moves: &[(P50, LDA), (SETUP, LDA)] },
    Layer { name: "linalg.eigh_us", unit: "us", better: LO, moves: &[(SETUP, LDA), (SETUP, FULL)] },
    Layer { name: "linalg.gemm_flops_per_step", unit: "flops", better: LO, moves: &[(FS, ACE8), (FS, LDA)] },
    Layer { name: "pseudo.nonlocal_apply_block_us", unit: "us", better: LO, moves: &[(P10, LDA)] },
    Layer { name: "ham.fock_apply_block_ms", unit: "ms", better: LO, moves: FOCK },
    Layer { name: "ham.pair_ffts_per_s", unit: "1/s", better: HI, moves: FOCK },
    Layer { name: "ham.pair_ffts_per_step", unit: "count", better: LO, moves: FOCK },
    Layer { name: "ham.ace_build_ms", unit: "ms", better: LO, moves: &[(FS, ACE8)] },
    Layer { name: "ham.ace_apply_block_us", unit: "us", better: LO, moves: &[(P50, ACE8)] },
    Layer { name: "ham.h_apply_block_ms", unit: "ms", better: LO, moves: &[(P50, FULL), (P50, ACE8), (P50, LDA)] },
    Layer { name: "ham.h_local_apply_block_ms", unit: "ms", better: LO, moves: &[(P50, LDA), (P50, ACE8)] },
    Layer { name: "ham.density_ms", unit: "ms", better: LO, moves: &[(P50, LDA)] },
    Layer { name: "ham.potentials_ms", unit: "ms", better: LO, moves: &[(P50, LDA)] },
    Layer { name: "ham.energies_ms", unit: "ms", better: LO, moves: &[(P50, FULL), (P50, SERVED)] },
    Layer { name: "ham.dist_fock_apply_ms", unit: "ms", better: LO, moves: WIRE },
    Layer { name: "scf.wall_s", unit: "s", better: LO, moves: SCF },
    Layer { name: "scf.iterations", unit: "count", better: LO, moves: SCF },
    Layer { name: "scf.s_per_iteration", unit: "s", better: LO, moves: SCF },
    Layer { name: "scf.davidson_ms", unit: "ms", better: LO, moves: SCF },
    Layer { name: "core.step_s_p50", unit: "s", better: LO, moves: &[(P50, FULL), (P50, ACE8), (P50, LDA), (P50, SERVED)] },
    Layer { name: "core.observer_s_per_step", unit: "s", better: LO, moves: &[(P50, FULL), (P50, ACE8)] },
    Layer { name: "core.step_s_p75", unit: "s", better: LO, moves: &[] },
    Layer { name: "core.refresh_step_s", unit: "s", better: LO, moves: &[(FS, ACE8)] },
    Layer { name: "core.stale_step_s", unit: "s", better: LO, moves: &[(P50, ACE8), (P10, ACE8)] },
    Layer { name: "core.fixed_point_iters_per_step", unit: "count", better: LO, moves: EVERY_FS },
    Layer { name: "core.h_applications_per_step", unit: "count", better: LO, moves: EVERY_FS },
    Layer { name: "core.phase.h_apply_s", unit: "s", better: LO, moves: &[(P50, FULL), (P50, SERVED)] },
    Layer { name: "core.phase.residual_s", unit: "s", better: LO, moves: &[(P50, LDA)] },
    Layer { name: "core.phase.mix_s", unit: "s", better: LO, moves: &[(P50, LDA)] },
    Layer { name: "core.phase.density_s", unit: "s", better: LO, moves: &[(P50, LDA)] },
    Layer { name: "core.phase.ortho_s", unit: "s", better: LO, moves: &[(P50, LDA)] },
    Layer { name: "core.phase.ace_build_s", unit: "s", better: LO, moves: &[(FS, ACE8)] },
    Layer { name: "core.phase.other_s", unit: "s", better: LO, moves: &[] },
    Layer { name: "core.checkpoint_write_ms", unit: "ms", better: LO, moves: CKPT },
    Layer { name: "core.checkpoint_read_ms", unit: "ms", better: LO, moves: &[] },
    Layer { name: "core.resume_s", unit: "s", better: LO, moves: &[] },
    Layer { name: "io.checkpoint_bytes", unit: "bytes", better: LO, moves: CKPT },
    Layer { name: "io.snapshot_write_mb_s", unit: "MB/s", better: HI, moves: CKPT },
    Layer { name: "io.snapshot_read_mb_s", unit: "MB/s", better: HI, moves: &[] },
    Layer { name: "mpi.wire_bytes_per_step", unit: "bytes", better: LO, moves: WIRE },
    Layer { name: "mpi.engine_jobs_per_step", unit: "count", better: LO, moves: WIRE },
    Layer { name: "mpi.engine_dispatch_us", unit: "us", better: LO, moves: WIRE },
    Layer { name: "mpi.allreduce_us", unit: "us", better: LO, moves: WIRE },
    Layer { name: "mpi.bcast_mb_s", unit: "MB/s", better: HI, moves: WIRE },
    Layer { name: "mpi.scaling_eff_2x1", unit: "ratio", better: HI, moves: WIRE },
    Layer { name: "par.dispatch_us", unit: "us", better: LO, moves: POOL },
    Layer { name: "par.speedup_1x2", unit: "ratio", better: HI, moves: POOL },
    Layer { name: "par.worker_threads_spawned", unit: "count", better: LO, moves: POOL },
    Layer { name: "serve.rpc_rtt_ms", unit: "ms", better: LO, moves: SERVE },
    Layer { name: "serve.submit_ack_ms", unit: "ms", better: LO, moves: SERVE },
    Layer { name: "serve.queue_wait_ms", unit: "ms", better: LO, moves: SERVE },
    Layer { name: "serve.first_sample_s", unit: "s", better: LO, moves: SERVE },
    Layer { name: "serve.fetch_ms", unit: "ms", better: LO, moves: SERVE },
    Layer { name: "serve.overhead_s_per_step", unit: "s", better: LO, moves: SERVE },
    Layer { name: "serve.sched_dispatches", unit: "count", better: LO, moves: SERVE },
    Layer { name: "trace.overhead_pct", unit: "%", better: LO, moves: &[] },
    Layer { name: "trace.dropped_events", unit: "count", better: LO, moves: &[] },
];

#[cfg(test)]
mod tests {
    use super::*;
    use pwdft_rt::io::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("entry {entry:?} lacks string '{key}'"))
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn manifest_lists_exactly_the_catalog() {
        let m = manifest();
        let list = |key: &str| m.get(key).and_then(Json::as_arr).expect("manifest list");

        let workloads = list("workloads");
        assert!((2..=8).contains(&workloads.len()));
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(entry, "name"), w.name);
            assert_eq!(field(entry, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }

        let e2e = list("end_to_end");
        assert!((1..=16).contains(&e2e.len()));
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, e) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), e.name);
            assert_eq!(field(entry, "unit"), e.unit);
            assert_eq!(field(entry, "better"), "lower");
            let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
            assert_eq!(bound, e.bound);
            assert!(bound > 0.0 && bound <= 0.25, "{}", e.name);
        }
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));

        let layers = list("per_layer");
        assert!((1..=128).contains(&layers.len()));
        assert_eq!(layers.len(), LAYERS.len());
        for (entry, l) in layers.iter().zip(&LAYERS) {
            assert_eq!(field(entry, "name"), l.name);
            assert_eq!(field(entry, "unit"), l.unit);
            assert_eq!(field(entry, "better"), l.better);
        }
    }

    #[test]
    fn names_units_and_interactions_are_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|e| e.name));
        names.extend(LAYERS.iter().map(|l| l.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");

        for e in &END_TO_END {
            assert!(valid_unit(e.unit), "{}", e.name);
        }
        for l in &LAYERS {
            assert!(valid_unit(l.unit), "{}", l.name);
            assert!(l.better == "lower" || l.better == "higher", "{}", l.name);
            for (metric, wl) in l.moves {
                assert!(
                    END_TO_END.iter().any(|e| e.name == *metric),
                    "{}: moves unknown end-to-end metric {metric}",
                    l.name
                );
                assert!(
                    workload(wl).is_some(),
                    "{}: moves unknown workload {wl}",
                    l.name
                );
            }
        }
    }
}
