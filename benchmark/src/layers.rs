//! The traced pass: one shorter run of the workload with `pt_trace`
//! armed (step phases, counters) plus outside-in probes that time each
//! crate's public entry points on the workload's own system, orbitals
//! and pool width. Nothing here is gated; it explains the gated numbers.

use crate::catalog::{Metric, Workload, LAYERS};
use crate::checks::{check_run, Ops};
use crate::run::{prepare, propagate, run_served, series_columns, Prepared, Propagation};
use crate::stats::{mean, median, percentile};
use pwdft_rt::ham::{
    distributed_fock_apply, AceOperator, BandDistribution, FockMode, FockOperator,
};
use pwdft_rt::linalg::{eigh, gemm, orthonormalize_columns, CMat, Op};
use pwdft_rt::mpi::{Comm, RankEngine};
use pwdft_rt::num::c64;
use pwdft_rt::prelude::*;
use pwdft_rt::scf::{lowest_eigenpairs, DavidsonOptions};
use pwdft_rt::trace::{self as pt_trace, Counter};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Timed calls per probe (after one warm-up call); the median is kept.
const REPS: usize = 11;
/// Steps of the untraced companion run the tracing overhead is read
/// against.
const OVERHEAD_STEPS: usize = 8;

/// Per-layer readings of one traced pass: a value, or the reason the
/// metric does not apply to this workload on this host.
#[derive(Default)]
pub struct Ledger {
    entries: BTreeMap<&'static str, Result<f64, String>>,
}

impl Ledger {
    fn set(&mut self, name: &'static str, value: f64) {
        self.entries.insert(name, Ok(value));
    }

    /// Mark every catalog metric `applies` selects, and that has no
    /// reading yet, as not applicable for `reason`.
    fn na(&mut self, applies: impl Fn(&str) -> bool, reason: &str) {
        for layer in LAYERS.iter().filter(|l| applies(l.name)) {
            self.entries
                .entry(layer.name)
                .or_insert_with(|| Err(reason.to_string()));
        }
    }
}

/// Print every per-layer reading — with the end-to-end metrics it is
/// predicted to move on this workload — and return them in catalog order
/// (NaN where a metric does not apply).
pub fn report(w: &Workload, ledger: &Ledger) -> Vec<Metric> {
    println!("# per-layer metrics");
    LAYERS
        .iter()
        .map(|l| {
            let value = match ledger.entries.get(l.name) {
                Some(Ok(v)) => {
                    let moves: Vec<&str> = l
                        .moves
                        .iter()
                        .filter(|(_, wl)| *wl == w.name)
                        .map(|(metric, _)| *metric)
                        .collect();
                    let moves = if moves.is_empty() {
                        String::new()
                    } else {
                        format!("  -> {}", moves.join(", "))
                    };
                    println!(
                        "  {:<32} {v:>16.4} {:<6} {} is better{moves}",
                        l.name, l.unit, l.better
                    );
                    *v
                }
                Some(Err(why)) => {
                    println!("  {:<32} {:>16} {:<6} ({why})", l.name, "null", l.unit);
                    f64::NAN
                }
                None => f64::NAN,
            };
            Metric {
                name: l.name,
                value,
                unit: l.unit,
            }
        })
        .collect()
}

fn time_median(mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// The 5·N·log₂N flop model of one complex FFT of `n` points.
fn fft_flops(n: usize) -> f64 {
    5.0 * n as f64 * (n as f64).log2()
}

/// Run the traced pass for `w` and return its ledger; correctness
/// operations of the traced run(s) are recorded into `ops`.
pub fn traced_pass(
    w: &Workload,
    spec: &JobSpec,
    seed: u64,
    scratch: &Path,
    ops: &mut Ops,
) -> Result<Ledger, PtError> {
    let mut ledger = Ledger::default();
    let steps = spec.steps;
    let workers_before = pwdft_rt::par::worker_threads_spawned();
    pt_trace::reset();
    pt_trace::set_enabled(true);

    // the served job itself, traced, as a client sees it
    let served = if w.served {
        let mark = pt_trace::mark();
        let served = run_served(spec, &scratch.join("serve"), true, false)?;
        served.record_job(ops);
        check_run(ops, w, seed, steps, &served.columns);
        ledger.set(
            "serve.rpc_rtt_ms",
            served.rpc_rtt_s.unwrap_or(f64::NAN) * 1e3,
        );
        ledger.set("serve.submit_ack_ms", served.submit_ack_s * 1e3);
        ledger.set("serve.queue_wait_ms", served.queue_wait_s * 1e3);
        ledger.set("serve.first_sample_s", served.first_sample_s);
        ledger.set("serve.fetch_ms", served.fetch_s * 1e3);
        ledger.set(
            "serve.sched_dispatches",
            pt_trace::counters_since(&mark).get(Counter::SchedDispatches) as f64,
        );
        Some(served)
    } else {
        ledger.na(|name| name.starts_with("serve."), "not a served workload");
        None
    };

    // ground state (the served replica converges it the way the job does)
    let scf_mark = pt_trace::mark();
    let prep = prepare(spec)?;
    let scf_iterations = pt_trace::counters_since(&scf_mark).get(Counter::ScfIterations);
    ledger.set("scf.wall_s", prep.scf_s);
    ledger.set("scf.iterations", scf_iterations as f64);
    ledger.set("scf.s_per_iteration", prep.scf_s / scf_iterations as f64);
    let psi = &prep.gs.orbitals;

    // untraced companion run, then the traced run; a served workload
    // replicates what the job runner does (per-step checkpoints) in-process
    let ckpt_dir = scratch.join("replica");
    let ckpt = w.served.then_some(ckpt_dir.as_path());
    pt_trace::set_enabled(false);
    let plain = propagate(&prep.sys, psi, spec, OVERHEAD_STEPS.min(steps), ckpt, None)?;
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    pt_trace::set_enabled(true);
    let mark = pt_trace::mark();
    let traced = propagate(&prep.sys, psi, spec, steps, ckpt, None)?;
    let counters = pt_trace::counters_since(&mark);
    if !w.served {
        check_run(ops, w, seed, steps, &series_columns(&traced.series));
    }
    core_metrics(&mut ledger, w, &traced, &counters);
    // pools are spawned once per run, so this is a per-run count
    ledger.set(
        "par.worker_threads_spawned",
        (pwdft_rt::par::worker_threads_spawned() - workers_before) as f64,
    );
    // p10, not the median: on a shared host the upper half of either
    // sample measures the neighbours, and the two runs are minutes apart
    let n = plain.step_walls.len();
    let (off, on) = (
        percentile(&plain.step_walls, 10.0),
        percentile(&traced.step_walls[..n], 10.0),
    );
    ledger.set("trace.overhead_pct", (on - off) / off * 100.0);

    if let Some(served) = &served {
        ledger.set(
            "serve.overhead_s_per_step",
            median(&served.step_walls) - median(&traced.step_walls),
        );
    }

    // outside-in probes, on the pool width one rank of the workload has
    let pool = ThreadPool::new(w.layout.threads_per_rank);
    pool.install(|| kernel_probes(&mut ledger, w, &prep))?;
    pool_probes(&mut ledger, w, &prep)?;
    checkpoint_probes(&mut ledger, &prep, spec, ckpt, &scratch.join("ckpt"))?;
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    if w.layout.ranks > 1 {
        rank_probes(&mut ledger, w, &prep, spec, &plain, &ckpt_dir)?;
    } else {
        ledger.na(
            is_rank_probe,
            "single-rank workload: no rank engine on its path",
        );
    }

    ledger.set("trace.dropped_events", pt_trace::dropped_events() as f64);
    pt_trace::set_enabled(false);

    for layer in &LAYERS {
        ops.record(ledger.entries.contains_key(layer.name), || {
            format!("traced pass produced no reading for {}", layer.name)
        });
    }
    Ok(ledger)
}

/// Everything read off the traced run itself: step phases, counters per
/// step and the refresh/stale split of an ACE run.
fn core_metrics(
    ledger: &mut Ledger,
    w: &Workload,
    run: &Propagation,
    counters: &pt_trace::CounterSnapshot,
) {
    let stats = &run.series.stats;
    let steps = stats.len() as f64;
    let inner: Vec<f64> = stats.iter().map(|s| s.phases.wall).collect();
    ledger.set("core.step_s_p50", median(&inner));
    ledger.set("core.step_s_p75", percentile(&run.step_walls, 75.0));
    ledger.set(
        "core.observer_s_per_step",
        median(&run.step_walls) - median(&inner),
    );
    let phase = |get: fn(&pwdft_rt::core::StepStats) -> f64| {
        mean(&stats.iter().map(get).collect::<Vec<_>>())
    };
    ledger.set("core.phase.h_apply_s", phase(|s| s.phases.h_apply));
    ledger.set("core.phase.residual_s", phase(|s| s.phases.residual));
    ledger.set("core.phase.mix_s", phase(|s| s.phases.mix));
    ledger.set("core.phase.density_s", phase(|s| s.phases.density));
    ledger.set("core.phase.ortho_s", phase(|s| s.phases.ortho));
    ledger.set("core.phase.ace_build_s", phase(|s| s.phases.ace_build));
    ledger.set("core.phase.other_s", phase(|s| s.phases.other));

    match w.exchange.refresh_interval() {
        Some(every) => {
            let mean_where = |refresh: bool| {
                let walls: Vec<f64> = inner
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (i % every == 0) == refresh)
                    .map(|(_, &wall)| wall)
                    .collect();
                mean(&walls)
            };
            ledger.set("core.refresh_step_s", mean_where(true));
            ledger.set("core.stale_step_s", mean_where(false));
        }
        None => ledger.na(
            |name| name == "core.refresh_step_s" || name == "core.stale_step_s",
            "no ACE projector in this workload",
        ),
    }

    let per_step = |c: Counter| counters.get(c) as f64 / steps;
    ledger.set("fft.transforms_per_step", per_step(Counter::FftTransforms));
    ledger.set("linalg.gemm_flops_per_step", per_step(Counter::GemmFlops));
    ledger.set("ham.pair_ffts_per_step", per_step(Counter::PairFfts));
    ledger.set(
        "core.fixed_point_iters_per_step",
        per_step(Counter::FixedPointIterations),
    );
    ledger.set(
        "core.h_applications_per_step",
        stats.iter().map(|s| s.h_applications).sum::<usize>() as f64 / steps,
    );
    ledger.set("mpi.wire_bytes_per_step", per_step(Counter::WireBytes));
    ledger.set("mpi.engine_jobs_per_step", per_step(Counter::EngineJobs));
}

/// fft / linalg / pseudo / ham / scf entry points, timed on the calling
/// thread's installed pool.
fn kernel_probes(ledger: &mut Ledger, w: &Workload, prep: &Prepared) -> Result<(), PtError> {
    let sys = &prep.sys;
    let psi = &prep.gs.orbitals;
    let g = &sys.grids;
    let (ng, nb) = (g.ng(), sys.n_bands());
    let a_field = [0.0, 0.0, 0.01];

    // fft: forward + inverse returns the input, so repeats stay bounded
    let mut wfc = vec![c64::ZERO; g.n_wfc()];
    g.to_real_wfc(psi.col(0), &mut wfc);
    let t = time_median(|| {
        g.fft_wfc.forward(&mut wfc);
        g.fft_wfc.inverse(&mut wfc);
    });
    ledger.set("fft.wfc_pair_us", t * 1e6);
    ledger.set("fft.wfc_gflops", 2.0 * fft_flops(g.n_wfc()) / t / 1e9);
    let mut dense = vec![c64::ZERO; g.n_dense()];
    g.to_real_dense(psi.col(0), &mut dense);
    let t = time_median(|| {
        g.fft_dense.forward(&mut dense);
        g.fft_dense.inverse(&mut dense);
    });
    ledger.set("fft.dense_pair_us", t * 1e6);
    ledger.set("fft.dense_gflops", 2.0 * fft_flops(g.n_dense()) / t / 1e9);
    let mut batch: Vec<c64> = (0..nb).flat_map(|_| wfc.iter().copied()).collect();
    let t = time_median(|| {
        g.fft_wfc.forward_batch(&mut batch);
        g.fft_wfc.inverse_batch(&mut batch);
    });
    ledger.set("fft.batch_transforms_per_s", 2.0 * nb as f64 / t);

    // linalg, at the shapes a step uses
    let small = CMat::from_fn(nb, nb, |i, j| c64::new(1.0 / (1 + i + j) as f64, 0.0));
    let mut block = CMat::zeros(ng, nb);
    let t = time_median(|| {
        gemm(
            c64::ONE,
            psi,
            Op::None,
            &small,
            Op::None,
            c64::ZERO,
            &mut block,
        )
    });
    ledger.set(
        "linalg.gemm_nn_gflops",
        8.0 * (ng * nb * nb) as f64 / t / 1e9,
    );
    let mut overlap = CMat::zeros(nb, nb);
    let t = time_median(|| {
        gemm(
            c64::ONE,
            psi,
            Op::ConjTrans,
            psi,
            Op::None,
            c64::ZERO,
            &mut overlap,
        )
    });
    ledger.set(
        "linalg.gemm_cn_gflops",
        8.0 * (ng * nb * nb) as f64 / t / 1e9,
    );
    let t = time_median(|| {
        let mut x = psi.clone();
        orthonormalize_columns(&mut x, 0.0);
        black_box(&x);
    });
    ledger.set("linalg.ortho_us", t * 1e6);
    let hermitian = CMat::from_fn(2 * nb, 2 * nb, |i, j| {
        let re = 1.0 / (1 + i.abs_diff(j)) as f64;
        let im = (i as f64 - j as f64) / (2 * nb) as f64;
        c64::new(re, im)
    });
    let t = time_median(|| {
        black_box(eigh(&hermitian));
    });
    ledger.set("linalg.eigh_us", t * 1e6);

    let t = time_median(|| sys.nonlocal.apply_block(psi.data(), block.data_mut(), ng));
    ledger.set("pseudo.nonlocal_apply_block_us", t * 1e6);

    // ham
    let rho = sys.density(psi);
    let local = sys.local_hamiltonian(&rho, a_field)?;
    let t_local = time_median(|| local.apply_block(psi, &mut block));
    ledger.set("ham.h_local_apply_block_ms", t_local * 1e3);
    let t = time_median(|| {
        black_box(sys.density(psi));
    });
    ledger.set("ham.density_ms", t * 1e3);
    let t = time_median(|| {
        black_box(sys.potentials(&rho).e_hartree);
    });
    ledger.set("ham.potentials_ms", t * 1e3);
    let t = time_median(|| {
        black_box(sys.energies(psi, &rho, a_field));
    });
    ledger.set("ham.energies_ms", t * 1e3);

    if let Some(hybrid) = sys.hybrid {
        let full = sys.hamiltonian(&rho, Some(psi), a_field)?;
        let kernel = sys.exchange_kernel()?.clone();
        let fock = FockOperator::new(g, psi, hybrid.alpha, kernel, FockMode::Batched);
        let mark = pt_trace::mark();
        let t = time_median(|| fock.apply_block(g, psi, &mut block));
        let pairs = pt_trace::counters_since(&mark).get(Counter::PairFfts) / (REPS as u64 + 1);
        ledger.set("ham.fock_apply_block_ms", t * 1e3);
        ledger.set("ham.pair_ffts_per_s", pairs as f64 / t);
        let t = time_median(|| {
            black_box(AceOperator::new(g, &fock, psi).is_ok());
        });
        ledger.set("ham.ace_build_ms", t * 1e3);
        let ace = AceOperator::new(g, &fock, psi)?;
        let t_ace = time_median(|| ace.apply_block(psi, &mut block));
        ledger.set("ham.ace_apply_block_us", t_ace * 1e6);
        let t_h = match w.exchange {
            ExchangeMode::Full => time_median(|| full.apply_block(psi, &mut block)),
            // what a stale-window fixed-point iteration applies
            _ => time_median(|| {
                local.apply_block(psi, &mut block);
                ace.apply_block(psi, &mut block);
            }),
        };
        ledger.set("ham.h_apply_block_ms", t_h * 1e3);
    } else {
        ledger.na(
            |name| {
                matches!(
                    name,
                    "ham.fock_apply_block_ms"
                        | "ham.pair_ffts_per_s"
                        | "ham.ace_build_ms"
                        | "ham.ace_apply_block_us"
                )
            },
            "semi-local functional: no exchange operator",
        );
        ledger.set("ham.h_apply_block_ms", t_local * 1e3);
    }

    // one Davidson iteration (H apply + Rayleigh-Ritz + residuals) from
    // the converged orbitals, on the SCF's own H
    let h0 = sys.hamiltonian(&prep.gs.rho, sys.hybrid.map(|_| psi), [0.0; 3])?;
    let one_iteration = DavidsonOptions {
        max_iter: 1,
        ..ScfOptions::default().davidson
    };
    let t = time_median(|| {
        let mut x = psi.clone();
        black_box(lowest_eigenpairs(&h0, &mut x, one_iteration).residual);
    });
    ledger.set("scf.davidson_ms", t * 1e3);
    Ok(())
}

/// pt-par: region dispatch cost and what a second thread buys.
fn pool_probes(ledger: &mut Ledger, w: &Workload, prep: &Prepared) -> Result<(), PtError> {
    let pool = ThreadPool::new(w.layout.threads_per_rank);
    let t = pool.install(|| {
        time_median(|| {
            pwdft_rt::par::parallel_for(64, |i| {
                black_box(i);
            })
        })
    });
    ledger.set("par.dispatch_us", t * 1e6);
    if RankLayout::host_cores() < 2 {
        ledger.na(
            |name| name == "par.speedup_1x2",
            "needs 2 cores, host has 1: a speed-up here would be scheduling noise",
        );
        return Ok(());
    }
    let psi = &prep.gs.orbitals;
    let rho = prep.sys.density(psi);
    let local = prep.sys.local_hamiltonian(&rho, [0.0; 3])?;
    let mut out = CMat::zeros(psi.nrows(), psi.ncols());
    let mut at = |threads: usize| {
        ThreadPool::new(threads).install(|| time_median(|| local.apply_block(psi, &mut out)))
    };
    let (one, two) = (at(1), at(2));
    ledger.set("par.speedup_1x2", one / two);
    Ok(())
}

/// pt-core checkpointing and pt-io snapshot throughput, on a real
/// checkpoint of this workload.
fn checkpoint_probes(
    ledger: &mut Ledger,
    prep: &Prepared,
    spec: &JobSpec,
    existing: Option<&Path>,
    dir: &Path,
) -> Result<(), PtError> {
    let dir = match existing {
        Some(dir) => dir,
        None => {
            propagate(&prep.sys, &prep.gs.orbitals, spec, 1, Some(dir), None)?;
            dir
        }
    };
    let path = latest_checkpoint(dir)?.ok_or_else(|| PtError::Io {
        path: dir.display().to_string(),
        reason: "no checkpoint was written".into(),
    })?;
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len()) as f64;
    let t_read = time_median(|| {
        black_box(RunCheckpoint::read(&path).is_ok());
    });
    let ck = RunCheckpoint::read(&path)?;
    let copy = dir.join("probe_copy.tmp");
    let t_write = time_median(|| {
        black_box(ck.write(&copy, Wire::F64).is_ok());
    });
    let _ = std::fs::remove_file(&copy);
    let t_resume = time_median(|| {
        black_box(Simulation::resume_latest(&prep.sys, dir).is_ok());
    });
    ledger.set("core.checkpoint_write_ms", t_write * 1e3);
    ledger.set("core.checkpoint_read_ms", t_read * 1e3);
    ledger.set("core.resume_s", t_resume);
    ledger.set("io.checkpoint_bytes", bytes);
    ledger.set("io.snapshot_write_mb_s", bytes / 1e6 / t_write);
    ledger.set("io.snapshot_read_mb_s", bytes / 1e6 / t_read);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// The readings `rank_probes` takes (the `mpi.*_per_step` counts come from
/// the traced run and are already in the ledger when these are marked).
fn is_rank_probe(name: &str) -> bool {
    name == "ham.dist_fock_apply_ms" || name.starts_with("mpi.")
}

/// Median over `REPS` engine jobs (after one warm-up) of what rank 0
/// returns — or, with `whole`, of the `RankEngine::run` round trip.
fn median_job(
    engine: &mut RankEngine,
    whole: bool,
    job: &(dyn Fn(&mut Comm) -> f64 + Sync),
) -> Result<f64, PtError> {
    let mut samples = Vec::with_capacity(REPS);
    for rep in 0..=REPS {
        let t = Instant::now();
        let (per_rank, _) = engine
            .run(job)
            .map_err(|e| PtError::EngineDown { cause: e.cause })?;
        if rep > 0 {
            samples.push(if whole {
                t.elapsed().as_secs_f64()
            } else {
                per_rank[0]
            });
        }
    }
    Ok(median(&samples))
}

/// pt-mpi collectives and the distributed Fock apply on a rank engine of
/// the workload's layout, and the 1×1 → 2×1 scaling efficiency.
fn rank_probes(
    ledger: &mut Ledger,
    w: &Workload,
    prep: &Prepared,
    spec: &JobSpec,
    plain_2x1: &Propagation,
    ckpt_dir: &Path,
) -> Result<(), PtError> {
    if !w.layout.fits_host() {
        ledger.na(
            is_rank_probe,
            "layout needs more cores than the host has: timings would be scheduling noise",
        );
        return Ok(());
    }
    const ROUNDS: u32 = 16;
    let sys = &prep.sys;
    let psi = &prep.gs.orbitals;
    let (ng, nb, n_dense) = (sys.grids.ng(), sys.n_bands(), sys.grids.n_dense());
    let mut engine = RankEngine::new(w.layout, Wire::F64);

    let t = median_job(&mut engine, true, &|_| 0.0)?;
    ledger.set("mpi.engine_dispatch_us", t * 1e6);
    // collectives are timed inside one job, between barriers, so the
    // dispatch cost above is not part of them
    let t = median_job(&mut engine, false, &|comm| {
        let mut v = vec![1.0e-3; n_dense];
        comm.barrier();
        let t = Instant::now();
        for _ in 0..ROUNDS {
            comm.allreduce_sum_f64(&mut v);
        }
        t.elapsed().as_secs_f64() / f64::from(ROUNDS)
    })?;
    ledger.set("mpi.allreduce_us", t * 1e6);
    let t = median_job(&mut engine, false, &|comm| {
        let mut block = psi.data().to_vec();
        comm.barrier();
        let t = Instant::now();
        for _ in 0..ROUNDS {
            comm.bcast_c64(0, &mut block);
        }
        comm.barrier();
        t.elapsed().as_secs_f64() / f64::from(ROUNDS)
    })?;
    ledger.set("mpi.bcast_mb_s", (ng * nb * 16) as f64 / 1e6 / t);

    let hybrid = sys.hybrid.ok_or(PtError::MissingExchangeOrbitals)?;
    let kernel = sys.exchange_kernel()?;
    let dist = BandDistribution {
        n_bands: nb,
        n_ranks: w.layout.ranks,
    };
    let t = median_job(&mut engine, true, &|comm| {
        let mine = dist.local_bands(comm.rank());
        let mut local = CMat::zeros(ng, mine.len());
        for (lj, &b) in mine.iter().enumerate() {
            local.col_mut(lj).copy_from_slice(psi.col(b));
        }
        let out =
            distributed_fock_apply(comm, &sys.grids, dist, &local, &local, hybrid.alpha, kernel);
        out.col(0)[0].re
    })?;
    ledger.set("ham.dist_fock_apply_ms", t * 1e3);
    drop(engine);

    // the same physics and the same per-step checkpoints on one rank,
    // same steps, both untraced
    let mut solo = spec.clone();
    solo.layout = RankLayout::new(1, 1);
    let solo_sys = solo.build_system()?;
    pt_trace::set_enabled(false);
    let one = propagate(
        &solo_sys,
        psi,
        &solo,
        plain_2x1.step_walls.len(),
        Some(ckpt_dir),
        None,
    );
    pt_trace::set_enabled(true);
    let _ = std::fs::remove_dir_all(ckpt_dir);
    let p10 = |walls: &[f64]| percentile(walls, 10.0);
    ledger.set(
        "mpi.scaling_eff_2x1",
        p10(&one?.step_walls) / (w.layout.ranks as f64 * p10(&plain_2x1.step_walls)),
    );
    Ok(())
}
