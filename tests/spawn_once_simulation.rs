//! Acceptance pin for the persistent rank engine: a multi-step
//! distributed `Simulation::run` creates its rank threads and their
//! pinned pools **once** — not once per step, and certainly not once per
//! `HΨ`/residual application (a PT-CN step submits several engine jobs,
//! so the old spawn-per-call path would multiply the counts many times
//! over).
//!
//! The spawn counters are process-global, so this binary stays
//! single-test: a second concurrent test spawning pools or ranks would
//! race the deltas.

use pwdft_rt::mpi::rank_threads_spawned;
use pwdft_rt::par::{pools_built, worker_threads_spawned};
use pwdft_rt::prelude::*;

#[test]
fn a_multi_step_distributed_run_spawns_one_rank_team() {
    let (ranks, threads) = (2usize, 2usize);
    let steps = 3usize;
    let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
        .ecut(2.0)
        .xc(XcKind::Pbe)
        .hybrid(HybridConfig::hse06())
        .occupations(vec![2.0; 4])
        .layout(RankLayout::new(ranks, threads))
        .build()
        .expect("valid distributed system");
    let gs = scf_loop(&sys, ScfOptions::default()).expect("SCF converges");
    let mut sim = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .laser(LaserPulse::paper_380nm(
            0.02,
            attosecond_to_au(200.0),
            attosecond_to_au(100.0),
        ))
        .dt(attosecond_to_au(25.0))
        .steps(steps)
        .build()
        .expect("valid simulation");

    let ranks_before = rank_threads_spawned();
    let pools_before = pools_built();
    let workers_before = worker_threads_spawned();

    let ts = sim.run().expect("distributed propagation succeeds");
    assert_eq!(ts.propagator, "pt-cn");
    assert!(ts.len() >= steps, "all steps must have run");

    // the whole run — every HΨ and residual of every step — spawned
    // exactly one team of `ranks` rank threads...
    assert_eq!(
        rank_threads_spawned() - ranks_before,
        ranks,
        "rank threads must be spawned once per run, not per step/job"
    );
    // ...each building its pinned pool exactly once. The first nested
    // `pt_par::with_current` inside a pool task may also build the
    // process-wide workerless inline pool (a one-time singleton, zero
    // worker threads) — anything beyond that means pools were rebuilt.
    let pool_delta = pools_built() - pools_before;
    assert!(
        pool_delta == ranks || pool_delta == ranks + 1,
        "expected one pinned pool per rank (± the one-time inline pool), got {pool_delta}"
    );
    assert_eq!(
        worker_threads_spawned() - workers_before,
        ranks * (threads - 1),
        "each rank pool spawns its workers once"
    );
}
