//! The execution-layer determinism contract, end to end: the *same bits*
//! come out of the full pipeline at `PT_NUM_THREADS=1` and `=4`.
//!
//! `pt-par` cuts every index space into chunks by a policy that depends
//! only on the problem size and combines partial results in chunk order,
//! so parallel execution is a fixed re-association of the sequential one —
//! these tests assert exact (`to_bits`) equality, not tolerances. They
//! exercise the config plumbing too: thread counts are pinned through
//! `KsSystemBuilder::layout` (a `1 × threads` layout runs inline on a
//! dedicated `threads`-wide pool).

use pwdft_rt::ham::{
    distributed_fock_apply, distributed_residual, AceOperator, BandDistribution, FockMode,
    FockOperator, PwGrids, ScreenedKernel,
};
use pwdft_rt::linalg::CMat;
use pwdft_rt::mpi::RankEngine;
use pwdft_rt::prelude::*;
use std::sync::OnceLock;

/// The 4-band HSE06 fixture under `mode` on a `ranks × threads` layout.
fn hybrid_system(ranks: usize, threads: usize, mode: ExchangeMode) -> KsSystem {
    KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
        .ecut(2.0)
        .xc(XcKind::Pbe)
        .hybrid(HybridConfig::hse06())
        .occupations(vec![2.0; 4])
        .exchange_mode(mode)
        .layout(RankLayout::new(ranks, threads))
        .build()
        .expect("valid system")
}

/// The ground state the builder-route layout tests start from, converged
/// once per test binary: neither the layout nor the exchange mode enters
/// the SCF, and its thread invariance is pinned by
/// `hybrid_scf_and_ptcn_propagation_are_bit_identical_at_1_and_4_threads`.
fn hybrid_ground_state() -> &'static ScfResult {
    static GS: OnceLock<ScfResult> = OnceLock::new();
    GS.get_or_init(|| {
        let sys = hybrid_system(1, 1, ExchangeMode::Full);
        scf_loop(&sys, ScfOptions::default()).expect("SCF converges")
    })
}

/// Ground state + 3 PT-CN steps of laser-driven hybrid (HSE06) silicon on
/// a dedicated `threads`-wide pool.
fn hybrid_pipeline(threads: usize) -> (ScfResult, TimeSeries) {
    let sys = hybrid_system(1, threads, ExchangeMode::Full);
    let gs = scf_loop(&sys, ScfOptions::default()).expect("SCF converges");
    let series = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .laser(LaserPulse::paper_380nm(
            0.02,
            attosecond_to_au(200.0),
            attosecond_to_au(100.0),
        ))
        .dt(attosecond_to_au(25.0))
        .steps(3)
        .propagator(Box::new(PtCnPropagator::default()))
        .standard_observers()
        .build()
        .expect("valid simulation")
        .run()
        .expect("propagation succeeds");
    (gs, series)
}

fn assert_bits_eq(name: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{name}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{name}[{i}]: {x:e} != {y:e} (parallel schedule leaked into the numbers)"
        );
    }
}

#[test]
fn hybrid_scf_and_ptcn_propagation_are_bit_identical_at_1_and_4_threads() {
    let (gs1, ts1) = hybrid_pipeline(1);
    let (gs4, ts4) = hybrid_pipeline(4);

    // ground state: energies, eigenvalues, density, orbitals — exact
    assert_eq!(
        gs1.energies.total().to_bits(),
        gs4.energies.total().to_bits(),
        "total energy differs across thread counts"
    );
    assert_bits_eq("eigenvalues", &gs1.eigenvalues, &gs4.eigenvalues);
    assert_bits_eq("rho", &gs1.rho, &gs4.rho);
    assert_eq!(gs1.scf_iterations, gs4.scf_iterations);
    assert_eq!(
        gs1.rho_residual.to_bits(),
        gs4.rho_residual.to_bits(),
        "SCF residual differs"
    );
    for j in 0..gs1.orbitals.ncols() {
        for (i, (a, b)) in gs1
            .orbitals
            .col(j)
            .iter()
            .zip(gs4.orbitals.col(j))
            .enumerate()
        {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "orbital ({i},{j}) differs: {a:?} vs {b:?}"
            );
        }
    }

    // time series: every channel of every step — exact
    assert_eq!(ts1.len(), ts4.len());
    assert_eq!(ts1.channel_names(), ts4.channel_names());
    for name in ts1.channel_names() {
        assert_bits_eq(name, ts1.channel(name).unwrap(), ts4.channel(name).unwrap());
    }
    assert_bits_eq("t", &ts1.t, &ts4.t);
    for (s1, s4) in ts1.stats.iter().zip(&ts4.stats) {
        assert_eq!(
            s1.scf_iterations, s4.scf_iterations,
            "PT-CN inner iterations differ"
        );
        assert_eq!(
            s1.rho_residual.to_bits(),
            s4.rho_residual.to_bits(),
            "PT-CN residual differs"
        );
    }
}

#[test]
fn semilocal_scf_is_bit_identical_at_1_and_4_threads() {
    let run = |threads: usize| {
        let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(3.0)
            .xc(XcKind::Lda)
            .layout(RankLayout::new(1, threads))
            .build()
            .unwrap();
        scf_loop(&sys, ScfOptions::default()).expect("SCF converges")
    };
    let r1 = run(1);
    let r4 = run(4);
    assert_eq!(r1.energies.total().to_bits(), r4.energies.total().to_bits());
    assert_bits_eq("eigenvalues", &r1.eigenvalues, &r4.eigenvalues);
    assert_bits_eq("rho", &r1.rho, &r4.rho);
    assert_eq!(r1.scf_iterations, r4.scf_iterations);
}

/// Gather a distributed band-major result (one local block per rank) back
/// into the full matrix for comparison.
fn gather_bands(dist: BandDistribution, nrows: usize, blocks: &[CMat]) -> CMat {
    let mut full = CMat::zeros(nrows, dist.n_bands);
    for (r, block) in blocks.iter().enumerate() {
        for (lj, &b) in dist.local_bands(r).iter().enumerate() {
            full.col_mut(b).copy_from_slice(block.col(lj));
        }
    }
    full
}

fn assert_cmat_bits_eq(name: &str, a: &CMat, b: &CMat) {
    assert_eq!((a.nrows(), a.ncols()), (b.nrows(), b.ncols()), "{name}");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{name}[{i}]: {x:?} != {y:?} (rank/thread schedule leaked into the numbers)"
        );
    }
}

/// The ranks × threads grid, driven through the persistent
/// [`RankEngine`]: both the distributed Fock application (Alg. 2) and the
/// distributed residual (Alg. 3) must produce the *same bits* on every
/// layout in {1,2,3,4} ranks × {1,4} threads-per-rank. The residual's
/// overlap sums are re-associated over the fixed `OVERLAP_CHUNK_ROWS`
/// grid (one owner per chunk on any rank count, combine in chunk order),
/// which is what closed the old ~1e-12 cross-rank gap.
#[test]
fn distributed_fock_and_residual_over_the_ranks_threads_grid() {
    let sys_grids = PwGrids::new(&silicon_cubic_supercell(1, 1, 1), 2.0);
    let ng = sys_grids.ng();
    let nb = 6;
    let phi = CMat::rand_normalized(ng, nb, 51);
    let psi = CMat::rand_normalized(ng, nb, 52);
    let hpsi = CMat::rand_normalized(ng, nb, 53);
    let half = CMat::rand_normalized(ng, nb, 54);
    let kernel = ScreenedKernel::new(&sys_grids, 0.11);
    let dt = 0.7;

    let run_layout = |ranks: usize, threads: usize| -> (CMat, CMat) {
        let dist = BandDistribution {
            n_bands: nb,
            n_ranks: ranks,
        };
        let (g, k) = (&sys_grids, &kernel);
        let (p_, ps_, h_, f_) = (&phi, &psi, &hpsi, &half);
        let mut engine = RankEngine::new(RankLayout::new(ranks, threads), Wire::F64);
        let (blocks, _) = engine
            .run(move |comm| {
                let rank = comm.rank();
                let fock = distributed_fock_apply(
                    comm,
                    g,
                    dist,
                    &dist.take_local(rank, p_),
                    &dist.take_local(rank, ps_),
                    0.25,
                    k,
                );
                let resid = distributed_residual(
                    comm,
                    dist,
                    ng,
                    &dist.take_local(rank, p_),
                    &dist.take_local(rank, h_),
                    &dist.take_local(rank, f_),
                    dt,
                );
                (fock, resid)
            })
            .expect("healthy engine");
        let focks: Vec<CMat> = blocks.iter().map(|(f, _)| f.clone()).collect();
        let resids: Vec<CMat> = blocks.iter().map(|(_, r)| r.clone()).collect();
        (
            gather_bands(dist, ng, &focks),
            gather_bands(dist, ng, &resids),
        )
    };

    let (fock_ref, resid_ref) = run_layout(1, 1);
    for ranks in 1..=4 {
        for threads in [1usize, 4] {
            let (fock, resid) = run_layout(ranks, threads);
            // Alg. 2 and Alg. 3: bit-identical across the whole grid
            assert_cmat_bits_eq(&format!("fock {ranks}x{threads}"), &fock_ref, &fock);
            assert_cmat_bits_eq(&format!("residual {ranks}x{threads}"), &resid_ref, &resid);
        }
    }
}

/// The ACE projector over the same grid: ξ built from the distributed
/// `W = V_X Φ` (Alg. 2 over the wire, driver-side Cholesky/trsm) must be
/// bit-identical on every layout in {1,2,3,4} ranks × {1,4} threads, the
/// serial build must be bit-stable across thread counts, and the
/// projector apply `−ξ(ξ^Hψ)` must be bit-stable across thread counts —
/// together these are why an ACE-mode distributed run is layout-invariant
/// without any per-layout tolerance.
#[test]
fn ace_projector_build_and_apply_over_the_ranks_threads_grid() {
    let grids = PwGrids::new(&silicon_cubic_supercell(1, 1, 1), 2.0);
    let ng = grids.ng();
    let nb = 6;
    let phi = CMat::rand_normalized(ng, nb, 61);
    let psi = CMat::rand_normalized(ng, nb, 62);
    let kernel = ScreenedKernel::new(&grids, 0.11);

    // serial build: 1-thread and 4-thread pools give the same ξ bits
    let serial_xi = |threads: usize| {
        ThreadPool::new(threads).install(|| {
            let fock = FockOperator::new(&grids, &phi, 0.25, kernel.clone(), FockMode::Batched);
            AceOperator::new(&grids, &fock, &phi).unwrap().xi().clone()
        })
    };
    assert_cmat_bits_eq("serial ξ 1 vs 4 threads", &serial_xi(1), &serial_xi(4));

    // distributed build: W gathered from the Alg. 2 broadcast loop, ξ
    // factored on the driver — same bits on every layout
    let dist_ace = |ranks: usize, threads: usize| -> AceOperator {
        let dist = BandDistribution {
            n_bands: nb,
            n_ranks: ranks,
        };
        let (g, k, p_) = (&grids, &kernel, &phi);
        let mut engine = RankEngine::new(RankLayout::new(ranks, threads), Wire::F64);
        let (blocks, _) = engine
            .run(move |comm| {
                let local = dist.take_local(comm.rank(), p_);
                distributed_fock_apply(comm, g, dist, &local, &local, 0.25, k)
            })
            .expect("healthy engine");
        AceOperator::from_w(&phi, gather_bands(dist, ng, &blocks)).unwrap()
    };
    let xi_ref = dist_ace(1, 1).xi().clone();
    for ranks in 1..=4 {
        for threads in [1usize, 4] {
            let ace = dist_ace(ranks, threads);
            assert_cmat_bits_eq(
                &format!("distributed ξ {ranks}x{threads}"),
                &xi_ref,
                ace.xi(),
            );
        }
    }

    // apply: given one ξ, the projector subtraction is bit-stable across
    // thread counts (per-column self-contained work)
    let ace = AceOperator::from_xi(xi_ref);
    let apply_at = |threads: usize| {
        ThreadPool::new(threads).install(|| {
            let mut out = CMat::rand_normalized(ng, nb, 63);
            ace.apply_block(&psi, &mut out);
            out
        })
    };
    assert_cmat_bits_eq("ACE apply 1 vs 4 threads", &apply_at(1), &apply_at(4));
}

/// ACE-mode engine reuse: building `W = V_X Φ` for successive refreshes on
/// ONE parked rank team gives exactly the bits of spawning a fresh team
/// per refresh — the PT-CN propagator's every-K-steps projector
/// rebuild costs no determinism.
#[test]
fn ace_refresh_on_a_reused_engine_matches_fresh_spawn_bits() {
    let grids = PwGrids::new(&silicon_cubic_supercell(1, 1, 1), 2.0);
    let ng = grids.ng();
    let nb = 5;
    let kernel = ScreenedKernel::new(&grids, 0.11);
    let dist = BandDistribution {
        n_bands: nb,
        n_ranks: 2,
    };
    let layout = RankLayout::new(2, 2);
    let mut engine = RankEngine::new(layout, Wire::F64);
    for refresh in 0..3u64 {
        let phi = CMat::rand_normalized(ng, nb, 500 + refresh);
        let job = {
            let (g, k, p_) = (&grids, &kernel, &phi);
            move |comm: &mut pwdft_rt::mpi::Comm| {
                let local = dist.take_local(comm.rank(), p_);
                distributed_fock_apply(comm, g, dist, &local, &local, 0.25, k)
            }
        };
        let (reused, _) = engine.run(job).expect("healthy engine");
        let (fresh, _) = RankEngine::new(layout, Wire::F64)
            .run(job)
            .expect("fresh engine");
        let a = AceOperator::from_w(&phi, gather_bands(dist, ng, &reused)).unwrap();
        let b = AceOperator::from_w(&phi, gather_bands(dist, ng, &fresh)).unwrap();
        assert_cmat_bits_eq(&format!("refresh {refresh} ξ"), a.xi(), b.xi());
    }
}

/// Engine reuse is invisible in the numbers: submitting a sequence of
/// "steps" (Alg. 2 + Alg. 3 with step-dependent inputs) to ONE parked
/// rank team produces exactly the bits of a fresh `RankEngine` per step.
/// This is what lets the PT-CN propagator
/// keep its team alive for a whole `Simulation::run` without any
/// determinism cost.
#[test]
fn engine_reuse_across_steps_matches_spawn_per_step_bits() {
    let sys_grids = PwGrids::new(&silicon_cubic_supercell(1, 1, 1), 2.0);
    let ng = sys_grids.ng();
    let nb = 5;
    let kernel = ScreenedKernel::new(&sys_grids, 0.11);
    let dt = 0.7;
    let dist = BandDistribution {
        n_bands: nb,
        n_ranks: 2,
    };
    let layout = RankLayout::new(2, 2);
    let mut engine = RankEngine::new(layout, Wire::F64);

    for step in 0..4u64 {
        // fresh step-dependent inputs, as a propagation would produce
        let phi = CMat::rand_normalized(ng, nb, 100 + step);
        let psi = CMat::rand_normalized(ng, nb, 200 + step);
        let hpsi = CMat::rand_normalized(ng, nb, 300 + step);
        let half = CMat::rand_normalized(ng, nb, 400 + step);
        let job = {
            let (g, k) = (&sys_grids, &kernel);
            let (p_, ps_, h_, f_) = (&phi, &psi, &hpsi, &half);
            move |comm: &mut pwdft_rt::mpi::Comm| {
                let rank = comm.rank();
                let fock = distributed_fock_apply(
                    comm,
                    g,
                    dist,
                    &dist.take_local(rank, p_),
                    &dist.take_local(rank, ps_),
                    0.25,
                    k,
                );
                let resid = distributed_residual(
                    comm,
                    dist,
                    ng,
                    &dist.take_local(rank, p_),
                    &dist.take_local(rank, h_),
                    &dist.take_local(rank, f_),
                    dt,
                );
                (fock, resid)
            }
        };
        let (reused, _) = engine.run(job).expect("healthy engine");
        let (fresh, _) = RankEngine::new(layout, Wire::F64)
            .run(job)
            .expect("fresh engine");
        for (r, (a, b)) in reused.iter().zip(&fresh).enumerate() {
            assert_cmat_bits_eq(&format!("step {step} rank {r} fock"), &a.0, &b.0);
            assert_cmat_bits_eq(&format!("step {step} rank {r} residual"), &a.1, &b.1);
        }
    }
}

/// The acceptance path: a hybrid PT-CN run driven as ranks × threads
/// through the public builder API produces bit-identical observables on
/// every layout (2 × 2 on the rank engine vs 1 × 1 inline here — the
/// propagator reads the layout set by `KsSystemBuilder::layout`).
#[test]
fn hybrid_distributed_run_via_builders_is_layout_invariant() {
    let run_layout = |ranks: usize, threads: usize| -> TimeSeries {
        let sys = hybrid_system(ranks, threads, ExchangeMode::Full);
        let mut sim = SimulationBuilder::new(&sys)
            .initial_orbitals(hybrid_ground_state().orbitals.clone())
            .laser(LaserPulse::paper_380nm(
                0.02,
                attosecond_to_au(200.0),
                attosecond_to_au(100.0),
            ))
            .dt(attosecond_to_au(25.0))
            .steps(2)
            .standard_observers()
            .build()
            .expect("valid simulation");
        sim.run().expect("distributed propagation succeeds")
    };
    let ts11 = run_layout(1, 1);
    let ts22 = run_layout(2, 2);
    assert_eq!(ts11.propagator, "pt-cn");
    assert_eq!(ts11.len(), ts22.len());
    assert_eq!(ts11.channel_names(), ts22.channel_names());
    for name in ts11.channel_names() {
        assert_bits_eq(
            name,
            ts11.channel(name).unwrap(),
            ts22.channel(name).unwrap(),
        );
    }
    for (s1, s2) in ts11.stats.iter().zip(&ts22.stats) {
        assert_eq!(s1.scf_iterations, s2.scf_iterations);
        assert_eq!(s1.rho_residual.to_bits(), s2.rho_residual.to_bits());
    }
}

/// The ACE acceptance path: a hybrid run in `Ace { refresh_interval: 2 }`
/// mode (3 steps — so the run crosses a projector-refresh boundary) is
/// bit-identical between the serial-equivalent 1 × 1 layout and 2 × 2.
#[test]
fn hybrid_ace_run_via_builders_is_layout_invariant() {
    let run_layout = |ranks: usize, threads: usize| -> TimeSeries {
        let ace2 = ExchangeMode::Ace {
            refresh_interval: 2,
        };
        let sys = hybrid_system(ranks, threads, ace2);
        let mut sim = SimulationBuilder::new(&sys)
            .initial_orbitals(hybrid_ground_state().orbitals.clone())
            .laser(LaserPulse::paper_380nm(
                0.02,
                attosecond_to_au(200.0),
                attosecond_to_au(100.0),
            ))
            .dt(attosecond_to_au(25.0))
            .steps(3)
            .standard_observers()
            .build()
            .expect("valid simulation");
        sim.run().expect("ACE propagation succeeds")
    };
    let ts11 = run_layout(1, 1);
    let ts22 = run_layout(2, 2);
    assert_eq!(ts11.propagator, "pt-cn");
    assert_eq!(ts11.len(), ts22.len());
    for name in ts11.channel_names() {
        assert_bits_eq(
            name,
            ts11.channel(name).unwrap(),
            ts22.channel(name).unwrap(),
        );
    }
    for (s1, s2) in ts11.stats.iter().zip(&ts22.stats) {
        assert_eq!(s1.scf_iterations, s2.scf_iterations);
        assert_eq!(s1.rho_residual.to_bits(), s2.rho_residual.to_bits());
    }
}

#[test]
fn install_scoping_matches_builder_plumbing() {
    // pinning threads via ThreadPool::install around a layout-free system
    // must give the same bits as the builder route
    let via_install = |threads: usize| {
        let pool = ThreadPool::new(threads);
        pool.install(|| {
            let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
                .ecut(2.0)
                .xc(XcKind::Lda)
                .build()
                .unwrap();
            scf_loop(&sys, ScfOptions::default())
                .expect("SCF converges")
                .energies
                .total()
        })
    };
    let via_builder = {
        let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(XcKind::Lda)
            .layout(RankLayout::new(1, 4))
            .build()
            .unwrap();
        scf_loop(&sys, ScfOptions::default())
            .expect("SCF converges")
            .energies
            .total()
    };
    let at_4 = via_install(4).to_bits();
    assert_eq!(via_install(1).to_bits(), at_4);
    assert_eq!(at_4, via_builder.to_bits());
}
