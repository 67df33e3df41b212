//! The `ranks > 1` side of PT-CN: Alg. 2's exact exchange block driven
//! over the virtual MPI runtime with rank-pinned compute pools — the
//! paper's execution model (one MPI rank per GPU plus a CPU-thread slice)
//! reproduced in process.
//!
//! [`crate::PtCnPropagator`] selects by the rank count of the system's
//! layout. **One rank runs inline** (`ExchangeKernels::Inline`: no engine,
//! no rank thread, the installed pool). With more, the propagator owns a
//! persistent [`RankEngine`]: the rank threads and their pinned
//! `threads_per_rank`-wide pools are spawned **once**, on the first step,
//! and every subsequent exact exchange block `W = V_X[Φ]Φ` — one per `HΨ`
//! under `Full`, one per ACE build — is a job submitted to the same parked
//! team: the Alg. 2 broadcast loop, then the rank's dealt pair tiles
//! ([`pt_ham::distributed_fock_apply`]). Everything around it (the local
//! part of `HΨ`, the ACE projector and its apply, the fixed-point
//! residual, density, Anderson mixing, re-orthonormalization) runs on the
//! driver thread, on the system's `layout.cores()`-wide pool: the driver
//! already holds every block these read, so the paper's band ↔ G-space
//! flips of Alg. 3 would only move them to the ranks and back. An ACE
//! stale-window step runs no engine job at all.
//!
//! The engine is runtime-only state: it is not cloned or snapshotted —
//! a resumed or cloned propagator rebuilds its team lazily on the next
//! step. If a rank dies, the panic surfaces on the driver with the
//! original payload (poison-cascade semantics) and later steps on the
//! dead engine are refused with [`PtError::EngineDown`].
//!
//! # Layout invariance
//!
//! The rank path ships `f64` on the wire, so the observables of a run are
//! **bit-identical for every `ranks × threads_per_rank` layout**, inline
//! or on the engine: the in-process kernels are the `N_p = 1` case of the
//! rank ones (one pair term and one partner-chunk fold — see `pt-ham`),
//! band ownership only partitions work whose per-band results are
//! computed independently in a fixed order, and every band folds the same
//! exchange partials in the same order whichever rank's tile made them.
//! The driver's residual sums its overlap over a fixed 64-row chunk grid,
//! so the width of the layout's pool does not move it either.

use pt_ham::{distributed_fock_apply, BandDistribution, KsSystem, PtError};
use pt_linalg::CMat;
use pt_mpi::{EnginePoisoned, RankEngine, Wire};
use pt_par::RankLayout;

/// Reuse the parked rank team when it matches `layout`; build it on first
/// use or after a layout change. A poisoned engine is never reused or
/// silently replaced — the caller gets the typed error so the failure
/// stays visible.
pub(crate) fn acquire_engine(
    slot: &mut Option<RankEngine>,
    layout: RankLayout,
) -> Result<&mut RankEngine, PtError> {
    let stale = match slot {
        Some(e) => {
            if let Some(cause) = e.poison_cause() {
                return Err(PtError::EngineDown {
                    cause: cause.to_string(),
                });
            }
            e.layout() != layout
        }
        None => false,
    };
    if stale {
        *slot = None;
    }
    Ok(match slot {
        Some(e) => e,
        None => slot.insert(RankEngine::new(layout, Wire::F64)),
    })
}

/// The exact exchange block `W = V_X[Φ]Φ` as one job on the parked rank
/// team (no threads are spawned here): every rank computes the columns of
/// its cyclic bands with the Alg. 2 broadcast loop and the dealt pair
/// tiles; the driver gathers the full `ng × n_bands` block —
/// layout-independent, so W carries the inline bits. The job's wire delta
/// is folded into the trace counters — `pt_mpi::CommStats` stays the
/// single source of truth.
pub(crate) fn engine_exchange_block(
    engine: &mut RankEngine,
    sys: &KsSystem,
    phi: &CMat,
) -> Result<CMat, PtError> {
    let alpha = sys.hybrid.ok_or(PtError::MissingExchangeOrbitals)?.alpha;
    let kernel = sys.exchange_kernel()?;
    let grids = &sys.grids;
    let dist = BandDistribution {
        n_bands: phi.ncols(),
        n_ranks: engine.layout().ranks,
    };
    let sp = pt_trace::span("engine_run");
    let (blocks, wire) = engine
        .run(|comm| {
            let phi_local = dist.take_local(comm.rank(), phi);
            distributed_fock_apply(comm, grids, dist, &phi_local, &phi_local, alpha, kernel)
        })
        .map_err(|e: EnginePoisoned| PtError::EngineDown { cause: e.cause })?;
    drop(sp);
    pt_trace::counter_add(pt_trace::Counter::EngineJobs, 1);
    pt_trace::counter_add(pt_trace::Counter::WireBytes, wire.total_bytes());
    let mut w = CMat::zeros(grids.ng(), dist.n_bands);
    for (r, block) in blocks.iter().enumerate() {
        for (lj, &b) in dist.local_bands(r).iter().enumerate() {
            w.col_mut(b).copy_from_slice(block.col(lj));
        }
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagator::{apply_h, build_ace, ExchangeKernels, PtCnPropagator, TdState};
    use pt_ham::{AceOperator, ExchangeMode, FockMode, FockOperator};
    use pt_lattice::silicon_cubic_supercell;
    use pt_xc::XcKind;

    fn hybrid_builder() -> pt_ham::KsSystemBuilder {
        KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(XcKind::Pbe)
            .hybrid(pt_ham::HybridConfig::hse06())
            .occupations(vec![2.0; 4])
    }

    fn hybrid_sys(layout: Option<RankLayout>) -> KsSystem {
        let mut b = hybrid_builder();
        if let Some(l) = layout {
            b = b.layout(l);
        }
        b.build().unwrap()
    }

    fn assert_same_bits(want: &CMat, got: &CMat, what: &str) {
        for (x, y) in want.data().iter().zip(got.data()) {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what}: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn inline_and_engine_kernels_agree_to_the_bit_on_every_layout() {
        // HΨ with the exact Fock loop, the ACE projector and HΨ under it,
        // taken straight from pt-ham's operators on one thread, are the
        // reference: the driver's composition must carry their bits inline
        // on 1 and 4 threads and with every gathered rank result
        let sys = hybrid_sys(None);
        let (ng, nb) = (sys.grids.ng(), sys.n_bands());
        let psi = CMat::rand_normalized(ng, nb, 17);
        let rho = sys.density(&psi);
        let a = [0.0, 0.0, 0.01];
        let want = pt_par::ThreadPool::new(1).install(|| {
            let mut h_full = CMat::zeros(ng, nb);
            let h = sys.hamiltonian(&rho, Some(&psi), a).unwrap();
            h.apply_block(&psi, &mut h_full);
            let hy = sys.hybrid.unwrap();
            let kernel = sys.exchange_kernel().unwrap().clone();
            let fock = FockOperator::new(&sys.grids, &psi, hy.alpha, kernel, FockMode::Batched);
            let ace = AceOperator::new(&sys.grids, &fock, &psi).unwrap();
            let mut h_ace = CMat::zeros(ng, nb);
            let local = sys.local_hamiltonian(&rho, a).unwrap();
            local.apply_block(&psi, &mut h_ace);
            ace.apply_block(&psi, &mut h_ace);
            [h_full, ace.xi().clone(), h_ace]
        });
        let composed = |k: &mut ExchangeKernels| {
            let h_full = apply_h(&sys, &rho, &psi, a, k, None).unwrap();
            let ace = build_ace(&sys, &psi, k).unwrap();
            let h_ace = apply_h(&sys, &rho, &psi, a, k, Some(&ace)).unwrap();
            [h_full, ace.xi().clone(), h_ace]
        };
        for threads in [1usize, 4] {
            let got =
                pt_par::ThreadPool::new(threads).install(|| composed(&mut ExchangeKernels::Inline));
            for (w, g) in want.iter().zip(&got) {
                assert_same_bits(w, g, &format!("inline, {threads} threads"));
            }
        }
        for ranks in [1usize, 2, 3] {
            for threads in [1usize, 4] {
                let mut engine = RankEngine::new(RankLayout::new(ranks, threads), Wire::F64);
                let mut kernels = ExchangeKernels::Engine(&mut engine);
                // twice on the same engine: the parked team is reused and
                // the second pass's bits must not drift
                for pass in 0..2 {
                    for (w, g) in want.iter().zip(&composed(&mut kernels)) {
                        assert_same_bits(w, g, &format!("{ranks}x{threads} pass {pass}"));
                    }
                }
            }
        }
    }

    #[test]
    fn a_rank_dying_mid_tile_is_the_reported_cause_then_engine_down_never_a_hang() {
        // the victim sends half of the partials its tiles owe other ranks,
        // then dies: its peers may be waiting for the rest, in HΨ or in the
        // ACE build, and must unwind instead of hanging; the job re-raises
        // the victim's payload and the next call is the typed EngineDown
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let sys = hybrid_sys(None);
            let psi = CMat::rand_normalized(sys.grids.ng(), sys.n_bands(), 17);
            let rho = sys.density(&psi);
            // both entry points submit the same exchange-block job; each
            // must still surface the victim's payload, then EngineDown
            let call = |k: &mut ExchangeKernels, phase: &str| match phase {
                "HΨ" => apply_h(&sys, &rho, &psi, [0.0; 3], k, None).map(drop),
                _ => build_ace(&sys, &psi, k).map(drop),
            };
            for np in 2..=4 {
                let dist = BandDistribution {
                    n_bands: sys.n_bands(),
                    n_ranks: np,
                };
                for victim in 0..np {
                    let owed = dist
                        .exchange_tiles(victim)
                        .iter()
                        .flat_map(|t| t.partials())
                        .filter(|&(_, band)| dist.owner(band) != victim)
                        .count();
                    if owed < 2 {
                        continue;
                    }
                    for phase in ["HΨ", "ACE build"] {
                        let cause = format!("rank {victim} of {np} dies mid-tile in {phase}");
                        let mut engine = RankEngine::new(RankLayout::new(np, 1), Wire::F64);
                        engine
                            .run(|comm| {
                                if comm.rank() == victim {
                                    comm.fail_after_sends(owed / 2, &cause);
                                }
                            })
                            .unwrap();
                        let mut kernels = ExchangeKernels::Engine(&mut engine);
                        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            call(&mut kernels, phase)
                        }))
                        .err()
                        .and_then(|p| p.downcast_ref::<String>().cloned());
                        let next = match call(&mut kernels, phase) {
                            Err(PtError::EngineDown { cause }) => Some(cause),
                            _ => None,
                        };
                        tx.send((np, cause, raised, next)).unwrap();
                    }
                }
            }
        });
        let mut victims = [0usize; 5];
        loop {
            match rx.recv_timeout(std::time::Duration::from_secs(120)) {
                Ok((np, cause, raised, next)) => {
                    assert_eq!(raised.as_deref(), Some(cause.as_str()), "re-raised payload");
                    assert_eq!(next.as_deref(), Some(cause.as_str()), "EngineDown cause");
                    victims[np] += 1;
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                Err(e) => panic!("a rank dying mid-tile hung the job: {e}"),
            }
        }
        // every rank count had a victim with partials left to send
        assert!(victims[2..].iter().all(|&v| v >= 2), "{victims:?}");
    }

    #[test]
    fn ace_step_on_two_ranks_advances_and_captures_the_projector() {
        let sys = hybrid_builder()
            .layout(RankLayout::new(2, 1))
            .exchange_mode(ExchangeMode::Ace {
                refresh_interval: 2,
            })
            .build()
            .unwrap();
        let gs = pt_scf::scf_loop(&sys, pt_scf::ScfOptions::default()).unwrap();
        let mut prop = PtCnPropagator::default();
        let mut state = TdState::new(gs.orbitals.clone());
        let dt = pt_num::units::attosecond_to_au(25.0);
        let s1 = prop.step(&sys, None, &mut state, dt).unwrap();
        assert!(s1.converged);
        let s2 = prop.step(&sys, None, &mut state, dt).unwrap();
        assert!(s2.converged);
        let cap = prop.ace().expect("two ACE steps must leave a projector");
        assert_eq!(cap.steps_since_refresh, 2, "interval-2 window exhausted");
        assert_eq!(cap.op.xi().nrows(), sys.grids.ng());
    }

    #[test]
    fn the_systems_rank_count_selects_inline_or_engine() {
        // an explicitly constructed propagator honours the layout too:
        // which side runs is decided by the system, never by a type
        let dt = pt_num::units::attosecond_to_au(25.0);
        let team_after_a_step = |layout: Option<RankLayout>| {
            let sys = hybrid_sys(layout);
            let mut state = TdState::new(CMat::rand_normalized(sys.grids.ng(), sys.n_bands(), 41));
            pt_linalg::orthonormalize_columns(&mut state.psi, 0.0);
            let mut prop = PtCnPropagator::default();
            prop.step(&sys, None, &mut state, dt).unwrap();
            prop.engine.map(|e| e.layout())
        };
        assert_eq!(
            team_after_a_step(Some(RankLayout::new(2, 1))),
            Some(RankLayout::new(2, 1))
        );
        // one rank runs inline: no engine, no rank thread
        assert_eq!(team_after_a_step(Some(RankLayout::new(1, 3))), None);
        assert_eq!(team_after_a_step(None), None);
    }

    #[test]
    fn acquire_rebuilds_only_on_layout_change() {
        let mut slot: Option<RankEngine> = None;
        let layout = RankLayout::new(2, 1);
        acquire_engine(&mut slot, layout).unwrap();
        let before = pt_mpi::rank_threads_spawned();
        acquire_engine(&mut slot, layout).unwrap();
        assert_eq!(
            pt_mpi::rank_threads_spawned(),
            before,
            "matching layout must reuse the parked team"
        );
        acquire_engine(&mut slot, RankLayout::new(3, 1)).unwrap();
        assert_eq!(slot.as_ref().unwrap().layout().ranks, 3);
    }

    #[test]
    fn a_poisoned_engine_yields_the_typed_engine_down_error() {
        let layout = RankLayout::new(2, 1);
        let mut eng = RankEngine::new(layout, Wire::F64);
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eng.run(|comm| {
                if comm.rank() == 1 {
                    panic!("injected rank failure in the propagator engine");
                }
                comm.barrier();
            })
        }));
        assert!(boom.is_err(), "the injected rank panic must surface");
        let mut prop = PtCnPropagator {
            engine: Some(eng),
            ..Default::default()
        };
        let sys = hybrid_sys(Some(layout));
        let mut state = TdState::new(CMat::rand_normalized(sys.grids.ng(), sys.n_bands(), 41));
        let err = prop.step(&sys, None, &mut state, 25.0).unwrap_err();
        match err {
            PtError::EngineDown { cause } => {
                assert!(
                    cause.contains("injected rank failure"),
                    "cause must carry the original payload, got: {cause}"
                );
            }
            other => panic!("expected EngineDown, got {other:?}"),
        }
    }
}
