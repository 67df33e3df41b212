//! The `ranks > 1` side of PT-CN: Alg. 1's `HΨ`, ACE build and residual
//! driven over the virtual MPI runtime with rank-pinned compute pools —
//! the paper's execution model (one MPI rank per GPU plus a CPU-thread
//! slice) reproduced in process.
//!
//! [`crate::PtCnPropagator`] selects by the rank count of the system's
//! layout. **One rank runs inline** (`InlineKernels`: no engine, no rank
//! thread, the installed pool). With more, the propagator owns a
//! persistent [`RankEngine`]: the rank threads and their pinned
//! `threads_per_rank`-wide pools are spawned **once**, on the first step,
//! and every subsequent `HΨ` application and residual evaluation is a job
//! submitted to the same parked team. Each `HΨ` job applies the local
//! (kinetic + V_loc + V_NL) part to the rank's cyclic share of the bands
//! and joins the Fock exchange — the Alg. 2 broadcast loop, then the
//! rank's dealt pair tiles ([`pt_ham::distributed_fock_apply`]); the
//! fixed-point residual runs G-space-parallel via
//! [`pt_ham::distributed_residual`] with its tree chunk reduction. The parallel-transport algebra around them (density,
//! Anderson mixing, re-orthonormalization) runs replicated on the driver
//! thread, on the system's `layout.cores()`-wide pool.
//!
//! The engine is runtime-only state: it is not cloned, captured, or
//! snapshotted — a resumed or cloned propagator rebuilds its team lazily
//! on the next step. If a rank dies, the panic surfaces on the driver
//! with the original payload (poison-cascade semantics) and later steps
//! on the dead engine are refused with [`PtError::EngineDown`].
//!
//! # Layout invariance
//!
//! The rank path ships `f64` on the wire, so the observables of a run are
//! **bit-identical for every `ranks × threads_per_rank` layout**, inline
//! or on the engine: the in-process kernels are the `N_p = 1` case of the
//! rank ones (one pair term and one partner-chunk fold, one chunked
//! residual — see `pt-ham`), band ownership only partitions work whose
//! per-band results are computed independently in a fixed order, every
//! band folds the same exchange partials in the same order whichever
//! rank's tile made them, and the residual's tree reduction joins fixed
//! 64-row chunks in ascending order regardless of which rank owns them.

use crate::propagator::StepKernels;
use pt_ham::{
    distributed_fock_apply, distributed_residual, AceOperator, BandDistribution, KsSystem, PtError,
};
use pt_linalg::CMat;
use pt_mpi::{Comm, EnginePoisoned, RankEngine, Wire};
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

/// The engine-backed execution strategy of a `ranks > 1` layout: `HΨ`,
/// the ACE build and the fixed-point residual all run as jobs on the same
/// parked rank team — no threads are spawned here.
pub(crate) struct EngineKernels<'e> {
    pub(crate) engine: &'e mut RankEngine,
}

impl EngineKernels<'_> {
    /// Run `job` on every rank (each returns the columns of its cyclic
    /// bands) and gather the full `ng × n_bands` band-major block. The
    /// job's wire delta is folded into the trace counters —
    /// `pt_mpi::CommStats` stays the single source of truth.
    fn run_gathered(
        &mut self,
        ng: usize,
        n_bands: usize,
        job: impl Fn(&mut Comm, BandDistribution) -> CMat + Sync,
    ) -> Result<CMat, PtError> {
        let dist = BandDistribution {
            n_bands,
            n_ranks: self.engine.layout().ranks,
        };
        let sp = pt_trace::span("engine_run");
        let (blocks, wire) = self
            .engine
            .run(|comm| job(comm, dist))
            .map_err(|e: EnginePoisoned| PtError::EngineDown { cause: e.cause })?;
        drop(sp);
        pt_trace::counter_add(pt_trace::Counter::EngineJobs, 1);
        pt_trace::counter_add(pt_trace::Counter::WireBytes, wire.total_bytes());
        let mut full = CMat::zeros(ng, n_bands);
        for (r, block) in blocks.iter().enumerate() {
            for (lj, &b) in dist.local_bands(r).iter().enumerate() {
                full.col_mut(b).copy_from_slice(block.col(lj));
            }
        }
        Ok(full)
    }
}

impl StepKernels for EngineKernels<'_> {
    /// Local parts rank-parallel by band, exchange either via the Alg. 2
    /// broadcast loop and the dealt pair tiles or — with a frozen ACE
    /// projector — via the rank-local `−ξ(ξ^H ψ)` projector apply. In the
    /// ACE branch ξ lives on the driver and reaches every rank by
    /// shared-memory reference: the wire carries no pair FFTs and no
    /// broadcast bands at all.
    fn apply_h(
        &mut self,
        sys: &KsSystem,
        rho: &[f64],
        psi: &CMat,
        a: [f64; 3],
        ace: Option<&AceOperator>,
    ) -> Result<CMat, PtError> {
        let fock = match (sys.hybrid, ace) {
            (Some(hy), None) => Some((hy.alpha, sys.exchange_kernel()?)),
            _ => None,
        };
        // the Fock-free Hamiltonian every rank applies to its own bands
        let h_local = sys.local_hamiltonian(rho, a)?;
        let grids = &sys.grids;
        self.run_gathered(grids.ng(), psi.ncols(), |comm, dist| {
            let psi_local = dist.take_local(comm.rank(), psi);
            let mut out = CMat::zeros(psi_local.nrows(), psi_local.ncols());
            h_local.apply_block(&psi_local, &mut out);
            if let Some(op) = ace {
                op.apply_block(&psi_local, &mut out);
            } else if let Some((alpha, kernel)) = fock {
                // parallel-transport gauge: Φ = Ψ defines the exchange
                let vx = distributed_fock_apply(
                    comm, grids, dist, &psi_local, &psi_local, alpha, kernel,
                );
                for (o, v) in out.data_mut().iter_mut().zip(vx.data()) {
                    *o += *v;
                }
            }
            out
        })
    }

    /// The rank team computes `W = V_X Φ` with the Alg. 2 broadcast loop and
    /// the dealt pair tiles (the one place pair FFTs still run under ACE),
    /// the driver factors
    /// the gathered W — layout-independent, so ξ carries W's bits.
    fn build_ace(&mut self, sys: &KsSystem, phi: &CMat) -> Result<AceOperator, PtError> {
        let alpha = sys.hybrid.ok_or(PtError::MissingExchangeOrbitals)?.alpha;
        let kernel = sys.exchange_kernel()?;
        let grids = &sys.grids;
        let w = self.run_gathered(grids.ng(), phi.ncols(), |comm, dist| {
            let phi_local = dist.take_local(comm.rank(), phi);
            distributed_fock_apply(comm, grids, dist, &phi_local, &phi_local, alpha, kernel)
        })?;
        AceOperator::from_w(phi, w)
    }

    /// G-space-parallel residual (Alg. 3): each rank evaluates its sphere
    /// rows, the Ψ*HΨ overlap combines over the chunk reduction tree.
    fn residual(
        &mut self,
        psi_f: &CMat,
        hpsi_f: &CMat,
        psi_half: &CMat,
        dt: f64,
    ) -> Result<CMat, PtError> {
        let ng = psi_f.nrows();
        self.run_gathered(ng, psi_f.ncols(), |comm, dist| {
            let take = |m: &CMat| dist.take_local(comm.rank(), m);
            distributed_residual(
                comm,
                dist,
                ng,
                &take(psi_f),
                &take(hpsi_f),
                &take(psi_half),
                dt,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagator::{InlineKernels, Propagator, PropagatorState, PtCnPropagator, TdState};
    use pt_ham::ExchangeMode;
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
        // HΨ with the exact Fock loop, the ACE build, HΨ under the frozen
        // projector and the residual: the in-process call (1 thread) is
        // the reference, every gathered rank result must carry its bits
        let sys = hybrid_sys(None);
        let psi = CMat::rand_normalized(sys.grids.ng(), sys.n_bands(), 17);
        let half = CMat::rand_normalized(sys.grids.ng(), sys.n_bands(), 18);
        let rho = sys.density(&psi);
        let (a, dt) = ([0.0, 0.0, 0.01], 0.7);
        let all = |k: &mut dyn StepKernels| {
            let h_full = k.apply_h(&sys, &rho, &psi, a, None).unwrap();
            let ace = k.build_ace(&sys, &psi).unwrap();
            let h_ace = k.apply_h(&sys, &rho, &psi, a, Some(&ace)).unwrap();
            let resid = k.residual(&psi, &h_full, &half, dt).unwrap();
            [h_full, ace.xi().clone(), h_ace, resid]
        };
        let want = pt_par::ThreadPool::new(1).install(|| all(&mut InlineKernels));
        let inline4 = pt_par::ThreadPool::new(4).install(|| all(&mut InlineKernels));
        for (w, g) in want.iter().zip(&inline4) {
            assert_same_bits(w, g, "inline, 4 threads");
        }
        for ranks in [1usize, 2, 3] {
            for threads in [1usize, 4] {
                let mut engine = RankEngine::new(RankLayout::new(ranks, threads), Wire::F64);
                let mut kernels = EngineKernels {
                    engine: &mut engine,
                };
                // twice on the same engine: the parked team is reused and
                // the second pass's bits must not drift
                for pass in 0..2 {
                    for (w, g) in want.iter().zip(&all(&mut kernels)) {
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
            let call = |k: &mut EngineKernels, phase: &str| match phase {
                "HΨ" => k.apply_h(&sys, &rho, &psi, [0.0; 3], None).map(drop),
                _ => k.build_ace(&sys, &psi).map(drop),
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
                        let mut kernels = EngineKernels {
                            engine: &mut engine,
                        };
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
        match prop.capture() {
            PropagatorState::PtCn { ace, .. } => {
                let cap = ace.expect("two ACE steps must leave a captured projector");
                assert_eq!(cap.steps_since_refresh, 2, "interval-2 window exhausted");
                assert_eq!(cap.xi.nrows(), sys.grids.ng());
            }
            other => panic!("expected PtCn, got {other:?}"),
        }
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
