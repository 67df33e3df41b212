//! One potential build per density: the record of a step builds
//! ρ(Ψ_{n+1}) and its `v_total`, and the next step's first `HΨ` on
//! Ψ_{n+1} runs on that potential instead of building both again.
//!
//! Counted in 3-D transforms over recorded 3-step runs. A PT-CN step that
//! builds everything itself runs
//! `h·2N + (h + 1)·x + (iterations + 3)·N` transforms — N bands, h `HΨ`
//! (2 per band each, plus one potential build of x transforms: 7 for PBE,
//! 2 for LDA), one density per iterate, Ψ_n, the fixed point's seed and the
//! record, and the record's potential. Step 1 must run exactly that; every
//! later step exactly `N + x` fewer. RK4 saves the same on its first
//! stage. The carried runs give the bits of steps taken one at a time
//! through [`Propagator::step`], which carries nothing.
//!
//! One `#[test]`: `pt_trace`'s counters are process-global, so no sibling
//! test may run transforms beside it.

use pwdft_rt::prelude::*;
use pwdft_rt::trace::{self, Counter};

/// Per-step transform counts and stats of a recorded run, and its final Ψ.
fn counted_run(
    sys: &KsSystem,
    psi0: &pwdft_rt::linalg::CMat,
    propagator: Propagator,
    dt: f64,
    steps: usize,
) -> (Vec<(u64, StepStats)>, TimeSeries, pwdft_rt::linalg::CMat) {
    let mut per_step = Vec::new();
    let mut mark = trace::mark();
    let mut sim = SimulationBuilder::new(sys)
        .initial_orbitals(psi0.clone())
        .laser(laser())
        .propagator(propagator)
        .dt(dt)
        .steps(steps)
        .step_tap(|u| {
            per_step.push((
                trace::counters_since(&mark).get(Counter::FftTransforms),
                *u.stats,
            ));
            mark = trace::mark();
        })
        .build()
        .expect("valid simulation");
    let series = sim.run().expect("propagation succeeds");
    let psi = sim.state().psi.clone();
    drop(sim);
    (per_step, series, psi)
}

fn laser() -> LaserPulse {
    LaserPulse::paper_380nm(0.02, attosecond_to_au(200.0), attosecond_to_au(100.0))
}

fn same_bits(a: &pwdft_rt::linalg::CMat, b: &pwdft_rt::linalg::CMat) -> bool {
    a.data()
        .iter()
        .zip(b.data())
        .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

#[test]
fn each_step_after_the_first_builds_one_potential_and_one_density_fewer() {
    trace::set_enabled(true);
    let steps = 3;
    for (xc, x) in [(XcKind::Pbe, 7u64), (XcKind::Lda, 2)] {
        let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(xc)
            .build()
            .expect("valid system");
        let n = sys.n_bands() as u64;
        let psi0 = scf_loop(&sys, ScfOptions::default())
            .expect("SCF converges")
            .orbitals;

        // PT-CN
        let dt = attosecond_to_au(25.0);
        let (counts, series, psi) = counted_run(&sys, &psi0, Propagator::default(), dt, steps);
        assert_eq!(series.len(), steps);
        for (k, (transforms, stats)) in counts.iter().enumerate() {
            let h = stats.h_applications as u64;
            let iterations = stats.scf_iterations as u64;
            assert_eq!(h, iterations + 1, "{xc:?} step {k}");
            let built = h * 2 * n + (h + 1) * x + (iterations + 3) * n;
            let saved = if k == 0 { 0 } else { n + x };
            assert_eq!(*transforms, built - saved, "{xc:?} PT-CN step {k}");
        }
        // the same steps one at a time, nothing carried
        let mut prop = Propagator::default();
        let mut state = TdState::new(psi0.clone());
        for _ in 0..steps {
            prop.step(&sys, Some(&laser()), &mut state, dt)
                .expect("uncarried step succeeds");
        }
        assert!(
            same_bits(&psi, &state.psi),
            "{xc:?} PT-CN carried != uncarried"
        );

        // RK4: four stages of one density, one potential and 2N each
        let dt = attosecond_to_au(5.0);
        let (counts, _, psi) = counted_run(&sys, &psi0, Propagator::Rk4, dt, steps);
        for (k, (transforms, stats)) in counts.iter().enumerate() {
            assert_eq!(stats.h_applications, 4);
            let built = 4 * (3 * n + x) + n + x;
            let saved = if k == 0 { 0 } else { n + x };
            assert_eq!(*transforms, built - saved, "{xc:?} RK4 step {k}");
        }
        let mut prop = Propagator::Rk4;
        let mut state = TdState::new(psi0.clone());
        for _ in 0..steps {
            prop.step(&sys, Some(&laser()), &mut state, dt)
                .expect("uncarried step succeeds");
        }
        assert!(
            same_bits(&psi, &state.psi),
            "{xc:?} RK4 carried != uncarried"
        );
    }
}
