//! The unified simulation API, end to end: builder-based setup, runtime
//! propagator selection, the fixed per-step record, and the physics it
//! must hold — a laser run drives a current along its polarization axis
//! while norm and orthonormality stay conserved, and a run that blows up
//! stops with a typed error instead of committing NaN steps.

use pwdft_rt::prelude::*;
use std::sync::OnceLock;

/// The LDA Si-8 ground state (ecut 2.0), converged once per test binary.
fn lda_ground_state() -> &'static (KsSystem, ScfResult) {
    static GS: OnceLock<(KsSystem, ScfResult)> = OnceLock::new();
    GS.get_or_init(|| {
        let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(XcKind::Lda)
            .build()
            .expect("valid system");
        let o = ScfOptions {
            rho_tol: 1e-7,
            ..Default::default()
        };
        let r = scf_loop(&sys, o).expect("SCF converges");
        (sys, r)
    })
}

#[test]
fn laser_run_records_current_along_polarization_and_conserves_invariants() {
    let (sys, gs) = lda_ground_state();
    let n_electrons: f64 = sys.occupations.iter().sum();

    // ground state carries no current
    let j0 = current_density(sys, &gs.orbitals, [0.0; 3]);
    for (d, j) in j0.iter().enumerate() {
        assert!(j.abs() < 1e-8, "ground-state current j[{d}] = {j:.2e}");
    }

    // a z-polarized kick over ≥ 10 PT-CN steps through the Simulation API
    let laser = LaserPulse {
        a0: 0.05,
        omega: 0.25,
        t0: attosecond_to_au(150.0),
        sigma: attosecond_to_au(80.0),
        polarization: [0.0, 0.0, 1.0],
    };
    let series = SimulationBuilder::new(sys)
        .initial_orbitals(gs.orbitals.clone())
        .laser(laser)
        .dt(attosecond_to_au(20.0))
        .steps(12)
        .propagator(Propagator::default())
        .build()
        .expect("valid simulation")
        .run()
        .expect("run succeeds");

    assert_eq!(series.len(), 12);
    assert_eq!(series.propagator, "pt-cn");
    assert_eq!(series.stats.len(), 12);
    assert!(series.stats.iter().all(|s| s.scf_iterations >= 1));

    // current flows along the polarization axis z, and only along z
    let j_z = series.channel("current_z").expect("current_z recorded");
    let j_max = j_z.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    assert!(
        j_max > 1e-5,
        "no current built up along z: max |j_z| = {j_max:.2e}"
    );
    for axis in ["current_x", "current_y"] {
        let j = series.channel(axis).unwrap();
        let m = j.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        assert!(
            m < 1e-3 * j_max.max(1e-12),
            "{axis} should stay ~0, got {m:.2e}"
        );
    }

    // norm (electron count) and orthonormality are conserved every step
    for (i, &n) in series.channel("n_electrons").unwrap().iter().enumerate() {
        assert!((n - n_electrons).abs() < 1e-8, "step {i}: ∫ρ = {n}");
    }
    for (i, &e) in series
        .channel("orthonormality_error")
        .unwrap()
        .iter()
        .enumerate()
    {
        assert!(e < 1e-8, "step {i}: orthonormality error {e:.2e}");
    }

    // energy is absorbed from the pulse (monotone enough to be nonzero)
    let energy = series.channel("energy").unwrap();
    assert!(
        (energy.last().unwrap() - gs.energies.total()).abs() > 1e-8,
        "the pulse should move the total energy"
    );
}

#[test]
fn rk4_through_the_same_pipeline_agrees_with_ptcn() {
    let (sys, gs) = lda_ground_state();
    let laser = LaserPulse {
        a0: 0.05,
        omega: 0.25,
        t0: 0.0,
        sigma: 50.0,
        polarization: [0.0, 0.0, 1.0],
    };
    let window = attosecond_to_au(4.0);
    // same physical window, propagator chosen at runtime
    let runs = [
        (
            Propagator::PtCn(PtCnPropagator::new(PtCnOptions {
                rho_tol: 1e-9,
                ..Default::default()
            })),
            2,
        ),
        (Propagator::Rk4, 80),
    ];
    let mut finals = Vec::new();
    for (prop, steps) in runs {
        let mut sim = SimulationBuilder::new(sys)
            .initial_orbitals(gs.orbitals.clone())
            .laser(laser)
            .dt(window / steps as f64)
            .steps(steps)
            .propagator(prop)
            .build()
            .unwrap();
        let series = sim.run().unwrap();
        assert_eq!(series.len(), steps);
        finals.push((
            sim.state().psi.clone(),
            *series.channel("current_z").unwrap().last().unwrap(),
        ));
    }
    let d = density_matrix_distance(&finals[0].0, &finals[1].0);
    assert!(d < 5e-4, "PT-CN vs RK4 density-matrix distance {d:.2e}");
    assert!(
        (finals[0].1 - finals[1].1).abs() < 1e-5,
        "final currents disagree: {:.3e} vs {:.3e}",
        finals[0].1,
        finals[1].1
    );
}

#[test]
fn continuing_a_run_extends_the_time_axis() {
    let (sys, gs) = lda_ground_state();
    let dt = attosecond_to_au(25.0);
    let mut sim = SimulationBuilder::new(sys)
        .initial_orbitals(gs.orbitals.clone())
        .dt(dt)
        .steps(2)
        .build()
        .unwrap();
    let first = sim.run().unwrap();
    let second = sim.run().unwrap();
    assert!((first.t[1] - 2.0 * dt).abs() < 1e-12);
    assert!((second.t[0] - 3.0 * dt).abs() < 1e-12);
}

/// A hybrid record reads its exchange block from the system's seam (inline
/// on one rank, a job on the team on two), while `KsSystem::energies`
/// forms it inline: under the one exchange-energy sum both give the
/// committed state's energy to the bit.
#[test]
fn a_hybrid_records_energy_is_the_inline_total_energy_to_the_bit() {
    let hybrid = |layout: RankLayout| {
        KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(XcKind::Pbe)
            .hybrid(HybridConfig::hse06())
            .occupations(vec![2.0; 4])
            .layout(layout)
            .build()
            .expect("valid hybrid system")
    };
    let gs =
        scf_loop(&hybrid(RankLayout::new(1, 1)), ScfOptions::default()).expect("SCF converges");
    let laser = LaserPulse::paper_380nm(0.02, attosecond_to_au(200.0), attosecond_to_au(100.0));
    for layout in [RankLayout::new(1, 1), RankLayout::new(2, 1)] {
        let sys = hybrid(layout);
        let mut sim = SimulationBuilder::new(&sys)
            .initial_orbitals(gs.orbitals.clone())
            .laser(laser)
            .dt(attosecond_to_au(25.0))
            .steps(2)
            .build()
            .unwrap();
        let series = sim.run().unwrap();
        let state = sim.state();
        let inline = sys.install(|| {
            let rho = sys.density(&state.psi);
            sys.energies(&state.psi, &rho, laser.a_field(state.t))
                .total()
        });
        let recorded = *series.channel("energy").unwrap().last().unwrap();
        assert_eq!(recorded.to_bits(), inline.to_bits(), "{layout:?}");
    }
}

#[test]
fn a_diverging_run_stops_before_its_first_non_finite_step() {
    // RK4 far past its stability ceiling blows up within a few steps: the
    // run must stop there, typed, instead of committing NaN steps as
    // converged — and leave the finite prefix and its snapshots behind
    let (sys, gs) = lda_ground_state();
    let ceiling = max_stable_rk4_dt(sys, &gs.orbitals).unwrap();
    let dt = 20.0 * ceiling;
    let dir = std::env::temp_dir().join(format!("pt_diverged_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let steps = 50;
    let mut sim = SimulationBuilder::new(sys)
        .initial_orbitals(gs.orbitals.clone())
        .dt(dt)
        .steps(steps)
        .propagator(Propagator::Rk4)
        .checkpoint_every(1, &dir)
        .checkpoint_keep(steps)
        .build()
        .unwrap();
    let (step, t) = match sim.run() {
        Err(PtError::Diverged { step, t, .. }) => (step, t),
        other => panic!("expected Diverged, got {other:?}"),
    };
    assert!((1..steps).contains(&step), "diverged at step {step}");
    assert!((t - (step + 1) as f64 * dt).abs() < 1e-9 * t, "t = {t}");
    // the partial series is exactly the finite prefix ...
    let partial = sim.take_partial_series().expect("partial series kept");
    assert_eq!(partial.len(), step);
    for name in partial.channel_names() {
        let col = partial.channel(name).unwrap();
        assert_eq!(col.len(), step, "{name}");
        assert!(col.iter().all(|v| v.is_finite()), "{name}: {col:?}");
    }
    // ... and so are the snapshots: the newest is the last finite step's
    let newest = pwdft_rt::core::checkpoint::checkpoint_path(&dir, step);
    assert_eq!(latest_checkpoint(&dir).unwrap(), Some(newest));
    let _ = std::fs::remove_dir_all(dir);
}

/// The ground state's orbitals with one coefficient set to NaN: every
/// density, `HΨ` and residual built from them is non-finite.
fn nan_seeded_orbitals() -> TdState {
    let (_, gs) = lda_ground_state();
    let mut psi = gs.orbitals.clone();
    psi[(3, 1)].re = f64::NAN;
    TdState::new(psi)
}

/// `HΨ` block applications over an 8-step PT-CN laser run on the LDA
/// Si-8 ground state at dt = 25 as under the default options (the
/// benchmark's pulse and step on the smallest system): 8.125 per step.
const PTCN_LASER_TOTAL_H_APPLICATIONS: usize = 65;
/// The same run with the unpreconditioned fixed point (per-band Anderson
/// on the raw residual −R), measured before the kinetic diagonal landed:
/// 10.25 per step.
const UNPRECONDITIONED_TOTAL_H_APPLICATIONS: usize = 82;
const _: () = assert!(PTCN_LASER_TOTAL_H_APPLICATIONS < UNPRECONDITIONED_TOTAL_H_APPLICATIONS);

#[test]
fn the_kinetic_preconditioner_holds_the_fixed_point_cost_per_step() {
    let (sys, gs) = lda_ground_state();
    let steps = 8;
    let series = SimulationBuilder::new(sys)
        .initial_orbitals(gs.orbitals.clone())
        .laser(LaserPulse::paper_380nm(
            0.02,
            attosecond_to_au(200.0),
            attosecond_to_au(100.0),
        ))
        .dt(attosecond_to_au(25.0))
        .steps(steps)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(series.stats.iter().all(|s| s.converged));
    let total: usize = series.stats.iter().map(|s| s.h_applications).sum();
    let mean = total as f64 / steps as f64;
    assert_eq!(
        total, PTCN_LASER_TOTAL_H_APPLICATIONS,
        "mean H applications per step {mean}"
    );
}

#[test]
fn a_nan_seeded_ptcn_step_leaves_the_fixed_point_at_its_first_residual() {
    // max_r |Δρ| of an all-NaN density is NaN, not 0: the fixed point must
    // not read it as converged, and must not reach the Cholesky of a NaN
    // overlap
    let (sys, _) = lda_ground_state();
    let mut state = nan_seeded_orbitals();
    let stats = PtCnPropagator::default()
        .step(sys, None, &mut state, attosecond_to_au(25.0))
        .expect("a non-finite iterate is reported, not raised");
    assert!(!stats.converged);
    assert_eq!(stats.scf_iterations, 1);
    assert_eq!(stats.h_applications, 2);
    assert!(stats.rho_residual.is_nan());
    // strict mode turns the same step into the typed non-convergence
    let strict = PtCnOptions {
        strict: true,
        ..Default::default()
    };
    let mut state = nan_seeded_orbitals();
    match PtCnPropagator::new(strict).step(sys, None, &mut state, attosecond_to_au(25.0)) {
        Err(PtError::NotConverged { iterations, .. }) => assert_eq!(iterations, 1),
        other => panic!("expected NotConverged, got {other:?}"),
    }
}

#[test]
fn a_nan_seeded_ptcn_run_is_refused_as_diverged() {
    let (sys, _) = lda_ground_state();
    let mut sim = SimulationBuilder::new(sys)
        .initial_orbitals(nan_seeded_orbitals().psi)
        .dt(attosecond_to_au(25.0))
        .steps(4)
        .build()
        .unwrap();
    match sim.run() {
        Err(PtError::Diverged {
            step,
            last_residual,
            ..
        }) => {
            assert_eq!(step, 0);
            assert!(last_residual.is_nan());
        }
        other => panic!("expected Diverged, got {other:?}"),
    }
    let partial = sim.take_partial_series().expect("partial series kept");
    assert_eq!(partial.len(), 0, "nothing is committed");
}

/// The velocity-gauge work theorem's discrete residual at the last sample,
/// r_n = E_n − E_1 − Ω Σ_{k=2..n} ½ (J_k + J_{k−1}) · (A_k − A_{k−1}): the
/// energy the record gained minus the work the field did on the current
/// (trapezoidal in time). Both sides come from the same H(A), so r is zero
/// up to the propagator's time error.
fn work_residual(series: &TimeSeries, volume: f64) -> f64 {
    let e = series.channel("energy").unwrap();
    let j: Vec<&[f64]> = ["current_x", "current_y", "current_z"]
        .iter()
        .map(|c| series.channel(c).unwrap())
        .collect();
    let a = &series.a_field;
    let mut work = 0.0;
    for k in 1..series.len() {
        for d in 0..3 {
            work += 0.5 * (j[d][k] + j[d][k - 1]) * (a[k][d] - a[k - 1][d]);
        }
    }
    e[series.len() - 1] - e[0] - volume * work
}

#[test]
fn the_work_theorem_residual_is_second_order_in_dt() {
    // ROADMAP direction 3's measured setup: 380 nm, a0 = 0.05, centred at
    // 200 as with σ = 100 as, over 400 as, the fixed point solved to 1e-10
    let (sys, gs) = lda_ground_state();
    let laser = LaserPulse::paper_380nm(0.05, attosecond_to_au(200.0), attosecond_to_au(100.0));
    let r_at = |dt_as: f64| {
        let steps = (400.0 / dt_as).round() as usize;
        let series = SimulationBuilder::new(sys)
            .initial_orbitals(gs.orbitals.clone())
            .laser(laser)
            .dt(attosecond_to_au(dt_as))
            .steps(steps)
            .propagator(Propagator::PtCn(PtCnPropagator::new(PtCnOptions {
                rho_tol: 1e-10,
                ..Default::default()
            })))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(series.len(), steps);
        work_residual(&series, sys.grids.volume)
    };
    let r: Vec<f64> = [25.0, 12.5, 6.25].into_iter().map(r_at).collect();
    for pair in r.windows(2) {
        assert!(
            pair[0].abs() >= 3.5 * pair[1].abs(),
            "r at 400 as per dt halving: {r:?}"
        );
    }
}
