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
        .propagator(Box::new(PtCnPropagator::default()))
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
    let runs: Vec<(Box<dyn Propagator>, usize)> = vec![
        (
            Box::new(PtCnPropagator::new(PtCnOptions {
                rho_tol: 1e-9,
                ..Default::default()
            })),
            2,
        ),
        (Box::new(Rk4Propagator::default()), 80),
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

#[test]
fn a_diverging_run_stops_before_its_first_non_finite_step() {
    // RK4 far past its stability ceiling blows up within a few steps: the
    // run must stop there, typed, instead of committing NaN steps as
    // converged — and leave the finite prefix and its snapshots behind
    let (sys, gs) = lda_ground_state();
    let ceiling = max_stable_rk4_dt(sys, &gs.orbitals, 12, 0.05, 4.0).unwrap();
    let dt = 20.0 * ceiling;
    let dir = std::env::temp_dir().join(format!("pt_diverged_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let steps = 50;
    let mut sim = SimulationBuilder::new(sys)
        .initial_orbitals(gs.orbitals.clone())
        .dt(dt)
        .steps(steps)
        .propagator(Box::new(Rk4Propagator::default()))
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
