//! The ACE accuracy contract. `Ace { refresh_interval: 1 }` refreshes the
//! projector *self-consistently* every step: ξ is rebuilt from the
//! converged orbitals and the step re-solved until the inter-round
//! density drift falls below `rho_tol`. ACE is exact on its defining
//! block, so the accepted fixed point is the `Full` fixed point — the
//! per-step-refresh trajectory must track the full pair-FFT Fock loop to
//! the solver tolerance, not merely to an O(dt²) discretization gap.
//! Over a 20-step laser-driven hybrid run the observables must agree to
//! 1e-8 (both runs solved to `rho_tol = 1e-10` so the bound is the
//! physics, not the stopping criterion). Larger refresh intervals freeze
//! the projector across steps and must degrade *gracefully*: errors grow
//! with staleness but stay finite and small, every step still converges,
//! and orthonormality is preserved to machine level.

use pwdft_rt::prelude::*;

/// The one problem under `mode`: the mode is a property of the system, so
/// each run gets its own `KsSystem`; they all share the one SCF ground
/// state (SCF does not read `exchange_mode`).
fn hybrid_system(mode: ExchangeMode) -> KsSystem {
    KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
        .ecut(2.0)
        .xc(XcKind::Pbe)
        .hybrid(HybridConfig::hse06())
        .occupations(vec![2.0; 4])
        .exchange_mode(mode)
        .build()
        .unwrap()
}

/// Both the Full reference and every ACE run use the same tightened
/// PT-CN options, routed through an explicit propagator so the 1e-8
/// comparison is not limited by the default 1e-6 fixed-point tolerance.
fn run_mode(gs: &ScfResult, mode: ExchangeMode) -> TimeSeries {
    let sys = &hybrid_system(mode);
    let prop = PtCnPropagator::new(PtCnOptions {
        rho_tol: 1e-10,
        max_scf: 80,
        ..PtCnOptions::default()
    });
    let series = SimulationBuilder::new(sys)
        .initial_orbitals(gs.orbitals.clone())
        .laser(LaserPulse::paper_380nm(
            0.02,
            attosecond_to_au(200.0),
            attosecond_to_au(100.0),
        ))
        .dt(attosecond_to_au(25.0))
        .steps(20)
        .propagator(Propagator::PtCn(prop))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(
        series.stats.iter().all(|s| s.converged),
        "{mode:?}: every PT-CN step must converge"
    );
    let ortho = series.channel("orthonormality_error").unwrap();
    assert!(
        ortho.iter().all(|&x| x < 1e-9),
        "{mode:?}: orthonormality must stay machine-level"
    );
    series
}

fn max_channel_err(a: &TimeSeries, b: &TimeSeries, name: &str) -> f64 {
    a.channel(name)
        .unwrap()
        .iter()
        .zip(b.channel(name).unwrap())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn ace_1_tracks_full_observables_and_larger_intervals_degrade_gracefully() {
    let gs =
        scf_loop(&hybrid_system(ExchangeMode::Full), ScfOptions::default()).expect("SCF converges");
    let full = run_mode(&gs, ExchangeMode::Full);
    let err_vs_full = |mode: ExchangeMode| -> (f64, f64) {
        let series = run_mode(&gs, mode);
        let dipole = ["dipole_x", "dipole_y", "dipole_z"]
            .iter()
            .map(|ch| max_channel_err(&full, &series, ch))
            .fold(0.0, f64::max);
        let e_scale = full.channel("energy").unwrap()[0].abs();
        let energy = max_channel_err(&full, &series, "energy") / e_scale;
        (dipole, energy)
    };

    // the acceptance bound: per-step self-consistent refresh is
    // indistinguishable from the full Fock loop at observable level
    let (dip1, en1) = err_vs_full(ExchangeMode::Ace {
        refresh_interval: 1,
    });
    assert!(dip1 <= 1e-8, "Ace{{1}} dipole error vs Full: {dip1:e}");
    assert!(
        en1 <= 1e-8,
        "Ace{{1}} relative energy error vs Full: {en1:e}"
    );

    // stale projectors lose accuracy but never stability: the error grows
    // with the refresh interval yet stays finite and small, and (asserted
    // inside run_mode) every step converges with machine orthonormality
    let (dip2, en2) = err_vs_full(ExchangeMode::Ace {
        refresh_interval: 2,
    });
    let (dip5, en5) = err_vs_full(ExchangeMode::Ace {
        refresh_interval: 5,
    });
    for (label, v) in [("dip2", dip2), ("en2", en2), ("dip5", dip5), ("en5", en5)] {
        assert!(v.is_finite() && v <= 5e-2, "{label} = {v:e}");
    }
    assert!(
        dip2 >= dip1 && dip5 >= dip1,
        "stale projectors cannot beat per-step refresh: \
         dip2 = {dip2:e}, dip5 = {dip5:e}, dip1 = {dip1:e}"
    );
}
