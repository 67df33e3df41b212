//! The paper's headline comparison at laptop scale: PT-CN takes 50 as
//! steps; RK4 is limited to sub-attosecond steps by stability. We measure
//! both the stability ceiling and the wall-clock ratio on a real Si₈ cell,
//! selecting each propagator **at runtime** through `Box<dyn Propagator>` —
//! the same `Simulation` setup runs both.
//!
//! Then the dt axis, the paper's case for large steps: over one fixed
//! laser-driven window, PT-CN's `HΨ` applications per femtosecond at
//! dt = 25 / 50 / 100 as, each beside its largest dipole deviation from a
//! dt = 6.25 as PT-CN run of the same window.
//!
//! Run with: `cargo run --release --example ptcn_vs_rk4`

use pwdft_rt::prelude::*;
use std::time::Instant;

fn main() -> Result<(), PtError> {
    let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
        .ecut(2.5)
        .xc(XcKind::Lda)
        .build()?;
    let opts = ScfOptions {
        rho_tol: 1e-7,
        ..Default::default()
    };
    let gs = scf_loop(&sys, opts)?;

    let ceiling = max_stable_rk4_dt(&sys, &gs.orbitals, 10, 0.05, 4.0)?;
    println!(
        "RK4 stability ceiling at E_cut = {} Ha: {:.2} as (paper at 10 Ha: ~0.5 as)",
        sys.grids.ecut,
        au_to_attosecond(ceiling)
    );

    // propagate the same 50 as window with both propagators, chosen at
    // runtime: (name, boxed propagator, step count)
    let window = attosecond_to_au(50.0);
    let n_rk = (window / (0.8 * ceiling)).ceil() as usize;
    let runs: Vec<(Box<dyn Propagator>, usize)> = vec![
        (Box::new(PtCnPropagator::default()), 1),
        (Box::new(Rk4Propagator::default()), n_rk),
    ];

    let mut finals = Vec::new();
    let mut elapsed = Vec::new();
    for (prop, n_steps) in runs {
        let name = prop.name();
        let mut sim = SimulationBuilder::new(&sys)
            .initial_orbitals(gs.orbitals.clone())
            .dt(window / n_steps as f64)
            .steps(n_steps)
            .propagator(prop)
            .build()?;
        let t0 = Instant::now();
        let series = sim.run()?;
        let dt_wall = t0.elapsed();
        let scf_total: usize = series.stats.iter().map(|s| s.scf_iterations).sum();
        println!("{name}: {n_steps} steps ({scf_total} SCF iterations) in {dt_wall:.2?}");
        finals.push(sim.state().psi.clone());
        elapsed.push(dt_wall);
    }

    println!(
        "wall-clock ratio: {:.1}x (paper on Summit: 20-30x)",
        elapsed[1].as_secs_f64() / elapsed[0].as_secs_f64()
    );
    println!(
        "gauge-invariant agreement (density-matrix distance): {:.2e}",
        density_matrix_distance(&finals[0], &finals[1])
    );
    println!(
        "PT-CN step / RK4 ceiling = {:.1}x larger time step",
        window / ceiling
    );

    dt_axis(&sys, &gs.orbitals)
}

/// PT-CN cost per femtosecond and dipole error along the dt axis.
fn dt_axis(sys: &KsSystem, orbitals: &pwdft_rt::linalg::CMat) -> Result<(), PtError> {
    const WINDOW_AS: f64 = 200.0;
    const REFERENCE_DT_AS: f64 = 6.25;
    let laser = LaserPulse::paper_380nm(0.05, attosecond_to_au(100.0), attosecond_to_au(50.0));
    // the dipole after every step, and H applications per fs
    let run = |dt_as: f64| -> Result<(Vec<[f64; 3]>, f64), PtError> {
        let series = SimulationBuilder::new(sys)
            .initial_orbitals(orbitals.clone())
            .laser(laser)
            .dt(attosecond_to_au(dt_as))
            .steps((WINDOW_AS / dt_as).round() as usize)
            .build()?
            .run()?;
        let dipole = |c: &str| series.channel(c).expect("dipole is recorded");
        let (x, y, z) = (dipole("dipole_x"), dipole("dipole_y"), dipole("dipole_z"));
        let rows = (0..series.len()).map(|i| [x[i], y[i], z[i]]).collect();
        let h: usize = series.stats.iter().map(|s| s.h_applications).sum();
        Ok((rows, h as f64 / (WINDOW_AS * 1e-3)))
    };
    let (reference, _) = run(REFERENCE_DT_AS)?;
    println!(
        "\nPT-CN along the dt axis ({WINDOW_AS} as window, dipole vs a {REFERENCE_DT_AS} as run):"
    );
    println!("  dt (as)   H appl./fs   max |dipole - reference|");
    for dt_as in [25.0, 50.0, 100.0] {
        let (rows, h_per_fs) = run(dt_as)?;
        // row j ends at (j + 1)·dt, which is reference row (j + 1)·stride − 1
        let stride = (dt_as / REFERENCE_DT_AS).round() as usize;
        let deviation = rows
            .iter()
            .enumerate()
            .flat_map(|(j, d)| {
                let r = reference[(j + 1) * stride - 1];
                (0..3).map(move |k| (d[k] - r[k]).abs())
            })
            .fold(0.0, f64::max);
        println!("  {dt_as:7.2}   {h_per_fs:10.0}   {deviation:.2e}");
    }
    Ok(())
}
