//! Laser-driven electron dynamics in silicon: the paper's §4 scenario at
//! laptop scale. A 380 nm pulse excites a Si₈ cell; the `Simulation`
//! driver records the current density and energy absorbed over a few
//! PT-CN steps in its per-step record.
//!
//! Run with: `cargo run --release --example laser_silicon`

use pwdft_rt::prelude::*;

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
    let e0 = gs.energies.total();
    println!("E₀ = {e0:.6} Ha");

    // the paper's 380 nm pulse (weak amplitude for a linear-response kick)
    let laser = LaserPulse::paper_380nm(0.02, attosecond_to_au(200.0), attosecond_to_au(100.0));
    let series = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .laser(laser)
        .dt(attosecond_to_au(25.0))
        .steps(8)
        .propagator(Propagator::default())
        .build()?
        .run()?;

    let j_z = series
        .channel("current_z")
        .expect("every run records current");
    let energy = series.channel("energy").expect("every run records energy");
    println!(
        "{:>8} {:>14} {:>14} {:>6}",
        "t (as)", "j_z (a.u.)", "ΔE (Ha)", "SCF"
    );
    for i in 0..series.len() {
        println!(
            "{:>8.1} {:>14.6e} {:>14.6e} {:>6}",
            au_to_attosecond(series.t[i]),
            j_z[i],
            energy[i] - e0,
            series.stats[i].scf_iterations
        );
    }
    println!("(current builds along the pulse's z polarization; energy is absorbed)");
    Ok(())
}
