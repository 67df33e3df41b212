//! Quickstart: converge a hybrid-functional (HSE06-like) ground state for
//! an 8-atom silicon cell, then take PT-CN steps through the `Simulation`
//! API.
//!
//! Run with: `cargo run --release --example quickstart`

use pwdft_rt::prelude::*;

fn main() -> Result<(), PtError> {
    // 8 Si atoms, 16 doubly occupied bands, HSE06-style hybrid functional.
    // E_cut is kept small so this finishes in seconds; raise it for
    // physical accuracy (the paper uses 10 Ha).
    let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
        .ecut(2.5)
        .xc(XcKind::Pbe)
        .hybrid(HybridConfig::hse06())
        .build()?;
    println!(
        "system: {} atoms, {} bands, N_G = {} plane waves",
        sys.structure.atoms.len(),
        sys.n_bands(),
        sys.grids.ng()
    );

    let gs = scf_loop(&sys, ScfOptions::default())?;
    println!(
        "ground state: E = {:.6} Ha ({} SCF iterations, residual {:.1e})",
        gs.energies.total(),
        gs.scf_iterations,
        gs.rho_residual
    );
    println!("  breakdown: {:?}", gs.energies);

    // two PT-CN steps at the paper's 50 as, each recording the standard
    // observables
    let mut sim = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .dt(attosecond_to_au(50.0))
        .steps(2)
        .propagator(Propagator::default())
        .build()?;
    let series = sim.run()?;
    for (i, stats) in series.stats.iter().enumerate() {
        println!(
            "PT-CN step {}: {} SCF iterations, {} HΨ applications, ρ-residual {:.1e}",
            i + 1,
            stats.scf_iterations,
            stats.h_applications,
            stats.rho_residual
        );
    }
    println!(
        "energy drift over {} steps: {:.2e} Ha",
        series.len(),
        series.channel("energy").unwrap().last().unwrap() - gs.energies.total()
    );
    println!(
        "orthonormality after re-orthogonalization: {:.1e}",
        series
            .channel("orthonormality_error")
            .unwrap()
            .last()
            .unwrap()
    );
    Ok(())
}
