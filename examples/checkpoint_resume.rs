//! Checkpoint/restart in five minutes: run a laser-driven trajectory with
//! rolling snapshots, "kill" the job partway, resume from disk, and verify
//! the resumed trajectory is bit-identical to an uninterrupted one.
//!
//! ```sh
//! cargo run --release --example checkpoint_resume
//! ```
//!
//! This is also the CI kill-at-step-k/resume smoke: it exits nonzero if
//! any channel of the merged series differs by a single bit.

use pwdft_rt::core::{latest_checkpoint, RunCheckpoint};
use pwdft_rt::prelude::*;

fn main() -> Result<(), PtError> {
    let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
        .ecut(2.0)
        .xc(XcKind::Lda)
        .build()?;
    let gs = scf_loop(&sys, ScfOptions::default())?;
    let laser = LaserPulse::paper_380nm(0.02, attosecond_to_au(200.0), attosecond_to_au(100.0));
    let dt = attosecond_to_au(25.0);
    let steps = 6;
    let kill_at = 3;

    // reference: the uninterrupted trajectory
    let uninterrupted = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .laser(laser)
        .dt(dt)
        .steps(steps)
        .build()?
        .run()?;

    // "job 1": same run with rolling snapshots, killed after `kill_at`
    // steps (we model the kill by running a shorter window of the same
    // trajectory — the snapshot on disk is all that survives a real kill)
    let dir = std::env::temp_dir().join(format!("pt_ckpt_example_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .laser(laser)
        .dt(dt)
        .steps(steps)
        .checkpoint_every(1, &dir)
        .checkpoint_keep(steps) // keep them all so the demo can pick step 3
        .build()?
        .run()?;
    let snapshot = dir.join(format!("ckpt_{kill_at:08}.ptio"));
    assert!(snapshot.exists(), "expected {}", snapshot.display());
    assert!(latest_checkpoint(&dir)?.is_some());
    let ck = RunCheckpoint::read(&snapshot)?;
    println!(
        "resuming from {} (step {} of {}, t = {:.3} a.u., {} channels)",
        snapshot.display(),
        ck.series.len(),
        ck.series.len() + ck.steps_remaining,
        ck.t,
        ck.series.channel_names().len(),
    );
    // a snapshot holds what a resume reads: one ψ-sized block + small change
    println!(
        "snapshot is {} B; ψ alone is 16·ng·nb = {} B",
        std::fs::metadata(&snapshot).map_or(0, |m| m.len()),
        16 * ck.psi.nrows() * ck.psi.ncols(),
    );
    println!(
        "sections: {}",
        SnapshotFile::open(&snapshot)?.section_names().join(" ")
    );

    // "job 2": resume and finish the trajectory
    // (`resume` preloads a builder: ψ, clock, dt, laser, remaining steps,
    // propagator and the recorded series; `build` checks it like any run)
    let merged = Simulation::resume(&sys, &snapshot)?.build()?.run()?;

    assert_eq!(merged.len(), uninterrupted.len());
    let mut checked = 0usize;
    for name in uninterrupted.channel_names() {
        let a = uninterrupted.channel(name).unwrap();
        let b = merged.channel(name).unwrap();
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "channel '{name}'[{i}]: {x:e} != {y:e}"
            );
            checked += 1;
        }
    }
    println!("kill/resume OK: {checked} samples bit-identical to the uninterrupted run");

    // export the merged record as run artifacts
    let table = merged.to_table()?;
    table.write_json(dir.join("series.json"))?;
    table.write_csv(dir.join("series.csv"))?;
    println!(
        "exported {} and series.csv",
        dir.join("series.json").display()
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
