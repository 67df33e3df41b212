//! The `pt-io` acceptance path: a run checkpointed at step k and resumed
//! produces a `TimeSeries` with `to_bits`-equal channels to the
//! uninterrupted 1 × 1 run — on every ranks × threads layout, and across
//! layouts (a snapshot is layout-free: the resumed run honours the layout
//! of the system it is resumed on) — and malformed snapshots surface as
//! typed `PtError`s, never panics.

use pwdft_rt::core::{latest_checkpoint, RunCheckpoint};
use pwdft_rt::mpi::rank_threads_spawned;
use pwdft_rt::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// `rank_threads_spawned` is process-global and the tests of this binary
/// run concurrently: every test that steps a `ranks > 1` layout holds this
/// lock, so the cross-layout test can assert exact spawn counts.
static RANK_TEAMS: Mutex<()> = Mutex::new(());

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pt_ckpt_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn assert_series_bits_eq(a: &TimeSeries, b: &TimeSeries) {
    assert_eq!(a.len(), b.len(), "step counts differ");
    assert_eq!(a.channel_names(), b.channel_names());
    for name in a.channel_names() {
        for (i, (x, y)) in a
            .channel(name)
            .unwrap()
            .iter()
            .zip(b.channel(name).unwrap())
            .enumerate()
        {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "channel '{name}'[{i}]: {x:e} != {y:e} (resume leaked into the numbers)"
            );
        }
    }
    for (i, (x, y)) in a.t.iter().zip(&b.t).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "t[{i}]");
    }
    for (i, (sa, sb)) in a.stats.iter().zip(&b.stats).enumerate() {
        assert_eq!(sa.scf_iterations, sb.scf_iterations, "stats[{i}]");
        assert_eq!(sa.h_applications, sb.h_applications, "stats[{i}]");
        assert_eq!(sa.rho_residual.to_bits(), sb.rho_residual.to_bits());
        assert_eq!(sa.converged, sb.converged);
    }
}

fn lda_system() -> KsSystem {
    KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
        .ecut(2.0)
        .xc(XcKind::Lda)
        .build()
        .unwrap()
}

fn laser() -> LaserPulse {
    LaserPulse::paper_380nm(0.02, attosecond_to_au(200.0), attosecond_to_au(100.0))
}

/// The 4-band HSE06 fixture under `mode` on `layout` (`None` = no layout:
/// inline on the surrounding pool).
fn hybrid_system(layout: Option<(usize, usize)>, mode: ExchangeMode) -> KsSystem {
    let mut b = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
        .ecut(2.0)
        .xc(XcKind::Pbe)
        .hybrid(HybridConfig::hse06())
        .occupations(vec![2.0; 4])
        .exchange_mode(mode);
    if let Some((ranks, threads)) = layout {
        b = b.distributed(DistributedConfig::new(ranks, threads));
    }
    b.build().unwrap()
}

/// A laser-driven run from `psi0`, optionally with per-step snapshots
/// into `ckpt_dir` (all of them kept).
fn run_steps(
    sys: &KsSystem,
    psi0: &pwdft_rt::linalg::CMat,
    steps: usize,
    ckpt_dir: Option<&Path>,
) -> TimeSeries {
    let mut b = SimulationBuilder::new(sys)
        .initial_orbitals(psi0.clone())
        .laser(laser())
        .dt(attosecond_to_au(25.0))
        .steps(steps)
        .standard_observers();
    if let Some(dir) = ckpt_dir {
        b = b.checkpoint_every(1, dir).checkpoint_keep(steps);
    }
    b.build().unwrap().run().unwrap()
}

fn resume_and_finish(sys: &KsSystem, snapshot: &Path) -> TimeSeries {
    Simulation::resume(sys, snapshot).unwrap().run().unwrap()
}

#[test]
fn killed_and_resumed_run_is_bit_identical_on_and_across_layouts() {
    let _teams = RANK_TEAMS.lock().unwrap_or_else(|e| e.into_inner());
    let plain = hybrid_system(None, ExchangeMode::Full);
    let gs = scf_loop(&plain, ScfOptions::default()).expect("SCF converges");
    let steps = 2usize;
    // the shared reference: the uninterrupted inline trajectory
    let uninterrupted = run_steps(&plain, &gs.orbitals, steps, None);
    assert_eq!(uninterrupted.propagator, "pt-cn");

    // a job kill at step k means the process vanishes and only the disk
    // state survives — here: the step-1 snapshot, mid-window
    let mut mids = Vec::new();
    for layout in [None, Some((2, 2))] {
        let sys = hybrid_system(layout, ExchangeMode::Full);
        let dir = tmp_dir(&format!("layout_{layout:?}").replace(['(', ')', ',', ' '], "_"));
        let checkpointed = run_steps(&sys, &gs.orbitals, steps, Some(&dir));
        assert_series_bits_eq(&uninterrupted, &checkpointed);
        let mid = dir.join("ckpt_00000001.ptio");
        let ck = RunCheckpoint::read(&mid).unwrap();
        assert_eq!((ck.series.len(), ck.steps_remaining), (1, 1));
        // hybrid snapshot carries Φ explicitly (Φ = Ψ in the PT gauge)
        let phi = ck.phi.as_ref().expect("hybrid snapshot records phi");
        assert_eq!((phi.nrows(), phi.ncols()), (ck.psi.nrows(), ck.psi.ncols()));
        let merged = resume_and_finish(&sys, &mid);
        assert_eq!(merged.propagator, "pt-cn");
        assert_series_bits_eq(&uninterrupted, &merged);
        // the final snapshot reports a finished window and resumes to a no-op
        let last = latest_checkpoint(&dir).unwrap().expect("snapshot written");
        let ck_last = RunCheckpoint::read(&last).unwrap();
        assert_eq!((ck_last.series.len(), ck_last.steps_remaining), (steps, 0));
        assert_series_bits_eq(&uninterrupted, &resume_and_finish(&sys, &last));
        mids.push((dir, mid));
    }

    // across layouts: the snapshot written at 2 × 2 finishes inline on the
    // plain system without spawning a single rank thread...
    let before = rank_threads_spawned();
    assert_series_bits_eq(&uninterrupted, &resume_and_finish(&plain, &mids[1].1));
    assert_eq!(rank_threads_spawned(), before, "one rank runs inline");
    // ...and the inline run's snapshot finishes on a 2 × 1 system's own
    // rank team: the resumed run honours the system's layout
    let two_by_one = hybrid_system(Some((2, 1)), ExchangeMode::Full);
    assert_series_bits_eq(&uninterrupted, &resume_and_finish(&two_by_one, &mids[0].1));
    assert_eq!(rank_threads_spawned() - before, 2, "one team of two ranks");
    for (dir, _) in mids {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn an_explicit_propagator_honours_the_systems_layout() {
    // which side of the ranks == 1 selection runs is decided by the system,
    // not by the propagator's type: a hand-built PtCnPropagator on a 2 × 1
    // system spawns its rank team
    let _teams = RANK_TEAMS.lock().unwrap_or_else(|e| e.into_inner());
    let sys = hybrid_system(Some((2, 1)), ExchangeMode::Full);
    let psi0 = pwdft_rt::linalg::CMat::rand_normalized(sys.grids.ng(), sys.n_bands(), 5);
    let before = rank_threads_spawned();
    let series = SimulationBuilder::new(&sys)
        .initial_orbitals(psi0)
        .dt(attosecond_to_au(25.0))
        .steps(1)
        .propagator(Box::new(PtCnPropagator::default()))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(series.propagator, "pt-cn");
    assert_eq!(rank_threads_spawned() - before, 2);
}

/// Craft a legacy snapshot from a current one: the same sections with
/// `prop/name` retagged as `tag`, plus one extra `u64` section.
fn craft_legacy(src: &Path, dst: &Path, tag: &str, extra: (&str, [u64; 3])) {
    let f = SnapshotFile::open(src).unwrap();
    let mut w = SnapshotWriter::create(dst);
    for name in f.section_names() {
        if name == "prop/name" {
            assert_eq!(f.str(name).unwrap(), "pt-cn");
            w.put_str(name, tag).unwrap();
        } else if let Ok(v) = f.u64s(name) {
            w.put_u64s(name, &v).unwrap();
        } else if let Ok(v) = f.f64s(name) {
            w.put_f64s(name, &v).unwrap();
        } else if let Ok(v) = f.str(name) {
            w.put_str(name, &v).unwrap();
        } else {
            w.put_cmat(name, &f.cmat(name).unwrap(), Wire::F64).unwrap();
        }
    }
    w.put_u64s(extra.0, &extra.1).unwrap();
    w.finish().unwrap();
}

#[test]
fn a_snapshot_tagged_pt_cn_dist_still_resumes() {
    let sys = lda_system();
    let gs = scf_loop(&sys, ScfOptions::default()).unwrap();
    let dir = tmp_dir("legacy_tag");
    let uninterrupted = run_steps(&sys, &gs.orbitals, 2, Some(&dir));
    // the former distributed propagator type's snapshot: tag
    // "pt-cn-dist" plus a `prop/dist` layout section
    let legacy = dir.join("legacy.ptio");
    craft_legacy(
        &dir.join("ckpt_00000001.ptio"),
        &legacy,
        "pt-cn-dist",
        ("prop/dist", [2, 2, 0]),
    );
    assert!(matches!(
        RunCheckpoint::read(&legacy).unwrap().propagator,
        PropagatorState::PtCn { .. }
    ));
    // the recorded 2 × 2 layout is ignored: this system has none
    let merged = resume_and_finish(&sys, &legacy);
    assert_eq!(merged.propagator, "pt-cn");
    assert_series_bits_eq(&uninterrupted, &merged);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn rolling_pruning_never_touches_another_runs_snapshots() {
    // a stale high-numbered snapshot from an earlier trajectory shares the
    // directory: the new run's rolling window must neither delete it nor
    // let it crowd out (i.e. cause deletion of) the new run's own files
    let sys = lda_system();
    let gs = scf_loop(&sys, ScfOptions::default()).unwrap();
    let dir = tmp_dir("stale");
    std::fs::create_dir_all(&dir).unwrap();
    let stale = dir.join("ckpt_99999999.ptio");
    std::fs::write(&stale, b"an earlier run's snapshot").unwrap();
    let mut sim = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .dt(attosecond_to_au(25.0))
        .steps(3)
        .standard_observers()
        .checkpoint_every(1, &dir)
        .checkpoint_keep(1)
        .build()
        .unwrap();
    sim.run().unwrap();
    assert!(stale.exists(), "stale snapshot was deleted");
    let own = dir.join("ckpt_00000003.ptio");
    assert!(
        own.exists(),
        "the run's own newest snapshot was pruned away"
    );
    assert!(
        !dir.join("ckpt_00000001.ptio").exists(),
        "keep=1 not applied"
    );
    // the surviving own snapshot resumes fine
    assert!(Simulation::resume(&sys, &own).is_ok());
    let _ = std::fs::remove_dir_all(dir);
}

/// Kill/resume **inside an ACE refresh window** (`refresh_interval: 3`,
/// snapshot after step 2 — the projector was built at step 1 and is not
/// due for rebuild until step 4). The snapshot carries the frozen ξ
/// verbatim; a resume that rebuilt it from the restored Ψ would produce a
/// different projector and bit-diverge from the uninterrupted run.
#[test]
fn ace_mid_refresh_window_resume_is_bit_identical_on_every_layout() {
    let _teams = RANK_TEAMS.lock().unwrap_or_else(|e| e.into_inner());
    let mode = ExchangeMode::Ace {
        refresh_interval: 3,
    };
    let plain = hybrid_system(None, mode);
    let gs = scf_loop(&plain, ScfOptions::default()).expect("SCF converges");
    let steps = 4usize;
    let uninterrupted = run_steps(&plain, &gs.orbitals, steps, None);

    for layout in [None, Some((2, 2))] {
        let sys = hybrid_system(layout, mode);
        let dir = tmp_dir(if layout.is_some() {
            "ace_2x2"
        } else {
            "ace_inline"
        });
        run_steps(&sys, &gs.orbitals, steps, Some(&dir));
        let mid = dir.join("ckpt_00000002.ptio");
        let ck = RunCheckpoint::read(&mid).unwrap();
        assert_eq!(ck.steps_remaining, 2);
        match &ck.propagator {
            PropagatorState::PtCn { ace, .. } => {
                let cap = ace.as_ref().expect("mid-window snapshot must carry ξ");
                assert_eq!(
                    cap.steps_since_refresh, 2,
                    "refresh at step 1, two steps propagated under the frozen ξ"
                );
                assert_eq!(cap.xi.nrows(), ck.psi.nrows());
            }
            other => panic!("expected PtCn state, got {other:?}"),
        }
        assert_series_bits_eq(&uninterrupted, &resume_and_finish(&sys, &mid));
        if layout.is_none() {
            legacy_exchange_pins_are_checked_never_followed(&mid);
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Snapshots of the former per-propagator exchange override carry a
/// `prop/exch = [tag, refresh interval, inner substeps]` section. The mode
/// now lives on the system only, so the pin is *checked* against the
/// system a snapshot is resumed on; the removed MTS mode (tag 2) is
/// refused by the reader.
fn legacy_exchange_pins_are_checked_never_followed(snapshot: &Path) {
    let crafted = snapshot.with_file_name("legacy_exch.ptio");
    craft_legacy(snapshot, &crafted, "pt-cn", ("prop/exch", [2, 2, 2]));
    match RunCheckpoint::read(&crafted) {
        Err(PtError::InvalidConfig(msg)) => assert!(msg.contains("AceMts"), "{msg}"),
        other => panic!("expected InvalidConfig naming AceMts, got {other:?}"),
    }
    craft_legacy(snapshot, &crafted, "pt-cn", ("prop/exch", [1, 2, 0]));
    let ace2 = hybrid_system(
        None,
        ExchangeMode::Ace {
            refresh_interval: 2,
        },
    );
    assert!(Simulation::resume(&ace2, &crafted).is_ok());
    match Simulation::resume(&hybrid_system(None, ExchangeMode::Full), &crafted) {
        Err(PtError::InvalidConfig(msg)) => assert!(msg.contains("exchange mode"), "{msg}"),
        Err(other) => panic!("expected InvalidConfig, got {other:?}"),
        Ok(_) => panic!("a snapshot pinned to Ace{{2}} silently resumed under Full"),
    }
}

#[test]
fn snapshot_from_a_different_system_shape_is_a_typed_error() {
    let sys = lda_system();
    let gs = scf_loop(&sys, ScfOptions::default()).unwrap();
    let dir = tmp_dir("shape");
    let mut sim = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .dt(attosecond_to_au(25.0))
        .steps(1)
        .standard_observers()
        .checkpoint_every(1, &dir)
        .build()
        .unwrap();
    sim.run().unwrap();
    let ckpt = latest_checkpoint(&dir).unwrap().unwrap();

    // same structure, different band count → signature mismatch
    let other = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
        .ecut(2.0)
        .xc(XcKind::Lda)
        .occupations(vec![2.0; 4])
        .build()
        .unwrap();
    assert_ne!(other.n_bands(), sys.n_bands());
    match Simulation::resume(&other, &ckpt) {
        Err(PtError::InvalidConfig(msg)) => {
            assert!(msg.contains("different system"), "{msg}")
        }
        Err(other) => panic!("expected InvalidConfig, got {other:?}"),
        Ok(_) => panic!("resume on a different system unexpectedly succeeded"),
    }

    // different cutoff → different plane-wave count → typed error too
    let coarser = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
        .ecut(3.0)
        .xc(XcKind::Lda)
        .occupations(vec![2.0; 4])
        .build()
        .unwrap();
    assert!(matches!(
        Simulation::resume(&coarser, &ckpt),
        Err(PtError::InvalidConfig(_))
    ));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn malformed_snapshots_never_panic() {
    let sys = lda_system();
    let gs = scf_loop(&sys, ScfOptions::default()).unwrap();
    let dir = tmp_dir("malformed");
    let mut sim = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .dt(attosecond_to_au(25.0))
        .steps(1)
        .standard_observers()
        .checkpoint_every(1, &dir)
        .build()
        .unwrap();
    sim.run().unwrap();
    let ckpt = latest_checkpoint(&dir).unwrap().unwrap();
    let good = std::fs::read(&ckpt).unwrap();

    // truncations at every interesting depth
    for keep in [0usize, 10, 23, good.len() / 2, good.len() - 1] {
        std::fs::write(&ckpt, &good[..keep]).unwrap();
        assert!(
            matches!(
                Simulation::resume(&sys, &ckpt),
                Err(PtError::SnapshotFormat { .. })
            ),
            "truncation to {keep} bytes"
        );
    }
    // corrupted payload byte → CRC failure
    let mut bad = good.clone();
    bad[40] ^= 0x80;
    std::fs::write(&ckpt, &bad).unwrap();
    match Simulation::resume(&sys, &ckpt) {
        Err(PtError::SnapshotFormat { reason, .. }) => {
            assert!(reason.contains("crc"), "{reason}")
        }
        Err(other) => panic!("expected SnapshotFormat, got {other:?}"),
        Ok(_) => panic!("corrupt snapshot unexpectedly resumed"),
    }
    // wrong format version
    let mut vbad = good.clone();
    vbad[8] = 0x7F;
    std::fs::write(&ckpt, &vbad).unwrap();
    match Simulation::resume(&sys, &ckpt) {
        Err(PtError::SnapshotFormat { reason, .. }) => {
            assert!(reason.contains("format version"), "{reason}")
        }
        Err(other) => panic!("expected SnapshotFormat, got {other:?}"),
        Ok(_) => panic!("wrong-version snapshot unexpectedly resumed"),
    }
    // not a snapshot at all
    std::fs::write(&ckpt, b"definitely not a snapshot").unwrap();
    assert!(matches!(
        Simulation::resume(&sys, &ckpt),
        Err(PtError::SnapshotFormat { .. })
    ));
    // missing file → Io
    assert!(matches!(
        Simulation::resume(&sys, dir.join("nope.ptio")),
        Err(PtError::Io { .. })
    ));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn f32_payload_snapshots_resume_close_but_not_bit_exact() {
    let sys = lda_system();
    let gs = scf_loop(&sys, ScfOptions::default()).unwrap();
    let steps = 2usize;
    let uninterrupted = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .laser(laser())
        .dt(attosecond_to_au(25.0))
        .steps(steps)
        .standard_observers()
        .build()
        .unwrap()
        .run()
        .unwrap();
    let dir = tmp_dir("f32");
    let mut sim = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .laser(laser())
        .dt(attosecond_to_au(25.0))
        .steps(steps)
        .standard_observers()
        .checkpoint_every(1, &dir)
        .checkpoint_wire(Wire::F32)
        .build()
        .unwrap();
    sim.run().unwrap();
    let mid = dir.join("ckpt_00000001.ptio");
    let mut resumed = Simulation::resume(&sys, &mid).unwrap();
    let merged = resumed.run().unwrap();
    // the ψ payload was quantized to f32: trajectories agree to ~1e-6
    // relative but NOT bit-exactly — the documented Wire::F32 caveat
    let a = uninterrupted.channel("energy").unwrap();
    let b = merged.channel("energy").unwrap();
    let last = a.len() - 1;
    assert!(
        (a[last] - b[last]).abs() <= 1e-5 * a[last].abs(),
        "{} vs {}",
        a[last],
        b[last]
    );
    assert_ne!(
        a[last].to_bits(),
        b[last].to_bits(),
        "f32 payload unexpectedly preserved the bits — wire mode not exercised?"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cancelled_then_resumed_run_is_bit_identical() {
    let sys = lda_system();
    let gs = scf_loop(&sys, ScfOptions::default()).unwrap();
    let steps = 4usize;
    let uninterrupted = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .laser(laser())
        .dt(attosecond_to_au(25.0))
        .steps(steps)
        .standard_observers()
        .build()
        .unwrap()
        .run()
        .unwrap();

    // trip the token from inside the step tap after the second step; the
    // rolling cadence (every 3) is deliberately unaligned with the cancel
    // point, so the boundary snapshot must come from the cancel path
    let dir = tmp_dir("cancel");
    let token = CancelToken::new();
    let tap_token = token.clone();
    let mut sim = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .laser(laser())
        .dt(attosecond_to_au(25.0))
        .steps(steps)
        .standard_observers()
        .checkpoint_every(3, &dir)
        .cancel_token(token.clone())
        .step_tap(move |u| {
            if u.step_index == 1 {
                tap_token.cancel();
            }
        })
        .build()
        .unwrap();
    match sim.run() {
        Err(PtError::Cancelled { completed_steps }) => assert_eq!(completed_steps, 2),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert!(token.is_cancelled());
    // the two committed steps survive for post-mortems
    let partial = sim.take_partial_series().expect("partial series kept");
    assert_eq!(partial.len(), 2);
    // and the cancel wrote a resumable boundary snapshot
    let boundary = RunCheckpoint::read(dir.join("ckpt_00000002.ptio")).unwrap();
    assert_eq!((boundary.series.len(), boundary.steps_remaining), (2, 2));
    assert!(boundary.phi.is_none(), "semi-local run must not store phi");
    let mut resumed = Simulation::resume_latest(&sys, &dir)
        .unwrap()
        .expect("cancel snapshot found");
    let merged = resumed.run().unwrap();
    assert_series_bits_eq(&uninterrupted, &merged);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn resume_latest_skips_corrupt_snapshots_in_favor_of_older_valid_ones() {
    let sys = lda_system();
    let gs = scf_loop(&sys, ScfOptions::default()).unwrap();
    let dir = tmp_dir("skipnewest");
    let mut sim = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .laser(laser())
        .dt(attosecond_to_au(25.0))
        .steps(3)
        .standard_observers()
        .checkpoint_every(1, &dir)
        .checkpoint_keep(3)
        .build()
        .unwrap();
    let uninterrupted = sim.run().unwrap();
    // corrupt the newest snapshot the way a kill -9 mid-write would:
    // truncate it — resume_latest must fall back to the step-2 snapshot
    // and still finish with identical bits
    let newest = dir.join("ckpt_00000003.ptio");
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &bytes[..bytes.len() / 3]).unwrap();
    let mut resumed = Simulation::resume_latest(&sys, &dir)
        .unwrap()
        .expect("older valid snapshot found");
    assert_eq!(
        resumed.restored_series().map(TimeSeries::len),
        Some(2),
        "should have fallen back to the step-2 snapshot"
    );
    let merged = resumed.run().unwrap();
    assert_series_bits_eq(&uninterrupted, &merged);
    // an empty dir resumes to None (fresh start), not an error
    let empty = tmp_dir("empty");
    std::fs::create_dir_all(&empty).unwrap();
    assert!(Simulation::resume_latest(&sys, &empty).unwrap().is_none());
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(empty);
}

#[test]
fn exported_series_tables_round_trip_through_json_and_csv() {
    let sys = lda_system();
    let gs = scf_loop(&sys, ScfOptions::default()).unwrap();
    let series = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .dt(attosecond_to_au(25.0))
        .steps(2)
        .standard_observers()
        .build()
        .unwrap()
        .run()
        .unwrap();
    let table = series.to_table().unwrap();
    assert_eq!(table.n_rows(), 2);
    let energy = table.get("energy").unwrap();
    assert_eq!(energy.len(), 2);
    let json = table.to_json();
    assert!(json.contains("\"propagator\": \"pt-cn\""), "{json}");
    assert!(json.contains("\"energy\""));
    let csv = table.to_csv();
    assert!(csv.lines().any(|l| l.contains("energy")));
    // JSON numbers parse back to the exact recorded bits
    let tail = json.split("\"t\": [").nth(1).unwrap();
    let first_t: f64 = tail
        .split([',', ']'])
        .next()
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert_eq!(first_t.to_bits(), series.t[0].to_bits());
}
