//! The `pt-io` acceptance path: a run checkpointed at step k and resumed
//! produces a `TimeSeries` with `to_bits`-equal channels to the
//! uninterrupted 1 × 1 run — on every ranks × threads layout, and across
//! layouts (a snapshot is layout-free: the resumed run honours the layout
//! of the system it is resumed on) — a snapshot holds exactly the sections
//! a resume reads (ψ-sized, not history-sized), files from before the
//! capture shrank still resume to the same bits, and malformed snapshots
//! surface as typed `PtError`s, never panics.

use pwdft_rt::core::checkpoint::checkpoint_path;
use pwdft_rt::core::{latest_checkpoint, RunCheckpoint};
use pwdft_rt::linalg::CMat;
use pwdft_rt::mpi::rank_threads_spawned;
use pwdft_rt::num::c64;
use pwdft_rt::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

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

/// Whether any recorded sample of the two series differs in any bit.
fn some_channel_bit_differs(a: &TimeSeries, b: &TimeSeries) -> bool {
    assert_eq!(a.channel_names(), b.channel_names());
    a.channel_names().into_iter().any(|name| {
        let (x, y) = (a.channel(name).unwrap(), b.channel(name).unwrap());
        x.iter().zip(y).any(|(p, q)| p.to_bits() != q.to_bits())
    })
}

fn lda_system() -> KsSystem {
    KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
        .ecut(2.0)
        .xc(XcKind::Lda)
        .build()
        .unwrap()
}

/// The LDA Si-8 ground state, converged once per test binary.
fn lda_ground_state() -> &'static ScfResult {
    static GS: OnceLock<ScfResult> = OnceLock::new();
    GS.get_or_init(|| scf_loop(&lda_system(), ScfOptions::default()).expect("SCF converges"))
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
        b = b.layout(RankLayout::new(ranks, threads));
    }
    b.build().unwrap()
}

/// The ground state of every [`hybrid_system`] (layout and exchange mode
/// do not enter the SCF), converged once per test binary.
fn hybrid_ground_state() -> &'static ScfResult {
    static GS: OnceLock<ScfResult> = OnceLock::new();
    GS.get_or_init(|| {
        let sys = hybrid_system(None, ExchangeMode::Full);
        scf_loop(&sys, ScfOptions::default()).expect("SCF converges")
    })
}

/// Refresh at step 1, not due again before step 3: the step-1 snapshot of
/// a run under this mode is mid-window.
const ACE2: ExchangeMode = ExchangeMode::Ace {
    refresh_interval: 2,
};

/// A laser-driven run from `psi0`, not yet built: 25 as steps.
fn laser_run<'a>(sys: &'a KsSystem, psi0: &CMat, steps: usize) -> SimulationBuilder<'a> {
    SimulationBuilder::new(sys)
        .initial_orbitals(psi0.clone())
        .laser(laser())
        .dt(attosecond_to_au(25.0))
        .steps(steps)
}

/// [`laser_run`] to the end, optionally with per-step snapshots into
/// `ckpt_dir` (all of them kept).
fn run_steps(sys: &KsSystem, psi0: &CMat, steps: usize, ckpt_dir: Option<&Path>) -> TimeSeries {
    let mut b = laser_run(sys, psi0, steps);
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
    let gs = hybrid_ground_state();
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
        // Φ = Ψ in the PT gauge: no snapshot stores it
        assert!(!SnapshotFile::open(&mid).unwrap().has("phi"));
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
    let psi0 = CMat::rand_normalized(sys.grids.ng(), sys.n_bands(), 5);
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

/// One section's payload, as the tests edit it.
enum Section {
    U64s(Vec<u64>),
    F64s(Vec<f64>),
    Str(String),
    Mat(CMat),
}

/// Re-write the snapshot `src` as `dst`: `edit` gets every section of
/// `src` by name and may drop, replace or add any. The result is a valid
/// container (fresh CRCs), so what a test provokes with it is a *schema*
/// defect or a legacy layout, never a checksum failure.
fn recraft(src: &Path, dst: &Path, edit: impl FnOnce(&mut BTreeMap<String, Section>)) {
    let f = SnapshotFile::open(src).unwrap();
    let mut sections: BTreeMap<String, Section> = f
        .section_names()
        .into_iter()
        .map(|name| {
            let payload = if let Ok(v) = f.u64s(name) {
                Section::U64s(v)
            } else if let Ok(v) = f.f64s(name) {
                Section::F64s(v)
            } else if let Ok(v) = f.str(name) {
                Section::Str(v)
            } else {
                Section::Mat(f.cmat(name).unwrap())
            };
            (name.to_string(), payload)
        })
        .collect();
    edit(&mut sections);
    let mut w = SnapshotWriter::create(dst);
    for (name, payload) in &sections {
        match payload {
            Section::U64s(v) => w.put_u64s(name, v),
            Section::F64s(v) => w.put_f64s(name, v),
            Section::Str(v) => w.put_str(name, v),
            Section::Mat(m) => w.put_cmat(name, m),
        }
        .unwrap();
    }
    w.finish().unwrap();
}

#[test]
fn a_snapshot_tagged_pt_cn_dist_still_resumes() {
    let sys = lda_system();
    let gs = lda_ground_state();
    let dir = tmp_dir("legacy_tag");
    let uninterrupted = run_steps(&sys, &gs.orbitals, 2, Some(&dir));
    // the former distributed propagator type's snapshot: tag
    // "pt-cn-dist" plus a `prop/dist` layout section
    let legacy = dir.join("legacy.ptio");
    recraft(&checkpoint_path(&dir, 1), &legacy, |s| {
        s.insert("prop/name".into(), Section::Str("pt-cn-dist".into()));
        s.insert("prop/dist".into(), Section::U64s(vec![2, 2, 0]));
    });
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

/// Every run records the same channels, so a run checkpointed from a
/// builder that names nothing but its inputs resumes from its step-1
/// snapshot to the uninterrupted run's bits.
#[test]
fn a_run_checkpointed_from_a_plain_builder_resumes_bit_identically() {
    let sys = lda_system();
    let gs = lda_ground_state();
    let dir = tmp_dir("plain_builder");
    let plain = || {
        SimulationBuilder::new(&sys)
            .initial_orbitals(gs.orbitals.clone())
            .laser(laser())
            .dt(attosecond_to_au(25.0))
            .steps(2)
    };
    let uninterrupted = plain().build().unwrap().run().unwrap();
    let checkpointed = plain()
        .checkpoint_every(1, &dir)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_series_bits_eq(&uninterrupted, &checkpointed);
    let merged = resume_and_finish(&sys, &checkpoint_path(&dir, 1));
    assert_series_bits_eq(&uninterrupted, &merged);
    assert_eq!(merged.channel("energy").map(<[f64]>::len), Some(2));
    let _ = std::fs::remove_dir_all(dir);
}

/// Resume checks the restored series up front: the record's channels, or
/// none at all for a series of zero steps — anything else is refused.
#[test]
fn resume_accepts_only_the_records_channels() {
    let sys = lda_system();
    let gs = lda_ground_state();
    let dir = tmp_dir("channels");
    let uninterrupted = run_steps(&sys, &gs.orbitals, 2, Some(&dir));
    // a cancel before the first step snapshots a series of zero steps
    let token = CancelToken::new();
    token.cancel();
    let mut sim = laser_run(&sys, &gs.orbitals, 2)
        .checkpoint_every(1, &dir)
        .cancel_token(token)
        .build()
        .unwrap();
    assert!(matches!(
        sim.run(),
        Err(PtError::Cancelled { completed_steps: 0 })
    ));
    let empty = checkpoint_path(&dir, 0);
    let ck = RunCheckpoint::read(&empty).unwrap();
    assert_eq!((ck.series.len(), ck.steps_remaining), (0, 2));
    assert_series_bits_eq(&uninterrupted, &resume_and_finish(&sys, &empty));
    // the step-1 snapshot, its series claiming another channel set
    let crafted = dir.join("crafted.ptio");
    recraft(&checkpoint_path(&dir, 1), &crafted, |s| {
        s.insert("series/channels".into(), Section::Str("probe".into()));
        s.insert("series/ch/probe".into(), Section::F64s(vec![0.0]));
    });
    match Simulation::resume(&sys, &crafted) {
        Err(PtError::InvalidConfig(msg)) => assert!(msg.contains("probe"), "{msg}"),
        Err(other) => panic!("expected InvalidConfig, got {other:?}"),
        Ok(_) => panic!("a series with foreign channels resumed"),
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Adding a section to the capture means editing this list — and saying
/// what `Simulation::resume` reads from it.
#[test]
fn a_fresh_snapshot_holds_exactly_the_sections_resume_reads() {
    let common = ["laser", "occ", "psi", "sig", "steps", "time"];
    let ptcn = ["prop/name", "prop/ptcn_f", "prop/ptcn_u"];
    let ptcn_ace = [&ptcn[..], &["prop/ace", "prop/ace_xi"]].concat();
    let rk4 = ["prop/name", "prop/rk4"];
    let per_series = ["a", "channels", "propagator", "stats", "stats_resid", "t"];
    let check = |tag: &str, sys: &KsSystem, gs: &ScfResult, prop_sections: &[&str]| {
        let dir = tmp_dir(&format!("sections_{tag}"));
        let propagator: Box<dyn Propagator> = if prop_sections.contains(&"prop/rk4") {
            Box::<Rk4Propagator>::default()
        } else {
            Box::<PtCnPropagator>::default()
        };
        let series = laser_run(sys, &gs.orbitals, 1)
            .propagator(propagator)
            .checkpoint_every(1, &dir)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let mut want: Vec<String> = common
            .iter()
            .chain(prop_sections)
            .map(|n| n.to_string())
            .chain(per_series.iter().map(|n| format!("series/{n}")))
            .chain(
                series
                    .channel_names()
                    .iter()
                    .map(|c| format!("series/ch/{c}")),
            )
            .collect();
        want.sort_unstable();
        let snapshot = SnapshotFile::open(checkpoint_path(&dir, 1)).unwrap();
        assert_eq!(snapshot.section_names(), want, "{tag}: the capture changed");
        let _ = std::fs::remove_dir_all(dir);
    };
    let (hybrid_gs, lda_gs) = (hybrid_ground_state(), lda_ground_state());
    check(
        "full",
        &hybrid_system(None, ExchangeMode::Full),
        hybrid_gs,
        &ptcn,
    );
    check("ace2", &hybrid_system(None, ACE2), hybrid_gs, &ptcn_ace);
    check("lda", &lda_system(), lda_gs, &ptcn);
    check("rk4", &lda_system(), lda_gs, &rk4);
}

/// A snapshot is one ψ-sized block (two under ACE: ξ), the series, and a
/// couple of KiB of headers and options — whatever the fixed point did.
#[test]
fn snapshot_size_is_psi_plus_small_change() {
    let size = |p: PathBuf| std::fs::metadata(p).unwrap().len();
    let hybrid_gs = &hybrid_ground_state().orbitals;
    let lda_gs = &lda_ground_state().orbitals;
    for (tag, sys, psi0, blocks) in [
        (
            "full",
            hybrid_system(None, ExchangeMode::Full),
            hybrid_gs,
            1,
        ),
        ("ace2", hybrid_system(None, ACE2), hybrid_gs, 2),
        ("lda", lda_system(), lda_gs, 1),
    ] {
        let dir = tmp_dir(&format!("size_{tag}"));
        let series = run_steps(&sys, psi0, 2, Some(&dir));
        let per_step = 8 * (series.channel_names().len() + 8);
        for step in [1, 2] {
            let max = 16 * sys.grids.ng() * sys.n_bands() * blocks + per_step * step + 2048;
            let got = size(checkpoint_path(&dir, step));
            assert!(got <= max as u64, "{tag} step {step}: {got} B > {max} B");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    // two runs that differ only in how many fixed-point iterations their
    // last step took write the same number of bytes: nothing in a snapshot
    // scales with the Anderson history
    let sys = lda_system();
    let [few, many] = [3usize, 40].map(|max_scf| {
        let dir = tmp_dir(&format!("size_scf{max_scf}"));
        let opts = PtCnOptions {
            max_scf,
            ..PtCnOptions::default()
        };
        let series = laser_run(&sys, lda_gs, 1)
            .propagator(Box::new(PtCnPropagator::new(opts)))
            .checkpoint_every(1, &dir)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let bytes = size(checkpoint_path(&dir, 1));
        let _ = std::fs::remove_dir_all(dir);
        (series.stats[0].scf_iterations, bytes)
    });
    assert!(
        few.0 < many.0,
        "max_scf did not cut the fixed point short: {few:?} vs {many:?}"
    );
    assert_eq!(few.1, many.1, "{few:?} vs {many:?}");
}

/// The flip side of the allow-list: the two orbital-sized sections a
/// snapshot does carry are read — drop one and resume refuses, nudge one
/// coefficient and the continued trajectory moves.
#[test]
fn the_orbital_sized_sections_are_live() {
    let sys = hybrid_system(None, ACE2);
    let dir = tmp_dir("live");
    // step 2 runs under the ξ frozen at step 1
    let uninterrupted = run_steps(&sys, &hybrid_ground_state().orbitals, 2, Some(&dir));
    let crafted = dir.join("crafted.ptio");
    for name in ["psi", "prop/ace_xi"] {
        recraft(&checkpoint_path(&dir, 1), &crafted, |s| {
            s.remove(name);
        });
        assert!(
            matches!(
                Simulation::resume(&sys, &crafted),
                Err(PtError::SnapshotFormat { .. })
            ),
            "a snapshot without '{name}' resumed"
        );
        recraft(&checkpoint_path(&dir, 1), &crafted, |s| {
            match s.get_mut(name) {
                Some(Section::Mat(m)) => m[(0, 0)] += c64::real(1e-6),
                _ => panic!("'{name}' is not a matrix section"),
            }
        });
        assert!(
            some_channel_bit_differs(&uninterrupted, &resume_and_finish(&sys, &crafted)),
            "perturbing '{name}' left the continued trajectory unchanged: is it still read?"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Snapshots written before the capture shrank also carry `phi` (= ψ),
/// `rho` and the Anderson history of the last fixed point —
/// `prop/anderson/{meta,beta,xs,fs}`: `[n_bands, depth, hist, ng]`, `[β]`
/// and two `ng × n_bands·hist` matrices. The reader takes the sections it
/// needs by name and ignores those.
#[test]
fn a_snapshot_from_before_the_shrink_still_resumes() {
    let _teams = RANK_TEAMS.lock().unwrap_or_else(|e| e.into_inner());
    let plain = hybrid_system(None, ExchangeMode::Full);
    let dir = tmp_dir("pre_shrink");
    let uninterrupted = run_steps(&plain, &hybrid_ground_state().orbitals, 2, Some(&dir));
    let legacy = dir.join("legacy.ptio");
    recraft(&checkpoint_path(&dir, 1), &legacy, |s| {
        let Some(Section::Mat(psi)) = s.get("psi") else {
            panic!("'psi' is not a matrix section");
        };
        let (psi, hist) = (psi.clone(), 3);
        let history = CMat::from_fn(psi.nrows(), psi.ncols() * hist, |i, j| psi[(i, j / hist)]);
        let meta = [psi.ncols(), 20, hist, psi.nrows()].map(|v| v as u64);
        s.insert("rho".into(), Section::F64s(plain.density(&psi)));
        s.insert("prop/anderson/meta".into(), Section::U64s(meta.to_vec()));
        s.insert("prop/anderson/beta".into(), Section::F64s(vec![1.0]));
        s.insert("prop/anderson/xs".into(), Section::Mat(history.clone()));
        s.insert("prop/anderson/fs".into(), Section::Mat(history));
        s.insert("phi".into(), Section::Mat(psi));
    });
    for layout in [None, Some((2, 2))] {
        let sys = hybrid_system(layout, ExchangeMode::Full);
        assert_series_bits_eq(&uninterrupted, &resume_and_finish(&sys, &legacy));
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn rolling_pruning_never_touches_another_runs_snapshots() {
    // a stale high-numbered snapshot from an earlier trajectory shares the
    // directory: the new run's rolling window must neither delete it nor
    // let it crowd out (i.e. cause deletion of) the new run's own files
    let sys = lda_system();
    let gs = lda_ground_state();
    let dir = tmp_dir("stale");
    std::fs::create_dir_all(&dir).unwrap();
    let stale = dir.join("ckpt_99999999.ptio");
    std::fs::write(&stale, b"an earlier run's snapshot").unwrap();
    let mut sim = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .dt(attosecond_to_au(25.0))
        .steps(3)
        .checkpoint_every(1, &dir)
        .checkpoint_keep(1)
        .build()
        .unwrap();
    sim.run().unwrap();
    assert!(stale.exists(), "stale snapshot was deleted");
    let own = checkpoint_path(&dir, 3);
    assert!(
        own.exists(),
        "the run's own newest snapshot was pruned away"
    );
    assert!(!checkpoint_path(&dir, 1).exists(), "keep=1 not applied");
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
    let gs = hybrid_ground_state();
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
        let mid = checkpoint_path(&dir, 2);
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
    let pin = |exch: [u64; 3]| {
        recraft(snapshot, &crafted, |s| {
            s.insert("prop/exch".into(), Section::U64s(exch.to_vec()));
        })
    };
    pin([2, 2, 2]);
    match RunCheckpoint::read(&crafted) {
        Err(PtError::InvalidConfig(msg)) => assert!(msg.contains("AceMts"), "{msg}"),
        other => panic!("expected InvalidConfig naming AceMts, got {other:?}"),
    }
    pin([1, 2, 0]);
    assert!(Simulation::resume(&hybrid_system(None, ACE2), &crafted).is_ok());
    match Simulation::resume(&hybrid_system(None, ExchangeMode::Full), &crafted) {
        Err(PtError::InvalidConfig(msg)) => assert!(msg.contains("exchange mode"), "{msg}"),
        Err(other) => panic!("expected InvalidConfig, got {other:?}"),
        Ok(_) => panic!("a snapshot pinned to Ace{{2}} silently resumed under Full"),
    }
}

#[test]
fn snapshot_from_a_different_system_shape_is_a_typed_error() {
    let sys = lda_system();
    let gs = lda_ground_state();
    let dir = tmp_dir("shape");
    let mut sim = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .dt(attosecond_to_au(25.0))
        .steps(1)
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
    let gs = lda_ground_state();
    let dir = tmp_dir("malformed");
    let mut sim = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .dt(attosecond_to_au(25.0))
        .steps(1)
        .checkpoint_every(1, &dir)
        .build()
        .unwrap();
    sim.run().unwrap();
    let ckpt = latest_checkpoint(&dir).unwrap().unwrap();
    let good = std::fs::read(&ckpt).unwrap();

    // a CRC-valid file is still outside input: a step size or a clock the
    // builder would refuse is refused here too, never stepped with
    let crafted = dir.join("crafted.ptio");
    let (t, dt) = (sim.state().t, sim.dt());
    for time in [[t, f64::NAN], [t, 0.0], [t, -dt], [f64::INFINITY, dt]] {
        recraft(&ckpt, &crafted, |s| {
            s.insert("time".into(), Section::F64s(time.to_vec()));
        });
        assert!(
            matches!(
                Simulation::resume(&sys, &crafted),
                Err(PtError::SnapshotFormat { .. })
            ),
            "time = {time:?}"
        );
    }
    // ...and so is a pulse the builder would refuse: σ = 0 makes A(t₀) a
    // 0/0 NaN, a NaN amplitude poisons every H application. The same
    // section with the builder's pulse resumes.
    let section = |p: LaserPulse| {
        let [px, py, pz] = p.polarization;
        Section::F64s(vec![p.a0, p.omega, p.t0, p.sigma, px, py, pz])
    };
    let pulse = laser();
    recraft(&ckpt, &crafted, |s| {
        s.insert("laser".into(), section(pulse));
    });
    assert!(Simulation::resume(&sys, &crafted).is_ok());
    for bad in [
        LaserPulse {
            sigma: 0.0,
            ..pulse
        },
        LaserPulse {
            a0: f64::NAN,
            ..pulse
        },
    ] {
        recraft(&ckpt, &crafted, |s| {
            s.insert("laser".into(), section(bad));
        });
        assert!(
            matches!(
                Simulation::resume(&sys, &crafted),
                Err(PtError::SnapshotFormat { .. })
            ),
            "laser = {bad:?}"
        );
    }
    // ...and so are PT-CN options the first step would refuse: a NaN
    // tolerance, a mixer that mixes nothing in, no fixed-point iteration
    let options = |f: [f64; 2], u: [u64; 3]| {
        move |s: &mut BTreeMap<String, Section>| {
            s.insert("prop/ptcn_f".into(), Section::F64s(f.to_vec()));
            s.insert("prop/ptcn_u".into(), Section::U64s(u.to_vec()));
        }
    };
    let defaults = PtCnOptions::default();
    let (f_ok, u_ok) = (
        [defaults.rho_tol, defaults.beta],
        [defaults.max_scf as u64, defaults.anderson_depth as u64, 0],
    );
    recraft(&ckpt, &crafted, options(f_ok, u_ok));
    assert!(Simulation::resume(&sys, &crafted).is_ok());
    let never_step = [
        ([f64::NAN, f_ok[1]], u_ok),
        ([f_ok[0], 0.0], u_ok),
        (f_ok, [0, u_ok[1], 0]),
    ];
    for (f, u) in never_step {
        recraft(&ckpt, &crafted, options(f, u));
        assert!(
            matches!(
                Simulation::resume(&sys, &crafted),
                Err(PtError::SnapshotFormat { .. })
            ),
            "prop/ptcn_f = {f:?}, prop/ptcn_u = {u:?}"
        );
    }
    // the newest snapshot of a directory carrying such options is skipped
    // for the older valid one, not resumed into a first-step failure
    let fallback = dir.join("fallback");
    std::fs::create_dir_all(&fallback).unwrap();
    std::fs::copy(&ckpt, checkpoint_path(&fallback, 1)).unwrap();
    recraft(&ckpt, &checkpoint_path(&fallback, 2), |s| {
        options(never_step[1].0, never_step[1].1)(s);
        s.insert("time".into(), Section::F64s(vec![t + dt, dt]));
    });
    let resumed = Simulation::resume_latest(&sys, &fallback)
        .unwrap()
        .expect("the older valid snapshot");
    assert_eq!(
        resumed.state().t.to_bits(),
        t.to_bits(),
        "resumed the newest"
    );
    std::fs::remove_file(&crafted).unwrap();

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

/// Byte offset of the kind tag of section `name` in the container
/// `bytes`, found by walking the section table.
fn kind_byte_of(bytes: &[u8], name: &str) -> usize {
    let word = |at: usize, n: usize| {
        let mut le = [0u8; 8];
        le[..n].copy_from_slice(&bytes[at..at + n]);
        u64::from_le_bytes(le) as usize
    };
    let (n_sections, mut at) = (word(12, 4), word(16, 8));
    for _ in 0..n_sections {
        let len = word(at, 2);
        let kind = at + 2 + len;
        if &bytes[at + 2..kind] == name.as_bytes() {
            return kind;
        }
        // kind, payload offset and length, CRC
        at = kind + 1 + 8 + 8 + 4;
    }
    panic!("no section '{name}'");
}

#[test]
fn an_f32_payload_snapshot_is_refused_with_a_typed_error() {
    // kind 5 was the retired single-precision matrix payload: a snapshot
    // whose ψ carries it can never resume bit-exactly, so the reader
    // refuses it by name instead of widening it
    let sys = lda_system();
    let gs = lda_ground_state();
    let dir = tmp_dir("f32");
    run_steps(&sys, &gs.orbitals, 1, Some(&dir));
    let mut bytes = std::fs::read(checkpoint_path(&dir, 1)).unwrap();
    let at = kind_byte_of(&bytes, "psi");
    assert_eq!(bytes[at], 4, "a fresh ψ is an f64 matrix");
    bytes[at] = 5;
    let retired = dir.join("psi_kind5.ptio");
    std::fs::write(&retired, &bytes).unwrap();
    match Simulation::resume(&sys, &retired) {
        Err(PtError::SnapshotFormat { reason, .. }) => assert!(
            reason.contains("'psi'") && reason.contains("retired f32"),
            "{reason}"
        ),
        Err(other) => panic!("expected SnapshotFormat, got {other:?}"),
        Ok(_) => panic!("an f32 ψ unexpectedly resumed"),
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cancelled_then_resumed_run_is_bit_identical() {
    let sys = lda_system();
    let gs = lda_ground_state();
    let steps = 4usize;
    let uninterrupted = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .laser(laser())
        .dt(attosecond_to_au(25.0))
        .steps(steps)
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
    let boundary = RunCheckpoint::read(checkpoint_path(&dir, 2)).unwrap();
    assert_eq!((boundary.series.len(), boundary.steps_remaining), (2, 2));
    assert!(!SnapshotFile::open(checkpoint_path(&dir, 2))
        .unwrap()
        .has("phi"));
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
    let gs = lda_ground_state();
    let dir = tmp_dir("skipnewest");
    let mut sim = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .laser(laser())
        .dt(attosecond_to_au(25.0))
        .steps(3)
        .checkpoint_every(1, &dir)
        .checkpoint_keep(3)
        .build()
        .unwrap();
    let uninterrupted = sim.run().unwrap();
    // corrupt the newest snapshot the way a kill -9 mid-write would:
    // truncate it — resume_latest must fall back to the step-2 snapshot
    // and still finish with identical bits
    let newest = checkpoint_path(&dir, 3);
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
    let gs = lda_ground_state();
    let series = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .dt(attosecond_to_au(25.0))
        .steps(2)
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
