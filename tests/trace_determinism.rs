//! Tracing is observability, not physics: arming pt-trace must not move
//! a single bit of any result, on any `ranks × threads` layout.
//!
//! Two contracts are pinned here:
//!
//! * **Neutrality.** A hybrid PT-CN run produces *identical bits* with
//!   tracing on and off, across the {1,2} ranks × {1,4} threads grid.
//!   The off-mode reference is the 1 × 1 layout; every traced layout is
//!   compared against it, so one pass covers both tracing-neutrality and
//!   layout-invariance. (Span timestamps live only in `StepStats.phases`
//!   and the trace buffer — neither is a bit-compared surface.)
//! * **Counter exactness.** The counters are operation counts, not
//!   samples. Every committed state's exact exchange block `V_X[Ψ]Ψ` is
//!   made once: the step record reads it from `KsSystem::exchange_block`,
//!   and the next step's first exact exchange on the same Ψ (the half
//!   step's `HΨ_n`, or ξ_n on a refresh) is handed that block back. An ACE
//!   stale-window step freezes the projector and runs *zero* pair FFTs
//!   (see `ace_ptcn_step`), so between refreshes the per-step `PairFfts`
//!   delta is exactly the record's block — N(N+1)/2 solves — and on a
//!   refresh step one block per projector round, plus Ψ_0's on step 1;
//!   `AceRefreshRounds` must be 0 between refreshes and positive on every
//!   refresh step, where the half step's `HΨ` runs once however many
//!   rounds there are. On a `ranks > 1` layout the rank engine runs one
//!   job per exact exchange block and nothing else: the local `HΨ`, the
//!   ACE projector apply and the PT residual are driver algebra, so
//!   `EngineJobs` moves by exactly the step's `h_applications` under
//!   `Full` (plus Ψ_0's block on step 1), its refresh rounds on an ACE
//!   refresh step (plus ξ_0 on step 1) and the record's one block on a
//!   stale step.
//! * **SCF phase spans.** Each ground-state iteration records one
//!   `scf_hamiltonian`, `scf_davidson`, `scf_density` and (unless it
//!   converged) `scf_mix` span, and a traced `scf_loop` returns the
//!   untraced result bit for bit.

use pwdft_rt::prelude::*;
use pwdft_rt::trace;
use std::sync::{Arc, Mutex};

/// pt-trace's armed flag and counters are process-global; the tests in
/// this binary toggle them, so they take this gate to run one at a time.
static TRACE_GATE: Mutex<()> = Mutex::new(());

/// Ground state + 2 PT-CN steps of laser-driven hybrid (HSE06) silicon
/// on a `ranks × threads` layout through the public builders.
fn hybrid_layout_run(ranks: usize, threads: usize) -> TimeSeries {
    let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
        .ecut(2.0)
        .xc(XcKind::Pbe)
        .hybrid(HybridConfig::hse06())
        .occupations(vec![2.0; 4])
        .layout(RankLayout::new(ranks, threads))
        .build()
        .expect("valid distributed system");
    let gs = scf_loop(&sys, ScfOptions::default()).expect("SCF converges");
    let mut sim = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .laser(LaserPulse::paper_380nm(
            0.02,
            attosecond_to_au(200.0),
            attosecond_to_au(100.0),
        ))
        .dt(attosecond_to_au(25.0))
        .steps(2)
        .build()
        .expect("valid simulation");
    sim.run().expect("propagation succeeds")
}

/// What a step tap records per committed step: two trace-counter deltas,
/// then the step's `h_applications` and `scf_iterations`.
type StepRow = (u64, u64, usize, usize);

fn assert_series_bits_eq(label: &str, a: &TimeSeries, b: &TimeSeries) {
    assert_eq!(a.len(), b.len(), "{label}: step count");
    assert_eq!(a.channel_names(), b.channel_names(), "{label}: channels");
    for name in a.channel_names() {
        let (xa, xb) = (a.channel(name).unwrap(), b.channel(name).unwrap());
        for (i, (x, y)) in xa.iter().zip(xb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: {name}[{i}]: {x:e} != {y:e} (tracing moved the numbers)"
            );
        }
    }
    for (i, (x, y)) in a.t.iter().zip(&b.t).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: t[{i}]");
    }
    for (i, (sa, sb)) in a.stats.iter().zip(&b.stats).enumerate() {
        assert_eq!(
            sa.scf_iterations, sb.scf_iterations,
            "{label}: step {i} inner iterations"
        );
        assert_eq!(
            sa.h_applications, sb.h_applications,
            "{label}: step {i} H applications"
        );
        assert_eq!(
            sa.rho_residual.to_bits(),
            sb.rho_residual.to_bits(),
            "{label}: step {i} residual"
        );
    }
}

#[test]
fn tracing_on_is_bit_identical_to_off_across_the_layout_grid() {
    let _gate = TRACE_GATE.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_enabled(false);
    let reference = hybrid_layout_run(1, 1);

    trace::set_enabled(true);
    let mark = trace::mark();
    for ranks in [1usize, 2] {
        for threads in [1usize, 4] {
            let ts = hybrid_layout_run(ranks, threads);
            assert_series_bits_eq(&format!("traced {ranks}x{threads}"), &reference, &ts);
        }
    }
    // and the instrumentation really was live while those bits came out
    let counted = trace::counters_since(&mark);
    assert!(
        counted.get(trace::Counter::PairFfts) > 0,
        "no pair FFTs counted"
    );
    assert!(
        counted.get(trace::Counter::StepsCommitted) >= 8,
        "steps not counted"
    );
    trace::set_enabled(false);
}

/// Per-step counter deltas through the step tap: with
/// `Ace { refresh_interval: 3 }` the projector is rebuilt on steps 1 and
/// 4 (the slot starts empty; a refresh resets `steps_since_refresh` to 1)
/// and frozen in between — so on the stale-window steps 2, 3 and 5 the
/// propagator runs *zero* pair solves and the only ones left are the
/// record's exchange block, one per unordered band pair. A refresh step
/// runs one block per round: ξ_n reads the previous record's block, each
/// later round's ξ_f and the record are computed, and step 1's ξ_0 has
/// no record before it.
#[test]
fn ace_stale_window_steps_record_exactly_zero_pair_ffts() {
    let _gate = TRACE_GATE.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_enabled(true);

    let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
        .ecut(2.0)
        .xc(XcKind::Pbe)
        .hybrid(HybridConfig::hse06())
        .occupations(vec![2.0; 4])
        .exchange_mode(ExchangeMode::Ace {
            refresh_interval: 3,
        })
        .layout(RankLayout::new(1, 1))
        .build()
        .expect("valid ACE system");
    let gs = scf_loop(&sys, ScfOptions::default()).expect("SCF converges");

    // (pair_ffts, ace_refresh_rounds) deltas plus (h_applications,
    // scf_iterations) at every committed step; `build()` moves neither
    // counter, so the first delta is the first step's
    let deltas: Arc<Mutex<Vec<StepRow>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&deltas);
    let mut last = (
        trace::counter_value(trace::Counter::PairFfts),
        trace::counter_value(trace::Counter::AceRefreshRounds),
    );
    let mut sim = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .laser(LaserPulse::paper_380nm(
            0.02,
            attosecond_to_au(200.0),
            attosecond_to_au(100.0),
        ))
        .dt(attosecond_to_au(25.0))
        .steps(5)
        .step_tap(move |update| {
            let now = (
                trace::counter_value(trace::Counter::PairFfts),
                trace::counter_value(trace::Counter::AceRefreshRounds),
            );
            sink.lock().unwrap().push((
                now.0 - last.0,
                now.1 - last.1,
                update.stats.h_applications,
                update.stats.scf_iterations,
            ));
            last = now;
        })
        .build()
        .expect("valid simulation");
    sim.run().expect("ACE propagation succeeds");
    trace::set_enabled(false);

    let deltas = deltas.lock().unwrap_or_else(|e| e.into_inner()).clone();
    assert_eq!(deltas.len(), 5, "tap fired once per committed step");
    let n = sys.n_bands() as u64;
    let record_solves = n * (n + 1) / 2;
    assert_eq!(record_solves, 10);
    for (i, &(pair_ffts, refresh_rounds, h_applications, iterations)) in deltas.iter().enumerate() {
        // 0-based: refresh when i % 3 == 0 (steps 1 and 4), stale otherwise
        if i % 3 == 0 {
            assert_eq!(
                pair_ffts,
                (refresh_rounds + u64::from(i == 0)) * record_solves,
                "step {}: a refresh step runs one exchange block per projector \
                 round ({refresh_rounds}), plus Ψ_0's on step 1",
                i + 1
            );
            // round 1 has no previous round to measure a drift against,
            // so a refresh always runs a second
            assert!(
                refresh_rounds >= 2,
                "step {}: refresh step ran {refresh_rounds} projector rounds",
                i + 1
            );
            // the t_n half step runs once per step; the rounds re-solve
            // only the fixed point
            assert_eq!(
                h_applications,
                iterations + 1,
                "step {}: {h_applications} HΨ for {iterations} fixed-point \
                 iterations over {refresh_rounds} rounds",
                i + 1
            );
        } else {
            assert_eq!(
                pair_ffts,
                record_solves,
                "step {}: stale-window step ran pair FFTs beyond the record's \
                 exchange block — the frozen projector contract is broken",
                i + 1
            );
            assert_eq!(
                refresh_rounds,
                0,
                "step {}: stale-window step ran refresh rounds",
                i + 1
            );
        }
    }
}

/// One engine job per exact exchange block: the 4-band HSE fixture on a
/// 2 × 1 layout sends the rank team its `V_X[Φ]Φ` blocks and nothing else —
/// the local `HΨ`, the ACE projector apply and the fixed-point residual run
/// on the driver. Under `Full` every `HΨ` holds one block, but the half
/// step's `HΨ_n` is handed back the block the previous step's record made
/// for the same Ψ, so a step's `EngineJobs` delta equals its
/// `h_applications` (the record's block in place of `HΨ_n`'s), plus Ψ_0's
/// block on step 1. Under `Ace { refresh_interval: 2 }` a refresh step
/// runs one block per projector round (ξ_n read back, the later rounds'
/// ξ_f and the record computed; ξ_0 too on step 1) and a stale step the
/// record's one.
#[test]
fn a_ranked_step_runs_one_engine_job_per_exact_exchange_block() {
    let _gate = TRACE_GATE.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_enabled(true);

    for mode in [
        ExchangeMode::Full,
        ExchangeMode::Ace {
            refresh_interval: 2,
        },
    ] {
        let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(XcKind::Pbe)
            .hybrid(HybridConfig::hse06())
            .occupations(vec![2.0; 4])
            .exchange_mode(mode)
            .layout(RankLayout::new(2, 1))
            .build()
            .expect("valid distributed system");
        let gs = scf_loop(&sys, ScfOptions::default()).expect("SCF converges");

        // (engine jobs, refresh rounds, h_applications, fixed-point
        // iterations) per step; `build()` moves neither counter
        let steps: Arc<Mutex<Vec<StepRow>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&steps);
        let counts = || {
            (
                trace::counter_value(trace::Counter::EngineJobs),
                trace::counter_value(trace::Counter::AceRefreshRounds),
            )
        };
        let mut last = counts();
        let mut sim = SimulationBuilder::new(&sys)
            .initial_orbitals(gs.orbitals.clone())
            .laser(LaserPulse::paper_380nm(
                0.02,
                attosecond_to_au(200.0),
                attosecond_to_au(100.0),
            ))
            .dt(attosecond_to_au(25.0))
            .steps(3)
            .step_tap(move |update| {
                let now = counts();
                let stats = update.stats;
                sink.lock().unwrap().push((
                    now.0 - last.0,
                    now.1 - last.1,
                    stats.h_applications,
                    stats.scf_iterations,
                ));
                last = now;
            })
            .build()
            .expect("valid simulation");
        sim.run().expect("propagation succeeds");

        let steps = steps.lock().unwrap_or_else(|e| e.into_inner()).clone();
        assert_eq!(
            steps.len(),
            3,
            "{mode:?}: tap fired once per committed step"
        );
        for (i, &(jobs, rounds, h_applications, iterations)) in steps.iter().enumerate() {
            assert!(
                iterations > 0,
                "{mode:?} step {}: no fixed-point iteration",
                i + 1
            );
            // Ace{2} refreshes on steps 1 and 3 (0-based 0 and 2)
            let refresh = matches!(mode, ExchangeMode::Ace { .. }) && i % 2 == 0;
            assert_eq!(rounds > 0, refresh, "{mode:?} step {}: rounds", i + 1);
            let first = u64::from(i == 0);
            let blocks = match mode {
                ExchangeMode::Full => h_applications as u64 + first,
                ExchangeMode::Ace { .. } if refresh => rounds + first,
                ExchangeMode::Ace { .. } => 1,
            };
            assert_eq!(
                jobs,
                blocks,
                "{mode:?} step {}: {jobs} engine jobs for {h_applications} HΨ, \
                 {rounds} ACE builds and {iterations} fixed-point iterations — \
                 the rank team ran more than the exact exchange blocks",
                i + 1
            );
        }
    }
    trace::set_enabled(false);
}

/// The ground-state set-up is attributed by phase: a traced hybrid
/// `scf_loop` (semi-local bootstrap plus the frozen-Φ solve) returns the
/// untraced `ScfResult` to the bit, and its Chrome trace holds one
/// `scf_davidson` span per counted SCF iteration, beside the other three
/// phases — `scf_mix` on every iteration but a converged one.
#[test]
fn a_traced_scf_is_bit_identical_and_spans_every_iteration_phase() {
    let _gate = TRACE_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
        .ecut(2.0)
        .xc(XcKind::Pbe)
        .hybrid(HybridConfig::hse06())
        .occupations(vec![2.0; 4])
        .build()
        .expect("valid hybrid system");
    trace::set_enabled(false);
    let untraced = scf_loop(&sys, ScfOptions::default()).expect("SCF converges");

    trace::set_enabled(true);
    let dropped = trace::dropped_events();
    let mark = trace::mark();
    let traced = scf_loop(&sys, ScfOptions::default()).expect("SCF converges");
    let iterations = trace::counters_since(&mark).get(trace::Counter::ScfIterations);
    let chrome = trace::chrome_trace_since(&mark);
    trace::set_enabled(false);
    assert_eq!(
        trace::dropped_events(),
        dropped,
        "the trace buffer overflowed"
    );

    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let cbits = |m: &pwdft_rt::linalg::CMat| {
        m.data()
            .iter()
            .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
            .collect::<Vec<_>>()
    };
    assert_eq!(
        cbits(&traced.orbitals),
        cbits(&untraced.orbitals),
        "orbitals"
    );
    assert_eq!(
        bits(&traced.eigenvalues),
        bits(&untraced.eigenvalues),
        "eigenvalues"
    );
    assert_eq!(bits(&traced.rho), bits(&untraced.rho), "density");
    assert_eq!(
        traced.energies.total().to_bits(),
        untraced.energies.total().to_bits(),
        "energy"
    );
    assert_eq!(traced.scf_iterations, untraced.scf_iterations);
    assert_eq!(
        traced.rho_residual.to_bits(),
        untraced.rho_residual.to_bits()
    );

    let events = Json::parse(&chrome).expect("the trace parses");
    let spans = |name: &str| {
        events
            .as_arr()
            .expect("a Chrome trace is an array")
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .count() as u64
    };
    assert_eq!(iterations, traced.scf_iterations as u64);
    assert_eq!(spans("scf_loop"), 1);
    assert_eq!(
        spans("scf_davidson"),
        iterations,
        "one eigensolve per iteration"
    );
    assert_eq!(spans("scf_hamiltonian"), iterations);
    assert_eq!(spans("scf_density"), iterations);
    // every iteration mixes except one that converges: the frozen-Φ solve
    // ends on one, the semi-local bootstrap may instead spend `max_scf`
    let mixes = spans("scf_mix");
    assert!(
        mixes == iterations - 1 || mixes == iterations - 2,
        "{mixes} mixes over {iterations} iterations"
    );
}
