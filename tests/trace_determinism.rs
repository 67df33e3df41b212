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
//!   samples: an ACE stale-window step freezes the projector and runs
//!   *zero* pair FFTs (see `ace_ptcn_step`), so between refreshes the
//!   per-step `PairFfts` delta must be exactly the step record's
//!   exchange energy — N(N+1)/2 solves — and above it on every refresh
//!   step; `AceRefreshRounds` must be 0 between refreshes and positive on
//!   every refresh step.

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
/// record's exchange energy, one per unordered band pair.
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
    let mut sim = SimulationBuilder::new(&sys)
        .initial_orbitals(gs.orbitals.clone())
        .laser(LaserPulse::paper_380nm(
            0.02,
            attosecond_to_au(200.0),
            attosecond_to_au(100.0),
        ))
        .dt(attosecond_to_au(25.0))
        .steps(5)
        .build()
        .expect("valid simulation");

    // snapshot (pair_ffts, ace_refresh_rounds) at every committed step
    let deltas: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&deltas);
    let mut last = (
        trace::counter_value(trace::Counter::PairFfts),
        trace::counter_value(trace::Counter::AceRefreshRounds),
    );
    sim.set_step_tap(move |_update| {
        let now = (
            trace::counter_value(trace::Counter::PairFfts),
            trace::counter_value(trace::Counter::AceRefreshRounds),
        );
        sink.lock().unwrap().push((now.0 - last.0, now.1 - last.1));
        last = now;
    });
    sim.run().expect("ACE propagation succeeds");
    trace::set_enabled(false);

    let deltas = deltas.lock().unwrap_or_else(|e| e.into_inner()).clone();
    assert_eq!(deltas.len(), 5, "tap fired once per committed step");
    let n = sys.n_bands() as u64;
    let record_solves = n * (n + 1) / 2;
    assert_eq!(record_solves, 10);
    for (i, &(pair_ffts, refresh_rounds)) in deltas.iter().enumerate() {
        // 0-based: refresh when i % 3 == 0 (steps 1 and 4), stale otherwise
        if i % 3 == 0 {
            assert!(
                pair_ffts > record_solves,
                "step {}: refresh step must rebuild ξ through pair FFTs",
                i + 1
            );
            assert!(
                refresh_rounds > 0,
                "step {}: refresh step must run projector rounds",
                i + 1
            );
        } else {
            assert_eq!(
                pair_ffts,
                record_solves,
                "step {}: stale-window step ran pair FFTs beyond the record's \
                 exchange energy — the frozen projector contract is broken",
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
