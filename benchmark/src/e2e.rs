//! The untraced pass: run the workload as a user would and derive the
//! gated end-to-end metrics.
//!
//! Every timing is reported in seconds of the quiet reference host: the
//! raw wall time of an interval divided by the host slowdown the probe
//! (`probe.rs`) read around or during it. The raw readings are printed
//! beside the reported ones.

use crate::catalog::{Metric, Workload, END_TO_END};
use crate::checks::{check_run, Ops};
use crate::probe::{host_probe, slowdown};
use crate::run::{self, Columns};
use crate::stats;
use pwdft_rt::prelude::*;
use std::path::Path;
use std::time::Instant;

/// A timed interval: raw wall seconds and the host slowdown it ran at.
struct Timed {
    raw_s: f64,
    slowdown: f64,
}

impl Timed {
    fn reference_s(&self) -> f64 {
        self.raw_s / self.slowdown
    }
}

/// What one run of a workload took, piece by piece.
struct Timeline {
    setup: Timed,
    steps: Vec<Timed>,
    /// Everything else the job wall contains (process start-up, table
    /// export, fetch): milliseconds, taken raw.
    other_s: f64,
    columns: Columns,
}

/// The served job as its client saw it. Set-up is `serve::start` + both
/// connects + `submit` → first live sample (queue wait, the SCF inside
/// the job and its first step); a sampler thread reads the probe beside
/// the job throughout.
fn served_timeline(spec: &JobSpec, scratch: &Path, ops: &mut Ops) -> Result<Timeline, PtError> {
    let served = run::run_served(spec, &scratch.join("serve"), false, true)?;
    served.record_job(ops);
    let stepping_s: f64 = served.step_walls.iter().sum();
    Ok(Timeline {
        setup: Timed {
            raw_s: served.setup_s + served.first_sample_s,
            slowdown: slowdown(&[served.first_sample_probe]),
        },
        steps: served
            .step_walls
            .iter()
            .zip(&served.step_probes)
            .map(|(&raw_s, &probe)| Timed {
                raw_s,
                slowdown: slowdown(&[probe]),
            })
            .collect(),
        other_s: served.job_wall_s - served.first_sample_s - stepping_s,
        columns: served.columns,
    })
}

/// `build_system` + `scf_loop` + `SimulationBuilder::build`, then
/// `Simulation::run` with the probe read between steps, on as many
/// threads as the workload computes on.
fn in_process_timeline(
    w: &Workload,
    spec: &JobSpec,
    started: Instant,
    ops: &mut Ops,
) -> Result<Timeline, PtError> {
    let threads = w.layout.cores();
    let startup_s = started.elapsed().as_secs_f64();
    let before = host_probe(threads);
    let prep = run::prepare(spec)?;
    let after = host_probe(threads);
    let run = run::propagate(
        &prep.sys,
        &prep.gs.orbitals,
        spec,
        spec.steps,
        None,
        Some(threads),
    )?;
    let t_export = Instant::now();
    let table = run.series.to_table()?;
    let export_s = t_export.elapsed().as_secs_f64();
    ops.record(table.n_rows() == spec.steps, || {
        "result table is short".to_string()
    });
    // a step ran between the readings before and after it. The SCF leaves
    // no gap to probe in, and two readings 12 s apart say little about
    // the time between them, so set-up is held against every reading of
    // the run
    let around: Vec<f64> = std::iter::once(after).chain(run.probes).collect();
    let whole_run: Vec<f64> = std::iter::once(before)
        .chain(around.iter().copied())
        .collect();
    Ok(Timeline {
        setup: Timed {
            raw_s: prep.setup_s + run.build_s,
            slowdown: slowdown(&whole_run),
        },
        steps: run
            .step_walls
            .iter()
            .zip(around.windows(2))
            .map(|(&raw_s, pair)| Timed {
                raw_s,
                slowdown: slowdown(pair),
            })
            .collect(),
        other_s: startup_s + export_s,
        columns: run::series_columns(&run.series),
    })
}

fn peak_rss_mb() -> f64 {
    crate::first_line_after("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn joined(values: &[f64], scale: f64, decimals: usize) -> String {
    values
        .iter()
        .map(|v| format!("{:.*}", decimals, v * scale))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Run `w` at `seed` for `steps` steps with tracing off; print the step
/// sample and return the end-to-end metrics in `END_TO_END` order.
pub fn end_to_end_pass(
    w: &Workload,
    seed: u64,
    steps: usize,
    started: Instant,
    scratch: &Path,
    ops: &mut Ops,
) -> Result<Vec<Metric>, PtError> {
    let spec = run::job_spec(w, seed, steps);
    let timeline = if w.served {
        served_timeline(&spec, scratch, ops)?
    } else {
        in_process_timeline(w, &spec, started, ops)?
    };
    check_run(ops, w, seed, spec.steps, &timeline.columns);

    let raw: Vec<f64> = timeline.steps.iter().map(|t| t.raw_s).collect();
    let slows: Vec<f64> = timeline.steps.iter().map(|t| t.slowdown).collect();
    let walls: Vec<f64> = timeline.steps.iter().map(Timed::reference_s).collect();
    let n = walls.len();
    println!(
        "# step walls, n = {n} (set-up: {:.3} s raw at host slowdown {:.2})",
        timeline.setup.raw_s, timeline.setup.slowdown
    );
    println!("  raw (ms): {}", joined(&raw, 1e3, 0));
    println!("  host slowdown: {}", joined(&slows, 1.0, 2));
    println!("  walls (ms): {}", joined(&walls, 1e3, 0));
    let (q1, q2, q3) = stats::quartiles(&walls);
    println!(
        "  quartiles {q1:.4} / {q2:.4} / {q3:.4} s, IQR/median {:.1} %",
        stats::relative_iqr(&walls) * 100.0
    );
    match stats::highest_reportable_percentile(n) {
        Some(p) => println!(
            "  highest percentile with >= 10 samples beyond it: p{p} = {:.4} s",
            stats::percentile(&walls, f64::from(p))
        ),
        None => println!("  n < 20: not even the median has 10 samples beyond it"),
    }

    let femtoseconds = n as f64 * spec.dt_as / 1000.0;
    let setup_s = timeline.setup.reference_s();
    let stepping_s: f64 = walls.iter().sum();
    // in `END_TO_END` order
    let values = [
        setup_s,
        stepping_s / femtoseconds,
        q2,
        // dividing every step by its own noisy slowdown reading fills the
        // low tail of the quotients with the readings' errors, not with the
        // program's quiet steps: take the quiet steps at the quiet readings
        stats::percentile(&raw, 10.0) / stats::percentile(&slows, 10.0),
        setup_s + stepping_s + timeline.other_s,
        peak_rss_mb(),
    ];
    println!(
        "# end-to-end metrics (lower is better; times in seconds of the quiet reference host)"
    );
    let mut metrics = Vec::with_capacity(values.len());
    for (value, e) in values.into_iter().zip(&END_TO_END) {
        let label = if e.name.starts_with("step_s") || e.name == "wall_s_per_fs" {
            stats::resolution_label(&walls, e.bound)
        } else {
            "n = 1"
        };
        println!(
            "  {:<14} {value:>12.4} {:<5} bound {:>3.0} %  [{label}]",
            e.name,
            e.unit,
            e.bound * 100.0
        );
        metrics.push(Metric {
            name: e.name,
            value,
            unit: e.unit,
        });
    }
    Ok(metrics)
}
