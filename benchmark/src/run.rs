//! Running one workload: spec generation from the seed, the in-process
//! path (`KsSystem` → `scf_loop` → `Simulation::run`) and the served path
//! (an in-process `pt-serve` server, a submitting client and a second
//! connection live-tailing `energy`).

use crate::catalog::Workload;
use crate::probe::host_probe;
use pwdft_rt::num::rng::XorShift64;
use pwdft_rt::prelude::*;
use pwdft_rt::serve::{self, JobStatus, LaserSpec, SystemSpec};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Observable columns of a finished run, by channel name.
pub type Columns = BTreeMap<String, Vec<f64>>;

/// The channels the correctness checks read.
pub const CHECKED_CHANNELS: [&str; 8] = [
    "energy",
    "current_z",
    "dipole_x",
    "dipole_y",
    "dipole_z",
    "n_electrons",
    "orthonormality_error",
    "converged",
];

/// A served job that has not reached a terminal state by then is
/// cancelled and counted as failed (the driver's own limit is 180 s).
const JOB_TIMEOUT: Duration = Duration::from_secs(150);

/// The job the workload runs at this seed. The seed jitters the pulse
/// amplitude and centre by ±10 %; the program only ever sees this spec.
pub fn job_spec(w: &Workload, seed: u64, steps: usize) -> JobSpec {
    let mut rng = XorShift64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    for _ in 0..8 {
        rng.next_u64();
    }
    let mut jitter = |nominal: f64| nominal * (1.0 + 0.2 * rng.next_centered());
    JobSpec {
        name: format!("{}-seed{seed}", w.name),
        system: SystemSpec {
            supercell: w.supercell,
            ecut: 2.0,
            xc: w.xc,
            hybrid: w.hybrid,
            bands: None,
            exchange: w.exchange,
        },
        laser: Some(LaserSpec {
            a0: jitter(0.02),
            t0_as: jitter(200.0),
            sigma_as: 100.0,
        }),
        dt_as: 25.0,
        steps,
        checkpoint_every: 1,
        layout: w.layout,
    }
}

/// A built system with its converged ground state.
pub struct Prepared {
    pub sys: KsSystem,
    pub gs: ScfResult,
    /// `build_system` + `scf_loop`.
    pub setup_s: f64,
    pub scf_s: f64,
}

pub fn prepare(spec: &JobSpec) -> Result<Prepared, PtError> {
    let t0 = Instant::now();
    let sys = spec.build_system()?;
    let t_scf = Instant::now();
    let gs = scf_loop(&sys, ScfOptions::default())?;
    Ok(Prepared {
        sys,
        gs,
        setup_s: t0.elapsed().as_secs_f64(),
        scf_s: t_scf.elapsed().as_secs_f64(),
    })
}

/// One in-process propagation from the ground state.
pub struct Propagation {
    pub series: TimeSeries,
    /// Interval between consecutive `step_tap` callbacks (the first one
    /// counts from the start of `run`): propagator + observers +
    /// checkpoint, what a caller of `Simulation::run` waits per step.
    pub step_walls: Vec<f64>,
    /// `SimulationBuilder::build`.
    pub build_s: f64,
    /// Host-speed probe reading taken right after each step (empty unless
    /// asked for); probe time is not part of any step wall.
    pub probes: Vec<f64>,
}

/// Propagate `steps` steps of `spec` on `sys` from `psi0` — the body of
/// `JobSpec::build_fresh_simulation` with the SCF hoisted out and a
/// timing tap added; `checkpoint_dir` arms the per-step snapshots a
/// served job writes, `probe_threads` a host-speed probe of that many
/// threads between steps.
pub fn propagate(
    sys: &KsSystem,
    psi0: &pwdft_rt::linalg::CMat,
    spec: &JobSpec,
    steps: usize,
    checkpoint_dir: Option<&Path>,
    probe_threads: Option<usize>,
) -> Result<Propagation, PtError> {
    let mut step_walls = Vec::with_capacity(steps);
    let mut probes = Vec::new();
    let t_build = Instant::now();
    let mut builder = SimulationBuilder::new(sys)
        .initial_orbitals(psi0.clone())
        .dt(spec.dt_au())
        .steps(steps)
        .standard_observers();
    if let Some(laser) = spec.laser_pulse() {
        builder = builder.laser(laser);
    }
    if let Some(dir) = checkpoint_dir {
        builder = builder.checkpoint_every(spec.checkpoint_every, dir);
    }
    let mut last = Instant::now();
    let mut sim = builder
        .step_tap(|_| {
            step_walls.push(last.elapsed().as_secs_f64());
            if let Some(threads) = probe_threads {
                probes.push(host_probe(threads));
            }
            last = Instant::now();
        })
        .build()?;
    let build_s = t_build.elapsed().as_secs_f64();
    let series = sim.run();
    drop(sim);
    Ok(Propagation {
        series: series?,
        step_walls,
        build_s,
        probes,
    })
}

/// The checked channels of an in-process series.
pub fn series_columns(series: &TimeSeries) -> Columns {
    let mut cols = Columns::new();
    for name in CHECKED_CHANNELS {
        let col = match name {
            "converged" => Some(
                series
                    .stats
                    .iter()
                    .map(|s| f64::from(u8::from(s.converged)))
                    .collect(),
            ),
            _ => series.channel(name).map(<[f64]>::to_vec),
        };
        if let Some(col) = col {
            cols.insert(name.to_string(), col);
        }
    }
    cols
}

/// What a client of the served job saw.
pub struct Served {
    /// `serve::start` + both `Client::connect`s.
    pub setup_s: f64,
    /// Intervals between live-tail samples, first sample excluded (it
    /// contains the SCF).
    pub step_walls: Vec<f64>,
    /// `submit` → `fetch` returned.
    pub job_wall_s: f64,
    pub columns: Columns,
    /// Terminal state was `Done` and the table was fetched.
    pub done: bool,
    pub error: Option<String>,
    pub submit_ack_s: f64,
    /// `submit` → first status row that is no longer `Queued`.
    pub queue_wait_s: f64,
    /// `submit` → first tail sample.
    pub first_sample_s: f64,
    pub fetch_s: f64,
    /// Median of 20 idle `status` round trips (`None` unless asked for).
    pub rpc_rtt_s: Option<f64>,
    /// Mean host-speed probe reading while the job converged its ground
    /// state and took its first step, and during each later step (NaN /
    /// empty unless the sampler was asked for).
    pub first_sample_probe: f64,
    pub step_probes: Vec<f64>,
}

impl Served {
    /// The job is one operation: failed unless it ended `Done`.
    pub fn record_job(&self, ops: &mut crate::checks::Ops) {
        ops.record(self.done, || {
            format!(
                "served job ended {}",
                self.error.as_deref().unwrap_or("in an unknown state")
            )
        });
    }
}

/// While a job owns both vCPUs nothing can run *between* its steps, so a
/// sampler thread reads a one-thread probe beside it every this often
/// (2 ms of work: a 2 % duty cycle). Each reading sees what a rank thread
/// sees: one hardware thread while the other one is busy.
const SAMPLER_PERIOD: Duration = Duration::from_millis(100);

/// Mean of the sampler readings taken in `[from, to]` (the nearest one if
/// the interval holds none).
fn mean_probe(samples: &[(Instant, f64)], from: Instant, to: Instant) -> f64 {
    let inside: Vec<f64> = samples
        .iter()
        .filter(|(at, _)| *at >= from && *at <= to)
        .map(|(_, p)| *p)
        .collect();
    if !inside.is_empty() {
        return crate::stats::mean(&inside);
    }
    samples
        .iter()
        .min_by_key(|(at, _)| {
            if *at > to {
                *at - to
            } else {
                from.saturating_duration_since(*at)
            }
        })
        .map_or(f64::NAN, |(_, p)| *p)
}

/// Run `spec` through an in-process `pt-serve` server rooted at
/// `run_dir` (created, and removed again on the way out).
pub fn run_served(
    spec: &JobSpec,
    run_dir: &Path,
    probe_rtt: bool,
    sample_host: bool,
) -> Result<Served, PtError> {
    let _ = std::fs::remove_dir_all(run_dir);
    let t_setup = Instant::now();
    let handle = serve::start(ServerConfig::new(run_dir, 2))?;
    let addr = handle.addr().to_string();
    let result = (|| {
        let mut client = Client::connect(&addr)?;
        let mut follower = Client::connect(&addr)?;
        let setup_s = t_setup.elapsed().as_secs_f64();

        let t_submit = Instant::now();
        let id = client.submit(spec)?;
        let submit_ack_s = t_submit.elapsed().as_secs_f64();

        // (samples seen so far, arrival time) per tail frame
        let mut arrivals: Vec<(usize, Instant)> = Vec::new();
        let mut queue_wait_s = f64::NAN;
        let mut final_row = None;
        let mut samples: Vec<(Instant, f64)> = Vec::new();
        let job_over = AtomicBool::new(false);
        std::thread::scope(|s| -> Result<(), PtError> {
            if sample_host {
                s.spawn(|| {
                    while !job_over.load(Ordering::Relaxed) {
                        samples.push((Instant::now(), host_probe(1)));
                        std::thread::sleep(SAMPLER_PERIOD);
                    }
                });
            }
            let tail = s.spawn(|| {
                let mut seen = 0usize;
                follower.tail(id, "energy", 0, true, |chunk| {
                    if !chunk.values.is_empty() {
                        seen += chunk.values.len();
                        arrivals.push((seen, Instant::now()));
                    }
                })
            });
            // poll until the job is terminal; a job past its deadline is
            // cancelled, which also ends the tail
            let mut poll = || -> Result<JobStatus, PtError> {
                let mut cancelled = false;
                loop {
                    let row = client
                        .status()?
                        .into_iter()
                        .find(|r| r.id == id)
                        .ok_or_else(|| PtError::InvalidConfig(format!("job {id} vanished")))?;
                    if queue_wait_s.is_nan() && row.state != JobState::Queued {
                        queue_wait_s = t_submit.elapsed().as_secs_f64();
                    }
                    if row.state.is_terminal() {
                        return Ok(row);
                    }
                    if !cancelled && t_submit.elapsed() > JOB_TIMEOUT {
                        client.cancel(id)?;
                        cancelled = true;
                    }
                    // back to back until the job leaves the queue (the wait
                    // is then resolved to one round trip), lazily after
                    if !queue_wait_s.is_nan() {
                        std::thread::sleep(Duration::from_millis(200));
                    }
                }
            };
            let polled = poll();
            let tailed = tail.join();
            job_over.store(true, Ordering::Relaxed);
            final_row = Some(polled?);
            tailed.map_err(|_| PtError::InvalidConfig("tail follower panicked".into()))??;
            Ok(())
        })?;
        let row = final_row.expect("loop exits only with a terminal row");

        let t_fetch = Instant::now();
        let (done, columns, error) = if row.state == JobState::Done {
            let table = client.fetch(id)?;
            let mut cols = Columns::new();
            for name in CHECKED_CHANNELS {
                if let Some(col) = Client::table_column(&table, name) {
                    cols.insert(name.to_string(), col);
                }
            }
            (true, cols, None)
        } else {
            let why = row.error.unwrap_or_else(|| row.state.as_str().to_string());
            (false, Columns::new(), Some(why))
        };
        let fetch_s = t_fetch.elapsed().as_secs_f64();
        let job_wall_s = t_submit.elapsed().as_secs_f64();

        let rpc_rtt_s = if probe_rtt {
            let mut rtts = Vec::with_capacity(20);
            for _ in 0..20 {
                let t = Instant::now();
                client.status()?;
                rtts.push(t.elapsed().as_secs_f64());
            }
            Some(crate::stats::median(&rtts))
        } else {
            None
        };

        // a frame carrying k samples spreads its interval evenly over them
        let mut step_walls = Vec::new();
        for pair in arrivals.windows(2) {
            let k = pair[1].0 - pair[0].0;
            let each = (pair[1].1 - pair[0].1).as_secs_f64() / k as f64;
            step_walls.extend(std::iter::repeat_n(each, k));
        }
        let first_sample_s = arrivals
            .first()
            .map_or(f64::NAN, |(_, at)| (*at - t_submit).as_secs_f64());
        let first_sample_probe = arrivals
            .first()
            .map_or(f64::NAN, |(_, at)| mean_probe(&samples, t_submit, *at));
        let mut step_probes = Vec::new();
        for pair in arrivals.windows(2) {
            let probe = mean_probe(&samples, pair[0].1, pair[1].1);
            step_probes.extend(std::iter::repeat_n(probe, pair[1].0 - pair[0].0));
        }
        Ok(Served {
            setup_s,
            step_walls,
            job_wall_s,
            columns,
            done,
            error,
            submit_ack_s,
            queue_wait_s,
            first_sample_s,
            fetch_s,
            rpc_rtt_s,
            first_sample_probe,
            step_probes,
        })
    })();
    handle.stop();
    let _ = std::fs::remove_dir_all(run_dir);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::WORKLOADS;

    #[test]
    fn the_seed_decides_the_spec_and_only_the_pulse() {
        for w in &WORKLOADS {
            let a = job_spec(w, 7, 24);
            assert_eq!(a, job_spec(w, 7, 24), "same seed, same inputs");
            a.validate().unwrap();
            let b = job_spec(w, 8, 24);
            assert_eq!(a.system, b.system);
            assert_eq!(a.layout, b.layout);
            let (la, lb) = (a.laser.unwrap(), b.laser.unwrap());
            assert_ne!(la, lb, "another seed, another pulse");
            for l in [la, lb] {
                assert!((l.a0 / 0.02 - 1.0).abs() <= 0.1);
                assert!((l.t0_as / 200.0 - 1.0).abs() <= 0.1);
            }
        }
    }

    #[test]
    fn sampler_readings_are_averaged_inside_an_interval_or_taken_nearest() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let samples = [(at(0), 1.0), (at(100), 2.0), (at(200), 4.0), (at(300), 8.0)];
        assert_eq!(mean_probe(&samples, at(50), at(250)), 3.0);
        assert_eq!(mean_probe(&samples, at(110), at(190)), 2.0);
        assert_eq!(mean_probe(&samples, at(160), at(190)), 4.0);
        assert_eq!(mean_probe(&samples, at(400), at(500)), 8.0);
        assert!(mean_probe(&[], at(0), at(1)).is_nan());
    }
}
