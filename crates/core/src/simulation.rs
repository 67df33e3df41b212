//! The `Simulation` driver — one owner of the rt-TDDFT time loop.
//!
//! The paper's workflow is always the same pipeline: converge a ground
//! state, then drive a laser-coupled propagation while recording
//! gauge-invariant observables. [`SimulationBuilder`] configures the run
//! (system, laser, `dt`, step count, propagator); [`Simulation::run`] owns
//! the loop and commits one fixed record per step — `energy`,
//! `current_{x,y,z}`, `n_electrons`, `dipole_{x,y,z}` and
//! `orthonormality_error`, beside the field and the propagator's stats —
//! into a [`TimeSeries`], the columnar record the bench figure generators
//! consume. A step whose record is not finite is not committed: the run
//! stops with [`PtError::Diverged`].
//!
//! ```no_run
//! # use pt_core::{SimulationBuilder, PtCnOptions, PtCnPropagator, LaserPulse};
//! # fn demo(sys: &pt_ham::KsSystem, psi0: pt_linalg::CMat) -> Result<(), pt_ham::PtError> {
//! let series = SimulationBuilder::new(sys)
//!     .initial_orbitals(psi0)
//!     .laser(LaserPulse::paper_380nm(
//!         0.02,
//!         pt_num::units::attosecond_to_au(200.0),
//!         pt_num::units::attosecond_to_au(100.0),
//!     ))
//!     .dt(pt_num::units::attosecond_to_au(25.0))
//!     .steps(10)
//!     .propagator(Box::new(PtCnPropagator::new(PtCnOptions::default())))
//!     .build()?
//!     .run()?;
//! let j_z = series.channel("current_z").unwrap();
//! # let _ = j_z; Ok(())
//! # }
//! ```

use crate::checkpoint::{checkpoint_path, CheckpointPolicy, RunCheckpoint, RunCheckpointView};
use crate::laser::LaserPulse;
use crate::observables::{grid_coords, step_record, CHANNELS};
use crate::propagator::{
    a_field, propagator_from_state, Propagator, PtCnPropagator, StepStats, TdState,
};
use pt_ham::{KsSystem, PtError};
use pt_linalg::CMat;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Cooperative cancellation for a running [`Simulation`]: cheap to clone,
/// safe to trip from any thread. The time loop checks it once per step;
/// on cancellation it writes a final checkpoint (when a checkpoint policy
/// is armed) and returns [`PtError::Cancelled`] — a cancelled-then-resumed
/// trajectory is bit-identical to an uninterrupted one.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation (idempotent; takes effect at the next step
    /// boundary).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Everything one committed step recorded — handed to the
/// [step tap](SimulationBuilder::step_tap) right after the step entered
/// the series, so a live consumer (the `pt-serve` streaming hub, a
/// progress bar) sees the run incrementally instead of waiting for the
/// final [`TimeSeries`].
pub struct StepUpdate<'a> {
    /// 0-based absolute step index (continues across a resume).
    pub step_index: usize,
    /// Post-step time (a.u.).
    pub t: f64,
    /// Vector potential at `t`.
    pub a_field: [f64; 3],
    /// The propagator's diagnostics for this step.
    pub stats: &'a StepStats,
    /// The step's record in emission order — the same `(channel, value)`
    /// pairs the series records.
    pub samples: &'a [(&'static str, f64)],
}

impl StepUpdate<'_> {
    /// Every column of this step except `t`, named exactly as
    /// [`TimeSeries::to_table`] names them — the vector potential and
    /// step stats, then the record — so a live stream of these agrees
    /// with the final table.
    pub fn columns(&self) -> Vec<(String, f64)> {
        step_columns(self.a_field, self.stats)
            .iter()
            .chain(self.samples)
            .map(|&(name, v)| (name.to_string(), v))
            .collect()
    }
}

/// One step's columns between `t` and the record's channels, in table
/// order — the only place their names are spelled.
fn step_columns(a: [f64; 3], stats: &StepStats) -> [(&'static str, f64); 7] {
    [
        ("a_x", a[0]),
        ("a_y", a[1]),
        ("a_z", a[2]),
        ("scf_iterations", stats.scf_iterations as f64),
        ("h_applications", stats.h_applications as f64),
        ("rho_residual", stats.rho_residual),
        ("converged", if stats.converged { 1.0 } else { 0.0 }),
    ]
}

/// A per-step callback observing committed steps (see [`StepUpdate`]).
pub(crate) type StepTap<'a> = Box<dyn FnMut(&StepUpdate<'_>) + Send + 'a>;

/// Columnar record of a run: per-step times, fields, propagator stats and
/// the record's channels (`energy`, `current_{x,y,z}`, `n_electrons`,
/// `dipole_{x,y,z}`, `orthonormality_error`). This is the interchange
/// format between the simulation driver and the bench figure generators.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    /// Propagator name that produced this series.
    pub propagator: String,
    /// Post-step times (a.u.).
    pub t: Vec<f64>,
    /// Vector potential at each post-step time.
    pub a_field: Vec<[f64; 3]>,
    /// Per-step propagator diagnostics.
    pub stats: Vec<StepStats>,
    channels: BTreeMap<String, Vec<f64>>,
}

impl TimeSeries {
    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// A recorded channel by name (`"energy"`, `"current_z"`, …), one
    /// value per step.
    pub fn channel(&self, name: &str) -> Option<&[f64]> {
        self.channels.get(name).map(Vec::as_slice)
    }

    /// Names of all recorded channels (sorted).
    pub fn channel_names(&self) -> Vec<&str> {
        self.channels.keys().map(String::as_str).collect()
    }

    /// Commit one step: its time, field, stats and record.
    fn push_step(&mut self, t: f64, a: [f64; 3], stats: StepStats, record: &[(&str, f64)]) {
        self.t.push(t);
        self.a_field.push(a);
        self.stats.push(stats);
        for &(name, value) in record {
            self.channels
                .entry(name.to_string())
                .or_default()
                .push(value);
        }
    }

    /// Rebuild a series from its captured parts (the checkpoint read
    /// path). Length mismatches are typed errors, so a doctored snapshot
    /// cannot smuggle in a ragged series.
    pub(crate) fn from_parts(
        propagator: String,
        t: Vec<f64>,
        a_field: Vec<[f64; 3]>,
        stats: Vec<StepStats>,
        channels: Vec<(String, Vec<f64>)>,
    ) -> Result<TimeSeries, PtError> {
        let n = t.len();
        if a_field.len() != n || stats.len() != n {
            return Err(PtError::InvalidConfig(format!(
                "series parts disagree: {} times, {} fields, {} stats",
                n,
                a_field.len(),
                stats.len()
            )));
        }
        let mut map = BTreeMap::new();
        for (name, col) in channels {
            if col.len() != n {
                return Err(PtError::InvalidConfig(format!(
                    "series channel '{name}' has {} values, expected {n}",
                    col.len()
                )));
            }
            if map.insert(name.clone(), col).is_some() {
                return Err(PtError::InvalidConfig(format!(
                    "series channel '{name}' appears twice"
                )));
            }
        }
        Ok(TimeSeries {
            propagator,
            t,
            a_field,
            stats,
            channels: map,
        })
    }

    /// Export as a [`pt_io::Table`] (one row per step: time, vector
    /// potential, per-step stats and every recorded channel) — the bridge
    /// to `pt_io::export`'s JSON/CSV writers.
    pub fn to_table(&self) -> Result<pt_io::Table, PtError> {
        let mut table =
            pt_io::Table::new().meta("propagator", pt_io::Value::Str(self.propagator.clone()));
        table.column("t", self.t.clone())?;
        let rows: Vec<_> = self
            .a_field
            .iter()
            .zip(&self.stats)
            .map(|(a, s)| step_columns(*a, s))
            .collect();
        // the names, even for an empty series
        let names = step_columns([0.0; 3], &StepStats::default());
        for (k, (name, _)) in names.iter().enumerate() {
            table.column(name, rows.iter().map(|r| r[k].1).collect())?;
        }
        for (name, col) in &self.channels {
            table.column(name, col.clone())?;
        }
        Ok(table)
    }

    /// Export the per-step wall-clock phase breakdown
    /// ([`StepStats::phases`]) as a [`pt_io::Table`] — the `metrics.json`
    /// payload a traced `pt-serve` job writes beside its Chrome trace.
    ///
    /// Deliberately a *separate* table from [`TimeSeries::to_table`]: that
    /// one is a bit-compared surface (resume tests, golden results), so
    /// wall-clock columns must never leak into it. Every column here is
    /// exactly zero when `pt_trace` was disarmed during the run.
    pub fn phase_table(&self) -> Result<pt_io::Table, PtError> {
        let mut table =
            pt_io::Table::new().meta("propagator", pt_io::Value::Str(self.propagator.clone()));
        table.column("step", (0..self.len()).map(|i| i as f64).collect())?;
        let phase = |get: fn(&crate::propagator::StepPhases) -> f64| -> Vec<f64> {
            self.stats.iter().map(|s| get(&s.phases)).collect()
        };
        table.column("wall", phase(|p| p.wall))?;
        table.column("h_apply", phase(|p| p.h_apply))?;
        table.column("residual", phase(|p| p.residual))?;
        table.column("mix", phase(|p| p.mix))?;
        table.column("density", phase(|p| p.density))?;
        table.column("ortho", phase(|p| p.ortho))?;
        table.column("ace_build", phase(|p| p.ace_build))?;
        table.column("other", phase(|p| p.other))?;
        Ok(table)
    }
}

/// Configures a [`Simulation`]. See the module docs for the full example.
pub struct SimulationBuilder<'a> {
    sys: &'a KsSystem,
    laser: Option<LaserPulse>,
    dt: Option<f64>,
    n_steps: Option<usize>,
    t0: f64,
    propagator: Option<Box<dyn Propagator>>,
    initial: Option<CMat>,
    ckpt_every_dir: Option<(usize, PathBuf)>,
    ckpt_keep: usize,
    cancel: Option<CancelToken>,
    tap: Option<StepTap<'a>>,
}

impl<'a> SimulationBuilder<'a> {
    /// Start configuring a run over `sys`.
    pub fn new(sys: &'a KsSystem) -> Self {
        SimulationBuilder {
            sys,
            laser: None,
            dt: None,
            n_steps: None,
            t0: 0.0,
            propagator: None,
            initial: None,
            ckpt_every_dir: None,
            ckpt_keep: 2,
            cancel: None,
            tap: None,
        }
    }

    /// Couple a laser pulse (velocity gauge).
    pub fn laser(mut self, laser: LaserPulse) -> Self {
        self.laser = Some(laser);
        self
    }

    /// Time step (a.u.). Required.
    pub fn dt(mut self, dt: f64) -> Self {
        self.dt = Some(dt);
        self
    }

    /// Number of steps to take per [`Simulation::run`]. Required.
    pub fn steps(mut self, n: usize) -> Self {
        self.n_steps = Some(n);
        self
    }

    /// Starting time (default 0).
    pub fn start_time(mut self, t0: f64) -> Self {
        self.t0 = t0;
        self
    }

    /// Select the propagator (default: PT-CN with paper options; it
    /// reads the layout and the exchange mode off the system at step
    /// time). Boxed so the choice can be made at runtime.
    pub fn propagator(mut self, p: Box<dyn Propagator>) -> Self {
        self.propagator = Some(p);
        self
    }

    /// Does nothing: every run records the same fixed set of channels
    /// (see [`TimeSeries`]). Kept so existing callers still build.
    pub fn standard_observers(self) -> Self {
        self
    }

    /// Emit a rolling snapshot into `dir` after every `every` completed
    /// steps (the file is `ckpt_<absolute step>.ptio`; the directory is
    /// created on first write). A killed run resumes from the newest one
    /// via [`Simulation::resume`] and continues **bit-identically** to an
    /// uninterrupted run.
    pub fn checkpoint_every(mut self, every: usize, dir: impl Into<PathBuf>) -> Self {
        self.ckpt_every_dir = Some((every, dir.into()));
        self
    }

    /// How many rolling snapshots to retain (default 2; older files are
    /// pruned after each write).
    pub fn checkpoint_keep(mut self, keep: usize) -> Self {
        self.ckpt_keep = keep;
        self
    }

    /// Initial orbitals (usually SCF ground-state orbitals). Required.
    pub fn initial_orbitals(mut self, psi: CMat) -> Self {
        self.initial = Some(psi);
        self
    }

    /// Arm cooperative cancellation: the time loop checks the token once
    /// per step and, when tripped, writes a final checkpoint (if a
    /// checkpoint policy is configured) before returning
    /// [`PtError::Cancelled`].
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Install a per-step tap: called after every committed step with that
    /// step's [`StepUpdate`] (time, field, stats and record).
    /// The tap only observes — it cannot fail the run.
    pub fn step_tap(mut self, tap: impl FnMut(&StepUpdate<'_>) + Send + 'a) -> Self {
        self.tap = Some(Box::new(tap));
        self
    }

    /// Validate and assemble the [`Simulation`]. Misuse returns
    /// [`PtError`]; nothing on this path panics.
    pub fn build(self) -> Result<Simulation<'a>, PtError> {
        let dt = self
            .dt
            .ok_or_else(|| PtError::InvalidConfig("time step dt is required".into()))?;
        if !dt.is_finite() || dt <= 0.0 {
            return Err(PtError::InvalidConfig(format!(
                "time step must be positive and finite, got {dt}"
            )));
        }
        if !self.t0.is_finite() {
            return Err(PtError::InvalidConfig(format!(
                "start time must be finite, got {}",
                self.t0
            )));
        }
        if let Some(l) = &self.laser {
            l.validate().map_err(PtError::InvalidConfig)?;
        }
        let n_steps = self
            .n_steps
            .ok_or_else(|| PtError::InvalidConfig("step count is required".into()))?;
        if n_steps == 0 {
            return Err(PtError::InvalidConfig(
                "step count must be at least 1".into(),
            ));
        }
        let psi = self.initial.ok_or_else(|| {
            PtError::InvalidConfig("initial orbitals are required (run an SCF first)".into())
        })?;
        if psi.nrows() != self.sys.grids.ng() {
            return Err(PtError::ShapeMismatch {
                context: "initial orbital rows (plane waves)",
                expected: self.sys.grids.ng(),
                got: psi.nrows(),
            });
        }
        if psi.ncols() != self.sys.n_bands() {
            return Err(PtError::ShapeMismatch {
                context: "initial orbital columns (occupied bands)",
                expected: self.sys.n_bands(),
                got: psi.ncols(),
            });
        }
        let propagator = self
            .propagator
            .unwrap_or_else(|| Box::<PtCnPropagator>::default());
        let checkpoint = match self.ckpt_every_dir {
            Some((every, dir)) => {
                let policy = CheckpointPolicy {
                    every,
                    dir,
                    keep: self.ckpt_keep,
                };
                policy.validate()?;
                Some(policy)
            }
            None => None,
        };
        Ok(Simulation {
            sys: self.sys,
            laser: self.laser,
            dt,
            n_steps,
            propagator,
            coords: grid_coords(self.sys),
            state: TdState { psi, t: self.t0 },
            partial: None,
            checkpoint,
            ckpt_written: Vec::new(),
            resume_base: None,
            cancel: self.cancel,
            tap: self.tap,
        })
    }
}

/// A configured rt-TDDFT run: owns the state and the propagator, and
/// records every step.
pub struct Simulation<'a> {
    sys: &'a KsSystem,
    laser: Option<LaserPulse>,
    dt: f64,
    n_steps: usize,
    propagator: Box<dyn Propagator>,
    /// The dipole's lever arms ([`grid_coords`]), built once per run.
    coords: Vec<[f64; 3]>,
    state: TdState,
    partial: Option<TimeSeries>,
    checkpoint: Option<CheckpointPolicy>,
    /// Snapshots THIS simulation wrote, oldest first — the rolling window
    /// `CheckpointPolicy::keep` prunes over. Scoped to the run on purpose:
    /// a directory shared with an earlier trajectory must never have that
    /// trajectory's files deleted (or counted) by this one.
    ckpt_written: Vec<PathBuf>,
    /// Steps restored from a snapshot; the next `run` continues *into*
    /// this series so the merged record matches an uninterrupted run.
    resume_base: Option<TimeSeries>,
    cancel: Option<CancelToken>,
    tap: Option<StepTap<'a>>,
}

impl<'a> Simulation<'a> {
    /// The current state (after `run`, the final state).
    pub fn state(&self) -> &TdState {
        &self.state
    }

    /// The configured step size (a.u.).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The record of every step completed before the last [`Simulation::run`]
    /// failed — the diagnostics leading up to the error, which are exactly
    /// what a post-mortem needs (the state has already advanced past those
    /// steps, so they cannot be re-recorded). Cleared when `run` is called
    /// again; `None` after a successful run.
    pub fn take_partial_series(&mut self) -> Option<TimeSeries> {
        self.partial.take()
    }

    /// Advance the configured number of steps, committing each step's
    /// record, and return the recorded series. Calling `run` again
    /// continues from the final state for another window. On error, the
    /// steps committed so far stay retrievable via
    /// [`Simulation::take_partial_series`]; a step whose record is not
    /// finite is refused with [`PtError::Diverged`] and never committed or
    /// snapshotted.
    ///
    /// The whole loop runs under the system's pool ([`KsSystem::install`]:
    /// its layout's cores, or the surrounding pool when it has none).
    pub fn run(&mut self) -> Result<TimeSeries, PtError> {
        let sys = self.sys;
        sys.install(|| {
            // a resumed simulation continues into its restored series; the
            // absolute step index keeps counting from there, so the record
            // lines up with the uninterrupted run
            let mut series = self.resume_base.take().unwrap_or_else(|| TimeSeries {
                propagator: self.propagator.name().to_string(),
                ..TimeSeries::default()
            });
            self.partial = None;
            match self.advance(&mut series) {
                Ok(()) => Ok(series),
                Err(e) => {
                    self.partial = Some(series);
                    Err(e)
                }
            }
        })
    }

    /// The time loop: step, record, commit — `series` holds every
    /// committed step whether or not it returns `Ok`.
    fn advance(&mut self, series: &mut TimeSeries) -> Result<(), PtError> {
        let base = series.len();
        for local_step in 0..self.n_steps {
            let step_index = base + local_step;
            if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                // honor the cancellation at the step boundary: persist a
                // final snapshot so a later resume continues bit-exactly,
                // then surface the typed non-failure
                self.write_checkpoint(series, self.n_steps - local_step)?;
                return Err(PtError::Cancelled {
                    completed_steps: step_index,
                });
            }
            let stats =
                self.propagator
                    .step(self.sys, self.laser.as_ref(), &mut self.state, self.dt)?;
            let t = self.state.t;
            let a = a_field(self.laser.as_ref(), t);
            let record = step_record(self.sys, &self.state.psi, a, &self.coords);
            if record.iter().any(|(_, v)| !v.is_finite()) {
                return Err(PtError::Diverged {
                    step: step_index,
                    t,
                    last_residual: stats.rho_residual,
                });
            }
            series.push_step(t, a, stats, &record);
            pt_trace::counter_add(pt_trace::Counter::StepsCommitted, 1);
            if let Some(tap) = &mut self.tap {
                tap(&StepUpdate {
                    step_index,
                    t,
                    a_field: a,
                    stats: &stats,
                    samples: &record,
                });
            }
            let due = |p: &CheckpointPolicy| (local_step + 1) % p.every == 0;
            if self.checkpoint.as_ref().is_some_and(due) {
                self.write_checkpoint(series, self.n_steps - (local_step + 1))?;
            }
        }
        Ok(())
    }

    /// Serialize the current run state into the policy's directory
    /// (borrowing ψ and the series — no clones of orbital-sized data but
    /// the ACE projector the propagator captures) and prune the oldest of
    /// this run's own snapshots past its `keep`. Nothing without a policy.
    fn write_checkpoint(
        &mut self,
        series: &TimeSeries,
        steps_remaining: usize,
    ) -> Result<(), PtError> {
        let Some(policy) = &self.checkpoint else {
            return Ok(());
        };
        let _sp = pt_trace::span("checkpoint_write");
        pt_trace::counter_add(pt_trace::Counter::CheckpointWrites, 1);
        std::fs::create_dir_all(&policy.dir).map_err(|e| PtError::Io {
            path: policy.dir.display().to_string(),
            reason: e.to_string(),
        })?;
        let propagator = self.propagator.capture();
        let view = RunCheckpointView {
            signature: self.sys.signature(),
            steps_remaining,
            t: self.state.t,
            dt: self.dt,
            occupations: &self.sys.occupations,
            psi: &self.state.psi,
            laser: self.laser.as_ref(),
            propagator: &propagator,
            series,
        };
        let path = checkpoint_path(&policy.dir, series.len());
        view.write(&path)?;
        // a cancel right after a rolling boundary rewrites the same step's
        // file (atomically); don't double-track it or pruning would try to
        // delete it twice
        if self.ckpt_written.last() != Some(&path) {
            self.ckpt_written.push(path);
        }
        while self.ckpt_written.len() > policy.keep {
            let old = self.ckpt_written.remove(0);
            std::fs::remove_file(&old).map_err(|e| PtError::Io {
                path: old.display().to_string(),
                reason: e.to_string(),
            })?;
        }
        Ok(())
    }

    /// Reconstruct a killed run from a snapshot, with the propagator
    /// recorded in the snapshot. `run` on the result takes the remaining
    /// steps and returns the *full* series (restored + new steps) —
    /// bit-identical to an uninterrupted run.
    ///
    /// The snapshot must have been taken against a system of the same
    /// shape: the recorded [`pt_ham::SystemSignature`] and occupations are
    /// revalidated and a mismatch is a typed error, as is a propagator
    /// this crate cannot rebuild ([`crate::PropagatorState::Opaque`]), and
    /// so is a restored series whose channels are not the record's (a
    /// series of zero steps may hold none).
    pub fn resume(sys: &'a KsSystem, path: impl AsRef<Path>) -> Result<Simulation<'a>, PtError> {
        let ck = RunCheckpoint::read(path)?;
        let mut record = CHANNELS;
        record.sort_unstable();
        let names = ck.series.channel_names();
        if names != record && !(ck.series.is_empty() && names.is_empty()) {
            return Err(PtError::InvalidConfig(format!(
                "snapshot series holds channels {names:?}; a run records exactly {CHANNELS:?}"
            )));
        }
        let want = sys.signature();
        if ck.signature != want {
            return Err(PtError::InvalidConfig(format!(
                "snapshot was taken on a different system: recorded {:?}, resuming against {:?}",
                ck.signature, want
            )));
        }
        let occ_match = ck.occupations.len() == sys.occupations.len()
            && ck
                .occupations
                .iter()
                .zip(&sys.occupations)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !occ_match {
            return Err(PtError::InvalidConfig(
                "snapshot occupations do not match the system's".into(),
            ));
        }
        if let Some(pinned) = ck.pinned_exchange {
            if pinned != sys.exchange_mode() {
                return Err(PtError::InvalidConfig(format!(
                    "snapshot pins exchange mode {pinned:?} but the system it is resumed on \
                     is set to {:?}; build the system with that exchange_mode",
                    sys.exchange_mode()
                )));
            }
        }
        if ck.psi.nrows() != sys.grids.ng() {
            return Err(PtError::ShapeMismatch {
                context: "snapshot orbital rows (plane waves)",
                expected: sys.grids.ng(),
                got: ck.psi.nrows(),
            });
        }
        if ck.psi.ncols() != sys.n_bands() {
            return Err(PtError::ShapeMismatch {
                context: "snapshot orbital columns (occupied bands)",
                expected: sys.n_bands(),
                got: ck.psi.ncols(),
            });
        }
        Ok(Simulation {
            sys,
            laser: ck.laser,
            dt: ck.dt,
            n_steps: ck.steps_remaining,
            propagator: propagator_from_state(ck.propagator)?,
            coords: grid_coords(sys),
            state: TdState {
                psi: ck.psi,
                t: ck.t,
            },
            partial: None,
            checkpoint: None,
            ckpt_written: Vec::new(),
            resume_base: Some(ck.series),
            cancel: None,
            tap: None,
        })
    }

    /// Resume from the **newest valid** snapshot in `dir`: the
    /// crash-recovery orchestration (scan → validate → newest → resume) in
    /// one call. Files whose container fails to verify (truncated by the
    /// kill, corrupt) or whose schema this crate cannot read are skipped
    /// in favor of the next-older snapshot — their defects are typed, so
    /// skipping is safe. `Ok(None)` when the directory holds no usable
    /// snapshot (the caller should start the run fresh). Snapshots for a
    /// *different system* are a real error, not a skip: resuming an
    /// unrelated trajectory silently would be worse than failing.
    pub fn resume_latest(
        sys: &'a KsSystem,
        dir: impl AsRef<Path>,
    ) -> Result<Option<Simulation<'a>>, PtError> {
        let scan = pt_io::scan_snapshots(dir.as_ref())?;
        for path in scan.valid.iter().rev() {
            match Self::resume(sys, path) {
                Ok(sim) => return Ok(Some(sim)),
                Err(PtError::SnapshotFormat { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// The steps restored from the snapshot a resumed simulation will
    /// continue into (`None` once `run` has consumed them, or for a fresh
    /// simulation). Lets a supervisor republish the already-recorded
    /// prefix — e.g. to a streaming hub — before the run continues.
    pub fn restored_series(&self) -> Option<&TimeSeries> {
        self.resume_base.as_ref()
    }

    /// Arm cooperative cancellation on an existing (typically resumed)
    /// simulation — see [`SimulationBuilder::cancel_token`].
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Install a per-step tap on an existing (typically resumed)
    /// simulation — see [`SimulationBuilder::step_tap`].
    pub fn set_step_tap(&mut self, tap: impl FnMut(&StepUpdate<'_>) + Send + 'a) {
        self.tap = Some(Box::new(tap));
    }

    /// Turn checkpointing on for this (typically resumed) simulation:
    /// rolling snapshots into `dir` every `every` steps, keeping the
    /// newest two.
    pub fn checkpoint_every(
        mut self,
        every: usize,
        dir: impl Into<PathBuf>,
    ) -> Result<Simulation<'a>, PtError> {
        let policy = CheckpointPolicy {
            every,
            dir: dir.into(),
            keep: 2,
        };
        policy.validate()?;
        self.checkpoint = Some(policy);
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_lattice::silicon_cubic_supercell;
    use pt_xc::XcKind;

    fn small_sys() -> KsSystem {
        KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(XcKind::Lda)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_missing_and_malformed_configuration() {
        let sys = small_sys();
        let ng = sys.grids.ng();
        let nb = sys.n_bands();
        // missing dt
        assert!(matches!(
            SimulationBuilder::new(&sys)
                .steps(1)
                .initial_orbitals(CMat::zeros(ng, nb))
                .build(),
            Err(PtError::InvalidConfig(_))
        ));
        // bad dt
        assert!(matches!(
            SimulationBuilder::new(&sys)
                .dt(-0.1)
                .steps(1)
                .initial_orbitals(CMat::zeros(ng, nb))
                .build(),
            Err(PtError::InvalidConfig(_))
        ));
        // zero steps
        assert!(matches!(
            SimulationBuilder::new(&sys)
                .dt(0.1)
                .steps(0)
                .initial_orbitals(CMat::zeros(ng, nb))
                .build(),
            Err(PtError::InvalidConfig(_))
        ));
        // missing orbitals
        assert!(matches!(
            SimulationBuilder::new(&sys).dt(0.1).steps(1).build(),
            Err(PtError::InvalidConfig(_))
        ));
        // non-finite start time
        assert!(matches!(
            SimulationBuilder::new(&sys)
                .start_time(f64::NAN)
                .dt(0.1)
                .steps(1)
                .initial_orbitals(CMat::zeros(ng, nb))
                .build(),
            Err(PtError::InvalidConfig(_))
        ));
        // a degenerate or non-finite pulse: A(t) would be NaN or zero
        let pulse = LaserPulse::paper_380nm(0.02, 0.0, 20.0);
        for laser in [
            LaserPulse {
                sigma: 0.0,
                ..pulse
            },
            LaserPulse {
                sigma: -1.0,
                ..pulse
            },
            LaserPulse {
                a0: f64::NAN,
                ..pulse
            },
            LaserPulse {
                t0: f64::INFINITY,
                ..pulse
            },
            LaserPulse {
                polarization: [0.0, f64::NAN, 1.0],
                ..pulse
            },
        ] {
            assert!(matches!(
                SimulationBuilder::new(&sys)
                    .laser(laser)
                    .dt(0.1)
                    .steps(1)
                    .initial_orbitals(CMat::zeros(ng, nb))
                    .build(),
                Err(PtError::InvalidConfig(_))
            ));
        }
        // wrong orbital shape
        assert!(matches!(
            SimulationBuilder::new(&sys)
                .dt(0.1)
                .steps(1)
                .initial_orbitals(CMat::zeros(3, nb))
                .build(),
            Err(PtError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            SimulationBuilder::new(&sys)
                .dt(0.1)
                .steps(1)
                .initial_orbitals(CMat::zeros(ng, nb + 1))
                .build(),
            Err(PtError::ShapeMismatch { .. })
        ));
    }

    /// Identity-block orbitals: orthonormal, so RK4 steps them finitely —
    /// enough to exercise the bookkeeping without an SCF.
    fn identity_orbitals(sys: &KsSystem) -> CMat {
        CMat::from_fn(sys.grids.ng(), sys.n_bands(), |i, j| {
            if i == j {
                pt_num::c64::ONE
            } else {
                pt_num::c64::ZERO
            }
        })
    }

    #[test]
    fn failed_run_keeps_the_partial_series() {
        // a propagator that errors on the third step: the two committed
        // steps' records must survive on the Simulation
        struct FailAt(usize, crate::propagator::Rk4Propagator);
        impl Propagator for FailAt {
            fn name(&self) -> &'static str {
                "fail-at"
            }
            fn step(
                &mut self,
                sys: &KsSystem,
                laser: Option<&LaserPulse>,
                state: &mut TdState,
                dt: f64,
            ) -> Result<StepStats, PtError> {
                if self.0 == 0 {
                    return Err(PtError::InvalidConfig("injected step failure".into()));
                }
                self.0 -= 1;
                self.1.step(sys, laser, state, dt)
            }
        }
        let sys = small_sys();
        let mut sim = SimulationBuilder::new(&sys)
            .dt(0.01)
            .steps(5)
            .propagator(Box::new(FailAt(2, Default::default())))
            .initial_orbitals(identity_orbitals(&sys))
            .build()
            .unwrap();
        assert!(matches!(sim.run(), Err(PtError::InvalidConfig(_))));
        let partial = sim.take_partial_series().expect("partial series kept");
        assert_eq!(partial.len(), 2);
        assert_eq!(partial.propagator, "fail-at");
        let mut record = CHANNELS;
        record.sort_unstable();
        assert_eq!(partial.channel_names(), record);
        assert!(record
            .iter()
            .all(|c| partial.channel(c).unwrap().len() == 2));
        // taking it drains it; a new run clears any stale partial
        assert!(sim.take_partial_series().is_none());
    }

    #[test]
    fn time_series_channels_are_queryable() {
        let sys = small_sys();
        let psi = identity_orbitals(&sys);
        let record = step_record(&sys, &psi, [0.0; 3], &grid_coords(&sys));
        assert_eq!(record.map(|(name, _)| name), CHANNELS);
        let mut ts = TimeSeries::default();
        ts.push_step(0.1, [0.0; 3], StepStats::default(), &record);
        assert_eq!(ts.channel("energy"), Some(&[record[0].1][..]));
        assert_eq!(ts.channel("missing"), None);
        assert_eq!(ts.channel_names().len(), CHANNELS.len());
        assert_eq!(ts.len(), 1);
        // the identity block is orthonormal and holds every electron
        let n_electrons: f64 = sys.occupations.iter().sum();
        assert_eq!(ts.channel("orthonormality_error"), Some(&[0.0][..]));
        assert!((ts.channel("n_electrons").unwrap()[0] - n_electrons).abs() < 1e-10);
    }
}
