//! The `Simulation` driver — one owner of the rt-TDDFT time loop.
//!
//! The paper's workflow is always the same pipeline: converge a ground
//! state, then drive a laser-coupled propagation while recording
//! gauge-invariant observables. [`SimulationBuilder`] configures the run
//! (system, laser, `dt`, step count, propagator, observers);
//! [`Simulation::run`] owns the loop, invokes the composable [`Observer`]
//! pipeline after every step, and returns a [`TimeSeries`] — the columnar
//! record the bench figure generators consume.
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
//!     .standard_observers()
//!     .build()?
//!     .run()?;
//! let j_z = series.channel("current_z").unwrap();
//! # let _ = j_z; Ok(())
//! # }
//! ```

use crate::checkpoint::{checkpoint_path, CheckpointPolicy, RunCheckpoint, RunCheckpointView};
use crate::laser::LaserPulse;
use crate::observables::{current_density, orthonormality_error};
use crate::propagator::{propagator_from_state, Propagator, PtCnPropagator, StepStats, TdState};
use pt_ham::{integrate, KsSystem, PtError};
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

/// Everything one committed step emitted — handed to the
/// [step tap](SimulationBuilder::step_tap) right after the observers ran,
/// so a live consumer (the `pt-serve` streaming hub, a progress bar) sees
/// the run incrementally instead of waiting for the final [`TimeSeries`].
pub struct StepUpdate<'a> {
    /// 0-based absolute step index (continues across a resume).
    pub step_index: usize,
    /// Post-step time (a.u.).
    pub t: f64,
    /// Vector potential at `t`.
    pub a_field: [f64; 3],
    /// The propagator's diagnostics for this step.
    pub stats: &'a StepStats,
    /// Every observer sample of this step, in emission order — the same
    /// `(channel, value)` pairs the series records.
    pub samples: &'a [(String, f64)],
}

impl StepUpdate<'_> {
    /// Every column of this step except `t`, named exactly as
    /// [`TimeSeries::to_table`] names them — the vector potential and
    /// step stats, then every observer sample — so a live stream of
    /// these agrees with the final table.
    pub fn columns(&self) -> Vec<(String, f64)> {
        let step = step_columns(self.a_field, self.stats).map(|(name, v)| (name.to_string(), v));
        step.into_iter()
            .chain(self.samples.iter().cloned())
            .collect()
    }
}

/// One step's columns between `t` and the observer channels, in table
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
pub type StepTap<'a> = Box<dyn FnMut(&StepUpdate<'_>) + Send + 'a>;

/// Everything an [`Observer`] may look at after one completed step.
pub struct ObserverContext<'a> {
    /// The Kohn–Sham problem.
    pub sys: &'a KsSystem,
    /// State after the step (`state.t` is the post-step time).
    pub state: &'a TdState,
    /// Vector potential at `state.t`.
    pub a_field: [f64; 3],
    /// Density of `state.psi`, precomputed once per step iff some observer
    /// declares [`Observer::needs_density`].
    pub rho: Option<&'a [f64]>,
    /// 0-based index of the completed step.
    pub step_index: usize,
    /// The propagator's diagnostics for this step.
    pub stats: &'a StepStats,
}

/// A composable per-step measurement.
///
/// Observers run in registration order after every accepted step and emit
/// named scalar channels into the [`TimeSeries`]. Object-safe, so
/// pipelines are `Vec<Box<dyn Observer>>`.
pub trait Observer {
    /// Identifier used in error messages.
    fn name(&self) -> &'static str;

    /// Whether this observer reads `ctx.rho`; the driver computes the
    /// density once per step only if some observer asks for it.
    fn needs_density(&self) -> bool {
        false
    }

    /// Measure: return `(channel, value)` samples for this step. An
    /// observer must emit the same channels every step.
    fn observe(&mut self, ctx: &ObserverContext<'_>) -> Result<Vec<(String, f64)>, PtError>;
}

/// Records the total energy (channel `energy`).
#[derive(Default)]
pub struct EnergyObserver;

impl Observer for EnergyObserver {
    fn name(&self) -> &'static str {
        "energy"
    }
    fn needs_density(&self) -> bool {
        true
    }
    fn observe(&mut self, ctx: &ObserverContext<'_>) -> Result<Vec<(String, f64)>, PtError> {
        let rho = ctx.rho.ok_or(PtError::InvalidConfig(
            "EnergyObserver needs the step density".into(),
        ))?;
        let e = ctx.sys.energies(&ctx.state.psi, rho, ctx.a_field).total();
        Ok(vec![("energy".into(), e)])
    }
}

/// Records the macroscopic current density (channels `current_x`,
/// `current_y`, `current_z`) — the primary observable of a velocity-gauge
/// laser run.
#[derive(Default)]
pub struct CurrentObserver;

impl Observer for CurrentObserver {
    fn name(&self) -> &'static str {
        "current"
    }
    fn observe(&mut self, ctx: &ObserverContext<'_>) -> Result<Vec<(String, f64)>, PtError> {
        let j = current_density(ctx.sys, &ctx.state.psi, ctx.a_field);
        Ok(vec![
            ("current_x".into(), j[0]),
            ("current_y".into(), j[1]),
            ("current_z".into(), j[2]),
        ])
    }
}

/// Records the electron count `∫ρ` (channel `n_electrons`) and the
/// electronic dipole moment `∫ r ρ(r) dr` (channels `dipole_x/y/z`) — the
/// norm/dipole pair whose conservation and response diagnose a run.
#[derive(Default)]
pub struct DipoleNormObserver {
    /// Cartesian coordinates of every dense-grid point, built lazily on
    /// the first step (the grid never changes during a run).
    coords: Option<Vec<[f64; 3]>>,
}

impl Observer for DipoleNormObserver {
    fn name(&self) -> &'static str {
        "dipole-norm"
    }
    fn needs_density(&self) -> bool {
        true
    }
    fn observe(&mut self, ctx: &ObserverContext<'_>) -> Result<Vec<(String, f64)>, PtError> {
        let rho = ctx.rho.ok_or(PtError::InvalidConfig(
            "DipoleNormObserver needs the step density".into(),
        ))?;
        let g = &ctx.sys.grids;
        let ne = integrate(g, rho);
        let dv = g.volume / g.n_dense() as f64;
        let coords = self.coords.get_or_insert_with(|| {
            let (nx, ny, nz) = g.fft_dense.dims();
            let cell = &ctx.sys.structure.cell;
            let mut coords = Vec::with_capacity(g.n_dense());
            for iz in 0..nz {
                for iy in 0..ny {
                    for ix in 0..nx {
                        coords.push(cell.frac_to_cart([
                            ix as f64 / nx as f64,
                            iy as f64 / ny as f64,
                            iz as f64 / nz as f64,
                        ]));
                    }
                }
            }
            coords
        });
        let mut d = [0.0f64; 3];
        for (w, r) in rho.iter().map(|&v| v * dv).zip(coords.iter()) {
            d[0] += w * r[0];
            d[1] += w * r[1];
            d[2] += w * r[2];
        }
        Ok(vec![
            ("n_electrons".into(), ne),
            ("dipole_x".into(), d[0]),
            ("dipole_y".into(), d[1]),
            ("dipole_z".into(), d[2]),
        ])
    }
}

/// Records `max |Ψ*Ψ − I|` (channel `orthonormality_error`).
#[derive(Default)]
pub struct OrthonormalityObserver;

impl Observer for OrthonormalityObserver {
    fn name(&self) -> &'static str {
        "orthonormality"
    }
    fn observe(&mut self, ctx: &ObserverContext<'_>) -> Result<Vec<(String, f64)>, PtError> {
        Ok(vec![(
            "orthonormality_error".into(),
            orthonormality_error(&ctx.state.psi),
        )])
    }
}

/// Columnar record of a run: per-step times, fields, propagator stats and
/// every observer channel. This is the interchange format between the
/// simulation driver and the bench figure generators.
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

    /// An observer channel by name (`"energy"`, `"current_z"`, …), one
    /// value per step.
    pub fn channel(&self, name: &str) -> Option<&[f64]> {
        self.channels.get(name).map(Vec::as_slice)
    }

    /// Names of all recorded channels (sorted).
    pub fn channel_names(&self) -> Vec<&str> {
        self.channels.keys().map(String::as_str).collect()
    }

    fn push_sample(&mut self, name: String, value: f64, step: usize) -> Result<(), PtError> {
        // check before inserting so a failed push never leaves a phantom
        // empty channel behind (the partial series must stay whole-step)
        let len = self.channels.get(&name).map_or(0, Vec::len);
        if len != step {
            return Err(PtError::InvalidConfig(format!(
                "observer channel '{name}' emitted {len} values by step {step} — observers must emit the same channels every step"
            )));
        }
        self.channels.entry(name).or_default().push(value);
        Ok(())
    }

    fn close_step(&self, step: usize) -> Result<(), PtError> {
        for (name, col) in &self.channels {
            if col.len() != step + 1 {
                return Err(PtError::InvalidConfig(format!(
                    "observer channel '{name}' missing a value for step {step}"
                )));
            }
        }
        Ok(())
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
    /// potential, per-step stats and every observer channel) — the bridge
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
    observers: Vec<Box<dyn Observer>>,
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
            observers: Vec::new(),
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

    /// Append an observer to the pipeline (runs in registration order).
    pub fn observer(mut self, o: Box<dyn Observer>) -> Self {
        self.observers.push(o);
        self
    }

    /// Append the standard pipeline: energy, current, dipole/norm,
    /// orthonormality.
    pub fn standard_observers(mut self) -> Self {
        self.observers.extend(standard_observer_pipeline());
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
    /// step's [`StepUpdate`] (time, field, stats, every observer sample).
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
            observers: self.observers,
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

/// The standard observer pipeline (energy, current, dipole/norm,
/// orthonormality) — shared by [`SimulationBuilder::standard_observers`]
/// and [`Simulation::resume`].
fn standard_observer_pipeline() -> Vec<Box<dyn Observer>> {
    vec![
        Box::new(EnergyObserver),
        Box::new(CurrentObserver),
        Box::<DipoleNormObserver>::default(),
        Box::new(OrthonormalityObserver),
    ]
}

/// A configured rt-TDDFT run: owns the state, the propagator and the
/// observer pipeline.
pub struct Simulation<'a> {
    sys: &'a KsSystem,
    laser: Option<LaserPulse>,
    dt: f64,
    n_steps: usize,
    propagator: Box<dyn Propagator>,
    observers: Vec<Box<dyn Observer>>,
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

    /// Advance the configured number of steps, invoking the observer
    /// pipeline after each, and return the recorded series. Calling `run`
    /// again continues from the final state for another window. On error,
    /// the steps recorded so far stay retrievable via
    /// [`Simulation::take_partial_series`].
    ///
    /// The whole loop runs under the system's pool ([`KsSystem::install`]:
    /// its layout's cores, or the surrounding pool when it has none).
    pub fn run(&mut self) -> Result<TimeSeries, PtError> {
        let sys = self.sys;
        sys.install(|| self.run_inner())
    }

    fn run_inner(&mut self) -> Result<TimeSeries, PtError> {
        // a resumed simulation continues into its restored series; the
        // absolute step index keeps counting from there, so observers and
        // channels line up with the uninterrupted run
        let mut series = self.resume_base.take().unwrap_or_else(|| TimeSeries {
            propagator: self.propagator.name().to_string(),
            ..TimeSeries::default()
        });
        let base = series.len();
        self.partial = None;
        let needs_rho = self.observers.iter().any(|o| o.needs_density());
        for local_step in 0..self.n_steps {
            let step_index = base + local_step;
            if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                // honor the cancellation at the step boundary: persist a
                // final snapshot so a later resume continues bit-exactly,
                // then surface the typed non-failure
                if let Some(policy) = self.checkpoint.clone() {
                    let remaining = self.n_steps - local_step;
                    if let Err(e) = self.write_checkpoint(&policy, &series, remaining) {
                        self.partial = Some(series);
                        return Err(e);
                    }
                }
                self.partial = Some(series);
                return Err(PtError::Cancelled {
                    completed_steps: step_index,
                });
            }
            let stats =
                match self
                    .propagator
                    .step(self.sys, self.laser.as_ref(), &mut self.state, self.dt)
                {
                    Ok(s) => s,
                    Err(e) => {
                        self.partial = Some(series);
                        return Err(e);
                    }
                };
            let a = crate::propagator::a_field(self.laser.as_ref(), self.state.t);
            let rho = if needs_rho {
                Some(self.sys.density(&self.state.psi))
            } else {
                None
            };
            // gather this step's samples first, commit only if every
            // observer succeeded — the partial series then always holds
            // whole steps
            let mut step_samples: Vec<(String, f64)> = Vec::new();
            let mut failure: Option<PtError> = None;
            {
                let ctx = ObserverContext {
                    sys: self.sys,
                    state: &self.state,
                    a_field: a,
                    rho: rho.as_deref(),
                    step_index,
                    stats: &stats,
                };
                for obs in &mut self.observers {
                    match obs.observe(&ctx) {
                        Ok(samples) => step_samples.extend(samples),
                        Err(e) => {
                            failure = Some(e);
                            break;
                        }
                    }
                }
            }
            if failure.is_none() {
                let mut committed: Vec<String> = Vec::new();
                for (name, value) in &step_samples {
                    match series.push_sample(name.clone(), *value, step_index) {
                        Ok(()) => committed.push(name.clone()),
                        Err(e) => {
                            failure = Some(e);
                            break;
                        }
                    }
                }
                if failure.is_none() {
                    if let Err(e) = series.close_step(step_index) {
                        failure = Some(e);
                    }
                }
                if failure.is_some() {
                    // roll back this step's samples so the partial series
                    // holds only whole steps
                    for n in &committed {
                        if let Some(col) = series.channels.get_mut(n) {
                            col.pop();
                        }
                    }
                }
            }
            if let Some(e) = failure {
                self.partial = Some(series);
                return Err(e);
            }
            if let Some(tap) = &mut self.tap {
                tap(&StepUpdate {
                    step_index,
                    t: self.state.t,
                    a_field: a,
                    stats: &stats,
                    samples: &step_samples,
                });
            }
            series.t.push(self.state.t);
            series.a_field.push(a);
            series.stats.push(stats);
            pt_trace::counter_add(pt_trace::Counter::StepsCommitted, 1);
            if let Some(policy) = &self.checkpoint {
                if (local_step + 1) % policy.every == 0 {
                    let policy = policy.clone();
                    let remaining = self.n_steps - (local_step + 1);
                    if let Err(e) = self.write_checkpoint(&policy, &series, remaining) {
                        self.partial = Some(series);
                        return Err(e);
                    }
                }
            }
        }
        Ok(series)
    }

    /// Serialize the current run state into `policy.dir` (borrowing ψ and
    /// the series — no clones of orbital-sized data but the ACE projector
    /// the propagator captures) and prune the oldest of this run's own
    /// snapshots past `policy.keep`.
    fn write_checkpoint(
        &mut self,
        policy: &CheckpointPolicy,
        series: &TimeSeries,
        steps_remaining: usize,
    ) -> Result<(), PtError> {
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

    /// Reconstruct a killed run from a snapshot, with the standard
    /// observer pipeline and the propagator recorded in the snapshot.
    /// `run` on the result takes the remaining steps and returns the
    /// *full* series (restored + new steps) — bit-identical to an
    /// uninterrupted run when the original run used the standard
    /// observers.
    ///
    /// The snapshot must have been taken against a system of the same
    /// shape: the recorded [`pt_ham::SystemSignature`] and occupations are
    /// revalidated and a mismatch is a typed error, as is a propagator
    /// this crate cannot rebuild ([`crate::PropagatorState::Opaque`]).
    pub fn resume(sys: &'a KsSystem, path: impl AsRef<Path>) -> Result<Simulation<'a>, PtError> {
        let ck = RunCheckpoint::read(path)?;
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
            observers: standard_observer_pipeline(),
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

    #[test]
    fn failed_run_keeps_the_partial_series() {
        // an observer that errors on the third step: the two completed
        // steps' diagnostics must survive on the Simulation
        struct FailAt(usize);
        impl Observer for FailAt {
            fn name(&self) -> &'static str {
                "fail-at"
            }
            fn observe(
                &mut self,
                ctx: &ObserverContext<'_>,
            ) -> Result<Vec<(String, f64)>, PtError> {
                if ctx.step_index == self.0 {
                    Err(PtError::InvalidConfig("injected observer failure".into()))
                } else {
                    Ok(vec![("probe".into(), ctx.step_index as f64)])
                }
            }
        }
        let sys = small_sys();
        // identity-block initial orbitals are fine: we only exercise the
        // bookkeeping, and RK4 steps on any state
        let psi = CMat::from_fn(sys.grids.ng(), sys.n_bands(), |i, j| {
            if i == j {
                pt_num::c64::ONE
            } else {
                pt_num::c64::ZERO
            }
        });
        let mut sim = SimulationBuilder::new(&sys)
            .dt(0.01)
            .steps(5)
            .propagator(Box::new(crate::propagator::Rk4Propagator::default()))
            .observer(Box::new(FailAt(2)))
            .initial_orbitals(psi)
            .build()
            .unwrap();
        assert!(matches!(sim.run(), Err(PtError::InvalidConfig(_))));
        let partial = sim.take_partial_series().expect("partial series kept");
        assert_eq!(partial.len(), 2);
        assert_eq!(partial.channel("probe"), Some(&[0.0, 1.0][..]));
        // taking it drains it; a new run clears any stale partial
        assert!(sim.take_partial_series().is_none());
    }

    #[test]
    fn partial_series_stays_whole_when_a_channel_goes_missing() {
        // an observer that stops emitting one of its channels: close_step
        // errors, and the rollback must leave only whole steps behind
        struct Flaky;
        impl Observer for Flaky {
            fn name(&self) -> &'static str {
                "flaky"
            }
            fn observe(
                &mut self,
                ctx: &ObserverContext<'_>,
            ) -> Result<Vec<(String, f64)>, PtError> {
                let mut out = vec![("x".to_string(), 1.0)];
                if ctx.step_index == 0 {
                    out.push(("w".to_string(), 2.0));
                }
                Ok(out)
            }
        }
        let sys = small_sys();
        let psi = CMat::from_fn(sys.grids.ng(), sys.n_bands(), |i, j| {
            if i == j {
                pt_num::c64::ONE
            } else {
                pt_num::c64::ZERO
            }
        });
        let mut sim = SimulationBuilder::new(&sys)
            .dt(0.01)
            .steps(3)
            .propagator(Box::new(crate::propagator::Rk4Propagator::default()))
            .observer(Box::new(Flaky))
            .initial_orbitals(psi)
            .build()
            .unwrap();
        assert!(matches!(sim.run(), Err(PtError::InvalidConfig(_))));
        let partial = sim.take_partial_series().unwrap();
        assert_eq!(partial.len(), 1);
        assert_eq!(partial.channel("x").map(<[f64]>::len), Some(1));
        assert_eq!(partial.channel("w").map(<[f64]>::len), Some(1));
    }

    #[test]
    fn time_series_channels_are_queryable() {
        let mut ts = TimeSeries::default();
        ts.push_sample("energy".into(), -1.0, 0).unwrap();
        ts.close_step(0).unwrap();
        ts.t.push(0.1);
        assert_eq!(ts.channel("energy"), Some(&[-1.0][..]));
        assert_eq!(ts.channel("missing"), None);
        assert_eq!(ts.channel_names(), vec!["energy"]);
        assert_eq!(ts.len(), 1);
        // inconsistent emission is a typed error
        assert!(ts.push_sample("late".into(), 0.0, 1).is_err());
    }
}
