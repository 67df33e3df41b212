//! The run-checkpoint schema: what `Simulation` persists through `pt-io`
//! and how it comes back.
//!
//! A checkpoint holds what the next step of a resumed run **reads**, at a
//! step boundary, and nothing else: the ψ orbitals, occupations and shape
//! fingerprint (revalidated against the system), time/step bookkeeping,
//! laser parameters, the propagator's options and its one piece of
//! cross-step state ([`PropagatorState`]: the ACE projector ξ with its
//! window position) and every accumulated [`TimeSeries`] channel. What a
//! resume recomputes or starts empty is not state: Φ (bit-for-bit ψ in
//! the parallel-transport gauge), the density, the Anderson history
//! (Alg. 1 starts each step's fixed point from an empty one). A snapshot
//! is therefore one ψ-sized block (two under ACE) plus small change, and a
//! killed-and-resumed trajectory is bit-identical to an uninterrupted one.
//!
//! Sections are read **by name** and unknown ones are ignored, so files
//! written before the capture shrank (with `phi`, `rho`,
//! `prop/anderson/*`) resume to the same bits. Before adding a section,
//! say what resume reads from it.
//!
//! The byte-level container (magic, version, section table, per-section
//! CRC-32) lives in [`pt_io::format`]; this module only defines which
//! sections exist and what they mean — see `DESIGN.md` ("Snapshot format
//! & resume semantics") for the full layout.

use crate::laser::LaserPulse;
use crate::propagator::{AceCapture, PropagatorState, PtCnOptions, Rk4Options, StepStats};
use crate::simulation::TimeSeries;
use pt_ham::{ExchangeMode, PtError, SystemSignature};
use pt_io::{SnapshotFile, SnapshotWriter};
use pt_linalg::CMat;
use pt_mpi::Wire;
use std::path::{Path, PathBuf};

/// How a [`crate::Simulation`] emits rolling snapshots from inside its
/// time loop (configured via `SimulationBuilder::checkpoint_every`).
#[derive(Clone, Debug)]
pub(crate) struct CheckpointPolicy {
    /// Emit a snapshot after every `every` completed steps.
    pub(crate) every: usize,
    /// Directory the `ckpt_<step>.ptio` files land in (created on first
    /// write).
    pub(crate) dir: PathBuf,
    /// How many snapshots to keep. After each write the emitting run
    /// prunes the oldest of **its own** snapshots — files it did not write
    /// (a previous run's, a different trajectory sharing the directory)
    /// are never deleted.
    pub(crate) keep: usize,
}

impl CheckpointPolicy {
    pub(crate) fn validate(&self) -> Result<(), PtError> {
        if self.every == 0 {
            return Err(PtError::InvalidConfig(
                "checkpoint interval must be at least 1 step".into(),
            ));
        }
        if self.keep == 0 {
            return Err(PtError::InvalidConfig(
                "checkpoint retention must keep at least 1 snapshot".into(),
            ));
        }
        if self.dir.as_os_str().is_empty() {
            return Err(PtError::InvalidConfig(
                "checkpoint directory must be nonempty".into(),
            ));
        }
        Ok(())
    }
}

/// File name of the snapshot emitted after absolute step `step`.
pub fn checkpoint_path(dir: &Path, step: usize) -> PathBuf {
    dir.join(format!("ckpt_{step:08}.ptio"))
}

/// The most recent snapshot in `dir` (by step number in the file name),
/// if any — what a restarted job resumes from. Purely name-based; use
/// [`crate::Simulation::resume_latest`] (which validates via
/// [`pt_io::scan_snapshots`]) when the directory may hold corrupt files.
pub fn latest_checkpoint(dir: &Path) -> Result<Option<PathBuf>, PtError> {
    Ok(pt_io::snapshot_files(dir)?.into_iter().next_back())
}

/// One captured run state — everything [`crate::Simulation::resume`]
/// needs. Produced inside the time loop; also constructible by hand for
/// tooling.
#[derive(Debug)]
pub struct RunCheckpoint {
    /// Shape fingerprint of the system the run was driving.
    pub signature: SystemSignature,
    /// Steps the interrupted `run` still had to take.
    pub steps_remaining: usize,
    /// Current time (a.u.), i.e. the post-step time of the last completed
    /// step.
    pub t: f64,
    /// Step size.
    pub dt: f64,
    /// Occupations of the system (revalidated on resume).
    pub occupations: Vec<f64>,
    /// Propagated orbitals (for hybrids also the exchange orbitals: in the
    /// PT gauge Φ = Ψ).
    pub psi: CMat,
    /// Laser coupling.
    pub laser: Option<LaserPulse>,
    /// Propagator options + internal state.
    pub propagator: PropagatorState,
    /// The exchange mode a legacy snapshot pinned on its propagator (the
    /// optional `prop/exch` section of the former per-propagator
    /// override; never written any more). Resume refuses a system whose
    /// [`pt_ham::KsSystem::exchange_mode`] differs rather than switching
    /// silently.
    pub pinned_exchange: Option<ExchangeMode>,
    /// Every step recorded so far (the fixed record of each).
    pub series: TimeSeries,
}

/// Borrowed view of a run state: the time loop writes snapshots through
/// this (ψ, occupations and the growing `TimeSeries` are *borrowed*, never
/// cloned, so a checkpoint does not transiently double the run's memory).
/// Fields as on [`RunCheckpoint`].
pub(crate) struct RunCheckpointView<'a> {
    pub(crate) signature: SystemSignature,
    pub(crate) steps_remaining: usize,
    pub(crate) t: f64,
    pub(crate) dt: f64,
    pub(crate) occupations: &'a [f64],
    pub(crate) psi: &'a CMat,
    pub(crate) laser: Option<&'a LaserPulse>,
    pub(crate) propagator: &'a PropagatorState,
    pub(crate) series: &'a TimeSeries,
}

impl RunCheckpointView<'_> {
    /// Serialize into `path` (atomically: temporary sibling + rename).
    pub(crate) fn write(&self, path: &Path) -> Result<(), PtError> {
        let mut w = SnapshotWriter::create(path);
        w.put_u64s("sig", &self.signature.to_words())?;
        w.put_u64s("steps", &[self.steps_remaining as u64])?;
        w.put_f64s("time", &[self.t, self.dt])?;
        w.put_f64s("occ", self.occupations)?;
        w.put_cmat("psi", self.psi)?;
        if let Some(l) = self.laser {
            w.put_f64s(
                "laser",
                &[
                    l.a0,
                    l.omega,
                    l.t0,
                    l.sigma,
                    l.polarization[0],
                    l.polarization[1],
                    l.polarization[2],
                ],
            )?;
        }
        write_propagator(&mut w, self.propagator)?;
        write_series(&mut w, self.series)?;
        w.finish()
    }
}

impl RunCheckpoint {
    /// Serialize into `path` (atomically: temporary sibling + rename),
    /// every section at its exact bits — what the bit-exact resume
    /// guarantee rests on. The [`Wire`] argument is kept for existing
    /// callers and ignored.
    pub fn write(&self, path: impl AsRef<Path>, _wire: Wire) -> Result<(), PtError> {
        RunCheckpointView {
            signature: self.signature,
            steps_remaining: self.steps_remaining,
            t: self.t,
            dt: self.dt,
            occupations: &self.occupations,
            psi: &self.psi,
            laser: self.laser.as_ref(),
            propagator: &self.propagator,
            series: &self.series,
        }
        .write(path.as_ref())
    }

    /// Read a checkpoint back (container defects — truncation, CRC,
    /// version — and schema defects all surface as typed [`PtError`]s).
    pub fn read(path: impl AsRef<Path>) -> Result<Self, PtError> {
        let path = path.as_ref();
        let f = SnapshotFile::open(path)?;
        let schema = |reason: String| PtError::SnapshotFormat {
            path: path.display().to_string(),
            reason,
        };
        let signature = SystemSignature::from_words(&f.u64s("sig")?)
            .ok_or_else(|| schema("'sig' section has the wrong arity".into()))?;
        let steps_remaining = f.u64("steps")? as usize;
        let (t, dt) = match f.f64s("time")?.as_slice() {
            [t, dt] => (*t, *dt),
            other => return Err(schema(format!("'time' holds {} values", other.len()))),
        };
        // the checks `SimulationBuilder::build` makes on the same two
        // values: a CRC-valid file is still outside input
        if !dt.is_finite() || dt <= 0.0 {
            return Err(schema(format!(
                "'time' holds step size {dt}, which is not positive and finite"
            )));
        }
        if !t.is_finite() {
            return Err(schema(format!("'time' holds non-finite time {t}")));
        }
        let occupations = f.f64s("occ")?;
        let psi = f.cmat("psi")?;
        let laser = if f.has("laser") {
            let l = match f.f64s("laser")?.as_slice() {
                [a0, omega, t0, sigma, px, py, pz] => LaserPulse {
                    a0: *a0,
                    omega: *omega,
                    t0: *t0,
                    sigma: *sigma,
                    polarization: [*px, *py, *pz],
                },
                other => return Err(schema(format!("'laser' holds {} values", other.len()))),
            };
            l.validate()
                .map_err(|msg| schema(format!("'laser': {msg}")))?;
            Some(l)
        } else {
            None
        };
        let propagator = read_propagator(&f, &schema)?;
        let pinned_exchange = read_pinned_exchange(&f, &schema)?;
        let series = read_series(&f, &schema)?;
        Ok(RunCheckpoint {
            signature,
            steps_remaining,
            t,
            dt,
            occupations,
            psi,
            laser,
            propagator,
            pinned_exchange,
            series,
        })
    }
}

fn write_propagator(w: &mut SnapshotWriter, state: &PropagatorState) -> Result<(), PtError> {
    match state {
        PropagatorState::PtCn { opts, ace } => {
            w.put_str("prop/name", "pt-cn")?;
            w.put_f64s("prop/ptcn_f", &[opts.rho_tol, opts.beta])?;
            w.put_u64s(
                "prop/ptcn_u",
                &[
                    opts.max_scf as u64,
                    opts.anderson_depth as u64,
                    u64::from(opts.strict),
                ],
            )?;
            // The ACE projector ξ is snapshotted **verbatim** (never
            // rebuilt from the restored Ψ): a resume mid-refresh-window
            // must keep propagating under the exact frozen projector the
            // killed run was using, or the resumed trajectory would
            // silently diverge bit-wise from the uninterrupted one.
            if let Some(a) = ace {
                w.put_u64s("prop/ace", &[a.steps_since_refresh as u64])?;
                w.put_cmat("prop/ace_xi", &a.xi)?;
            }
            Ok(())
        }
        PropagatorState::Rk4 { opts } => {
            w.put_str("prop/name", "rk4")?;
            w.put_u64s("prop/rk4", &[u64::from(opts.reorthonormalize)])
        }
        PropagatorState::Opaque { name } => {
            w.put_str("prop/name", name)?;
            w.put_u64s("prop/opaque", &[1])
        }
    }
}

fn read_propagator(
    f: &SnapshotFile,
    schema: &impl Fn(String) -> PtError,
) -> Result<PropagatorState, PtError> {
    let name = f.str("prop/name")?;
    let read_ptcn = || -> Result<PtCnOptions, PtError> {
        let (rho_tol, beta) = match f.f64s("prop/ptcn_f")?.as_slice() {
            [r, b] => (*r, *b),
            other => {
                return Err(schema(format!(
                    "'prop/ptcn_f' holds {} values",
                    other.len()
                )))
            }
        };
        let (max_scf, anderson_depth, strict) = match f.u64s("prop/ptcn_u")?.as_slice() {
            [m, d, s] => (*m as usize, *d as usize, *s != 0),
            other => {
                return Err(schema(format!(
                    "'prop/ptcn_u' holds {} values",
                    other.len()
                )))
            }
        };
        let opts = PtCnOptions {
            rho_tol,
            max_scf,
            anderson_depth,
            beta,
            strict,
        };
        // the checks the first step makes: options that can never step are
        // a defect of this file, so `resume_latest` falls back past it
        opts.validate()
            .map_err(|e| schema(format!("'prop/ptcn_f'/'prop/ptcn_u' can never step: {e}")))?;
        Ok(opts)
    };
    // Section absent in pre-ACE snapshots; `f.has` gating keeps the old
    // format readable (absent → no projector).
    let read_ace = || -> Result<Option<AceCapture>, PtError> {
        if !f.has("prop/ace") {
            return Ok(None);
        }
        let steps_since_refresh = match f.u64s("prop/ace")?.as_slice() {
            [s] => *s as usize,
            other => return Err(schema(format!("'prop/ace' holds {} values", other.len()))),
        };
        Ok(Some(AceCapture {
            xi: f.cmat("prop/ace_xi")?,
            steps_since_refresh,
        }))
    };
    match name.as_str() {
        // "pt-cn-dist" is what snapshots of the former distributed
        // propagator type carry: the same state, plus a `prop/dist` layout
        // section that is ignored — the layout comes from the system the
        // run is resumed on
        "pt-cn" | "pt-cn-dist" => Ok(PropagatorState::PtCn {
            opts: read_ptcn()?,
            ace: read_ace()?,
        }),
        "rk4" => {
            let reorthonormalize = f.u64("prop/rk4")? != 0;
            Ok(PropagatorState::Rk4 {
                opts: Rk4Options { reorthonormalize },
            })
        }
        _ => Ok(PropagatorState::Opaque { name }),
    }
}

/// The optional `prop/exch` section of a legacy snapshot: `[tag, refresh
/// interval, inner substeps]`, written when the run pinned an exchange
/// mode on its propagator. Tag 2 is the removed `AceMts` mode — refused
/// here as [`PtError::InvalidConfig`] (not a schema defect:
/// `resume_latest` must surface it, not fall back to an older snapshot of
/// the same run).
fn read_pinned_exchange(
    f: &SnapshotFile,
    schema: &impl Fn(String) -> PtError,
) -> Result<Option<ExchangeMode>, PtError> {
    if !f.has("prop/exch") {
        return Ok(None);
    }
    let mode = match f.u64s("prop/exch")?.as_slice() {
        [0, _, _] => ExchangeMode::Full,
        [1, r, _] => ExchangeMode::Ace {
            refresh_interval: *r as usize,
        },
        [2, r, s] => {
            return Err(PtError::InvalidConfig(format!(
                "snapshot was taken under the removed AceMts exchange mode \
                 (refresh interval {r}, {s} inner substeps); it cannot be resumed — \
                 rerun under ExchangeMode::Full or ExchangeMode::Ace"
            )))
        }
        other => return Err(schema(format!("'prop/exch' holds {other:?}"))),
    };
    mode.validate()?;
    Ok(Some(mode))
}

fn write_series(w: &mut SnapshotWriter, s: &TimeSeries) -> Result<(), PtError> {
    w.put_str("series/propagator", &s.propagator)?;
    w.put_f64s("series/t", &s.t)?;
    let mut a = Vec::with_capacity(3 * s.a_field.len());
    for v in &s.a_field {
        a.extend_from_slice(v);
    }
    w.put_f64s("series/a", &a)?;
    let mut su = Vec::with_capacity(3 * s.stats.len());
    let mut sf = Vec::with_capacity(s.stats.len());
    for st in &s.stats {
        su.push(st.scf_iterations as u64);
        su.push(st.h_applications as u64);
        su.push(u64::from(st.converged));
        sf.push(st.rho_residual);
    }
    w.put_u64s("series/stats", &su)?;
    w.put_f64s("series/stats_resid", &sf)?;
    let names = s.channel_names();
    w.put_str("series/channels", &names.join("\n"))?;
    for name in names {
        w.put_f64s(
            &format!("series/ch/{name}"),
            s.channel(name)
                .expect("invariant: name came from channel_names()"),
        )?;
    }
    Ok(())
}

fn read_series(
    f: &SnapshotFile,
    schema: &impl Fn(String) -> PtError,
) -> Result<TimeSeries, PtError> {
    let propagator = f.str("series/propagator")?;
    let t = f.f64s("series/t")?;
    let n = t.len();
    let a_raw = f.f64s("series/a")?;
    if a_raw.len() != 3 * n {
        return Err(schema(format!(
            "'series/a' holds {} values, expected {}",
            a_raw.len(),
            3 * n
        )));
    }
    let a_field: Vec<[f64; 3]> = a_raw.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect();
    let su = f.u64s("series/stats")?;
    let sf = f.f64s("series/stats_resid")?;
    if su.len() != 3 * n || sf.len() != n {
        return Err(schema(format!(
            "'series/stats' holds {}+{} values, expected {}+{}",
            su.len(),
            sf.len(),
            3 * n,
            n
        )));
    }
    let stats: Vec<StepStats> = su
        .chunks_exact(3)
        .zip(&sf)
        .map(|(u, &resid)| StepStats {
            scf_iterations: u[0] as usize,
            h_applications: u[1] as usize,
            rho_residual: resid,
            converged: u[2] != 0,
            // wall-clock phases are observational and never serialized: a
            // resumed series restores them as zeros, keeping snapshot
            // bytes identical whether tracing was armed or not
            phases: Default::default(),
        })
        .collect();
    let names = f.str("series/channels")?;
    let mut channels = Vec::new();
    for name in names.split('\n').filter(|s| !s.is_empty()) {
        let col = f.f64s(&format!("series/ch/{name}"))?;
        if col.len() != n {
            return Err(schema(format!(
                "channel '{name}' holds {} values, expected {n}",
                col.len()
            )));
        }
        channels.push((name.to_string(), col));
    }
    TimeSeries::from_parts(propagator, t, a_field, stats, channels)
}
