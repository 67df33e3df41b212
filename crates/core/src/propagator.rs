//! Time propagators behind one trait: PT-CN (Alg. 1) and the RK4 baseline.
//!
//! [`Propagator`] is the object-safe abstraction the [`crate::Simulation`]
//! driver works against: a propagator is an *algorithm plus its options* —
//! the physical problem ([`KsSystem`]) and the drive ([`LaserPulse`]) are
//! passed into every [`Propagator::step`], so one propagator value can be
//! reused across systems and boxed for runtime selection
//! (`Box<dyn Propagator>`).

use crate::anderson_c::BandAndersonMixer;
use crate::distributed::{acquire_engine, EngineKernels};
use crate::laser::LaserPulse;
use pt_ham::{
    density_residual, pt_residual, AceOperator, ExchangeMode, FockMode, FockOperator, KsSystem,
    PtError,
};
use pt_linalg::{gemm, orthonormalize_columns, CMat, Op};
use pt_mpi::RankEngine;
use pt_num::c64;
use std::fmt;

/// The propagated state.
#[derive(Clone)]
pub struct TdState {
    /// Occupied orbitals (sphere coefficients, columns).
    pub psi: CMat,
    /// Current time (a.u.).
    pub t: f64,
}

impl TdState {
    /// State at `t = 0` from an orbital block (usually SCF ground-state
    /// orbitals).
    pub fn new(psi: CMat) -> Self {
        TdState { psi, t: 0.0 }
    }
}

/// Per-step diagnostics (the quantities §7 accounts for).
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    /// SCF (fixed-point) iterations used.
    pub scf_iterations: usize,
    /// Full `HΨ` block applications (each contains one Fock exchange
    /// application per band when hybrid).
    pub h_applications: usize,
    /// Final fixed-point density residual.
    pub rho_residual: f64,
    /// Whether the step's implicit solve reached its tolerance (always
    /// `true` for explicit propagators).
    pub converged: bool,
    /// Wall-clock phase breakdown of the step — **observational only**.
    /// All zeros unless `pt_trace` is armed; deliberately excluded from
    /// every bit-compared surface (series tables, checkpoints, streaming
    /// samples), so armed and disarmed runs stay bit-identical.
    pub phases: StepPhases,
}

/// Wall-clock seconds per PT-CN step phase (the SC'19 §7 attribution:
/// where a step's time actually goes). Measured via `pt_trace` spans;
/// every field is exactly `0.0` when tracing is disarmed.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepPhases {
    /// Whole-step wall time (the enclosing propagator span).
    pub wall: f64,
    /// `HΨ` block applications (Fock/ACE exchange included).
    pub h_apply: f64,
    /// Alg. 3 residual evaluations (`pt_rhs` + the fixed-point residual).
    pub residual: f64,
    /// Anderson mixing.
    pub mix: f64,
    /// Density builds (`sys.density`).
    pub density: f64,
    /// Re-orthonormalization (Cholesky + TRSM, §3.4).
    pub ortho: f64,
    /// ACE projector builds (refresh rounds only).
    pub ace_build: f64,
    /// Measured remainder: `wall −` the named phases (never negative).
    /// Honest bookkeeping, so the per-step phase sum matches the step
    /// wall time by construction.
    pub other: f64,
}

impl StepPhases {
    /// Sum of the named (non-`wall`, non-`other`) phases.
    pub fn named_sum(&self) -> f64 {
        self.h_apply + self.residual + self.mix + self.density + self.ortho + self.ace_build
    }

    /// `wall` reconciled against the named phases: every phase column plus
    /// `other` sums to `wall` exactly (up to float rounding).
    pub(crate) fn reconcile(&mut self, wall: f64) {
        self.wall = wall;
        self.other = (wall - self.named_sum()).max(0.0);
    }

    /// Fold one refresh round's phases into the step's accumulating total
    /// (`wall`/`other` included — the step re-reconciles against its own
    /// span).
    pub(crate) fn absorb(&mut self, sub: &StepPhases) {
        self.wall += sub.wall;
        self.h_apply += sub.h_apply;
        self.residual += sub.residual;
        self.mix += sub.mix;
        self.density += sub.density;
        self.ortho += sub.ortho;
        self.ace_build += sub.ace_build;
        self.other += sub.other;
    }
}

/// One step of a time-dependent Kohn–Sham propagation.
///
/// Object-safe: the `ptcn_vs_rk4` example picks the implementation at
/// runtime through `Box<dyn Propagator>`. Implementations must advance
/// `state.t` by exactly `dt` on success.
pub trait Propagator {
    /// Short human-readable identifier (for logs and series metadata).
    fn name(&self) -> &'static str;

    /// Advance `state` by `dt` under `sys` (+ optional laser coupling).
    fn step(
        &mut self,
        sys: &KsSystem,
        laser: Option<&LaserPulse>,
        state: &mut TdState,
        dt: f64,
    ) -> Result<StepStats, PtError>;

    /// Capture everything needed to reconstruct this propagator
    /// mid-trajectory (options plus whatever internal state the *next*
    /// step reads, like a live ACE projector) — what a run snapshot
    /// records. The default is
    /// [`PropagatorState::Opaque`], which round-trips the name but cannot
    /// be reconstructed: custom propagators should override this to become
    /// resumable.
    fn capture(&self) -> PropagatorState {
        PropagatorState::Opaque {
            name: self.name().to_string(),
        }
    }
}

/// The capturable state of a [`Propagator`] — the bridge between the live
/// trait object and the snapshot file (`pt-core`'s checkpoint schema
/// serializes this, [`propagator_from_state`] rebuilds the trait object on
/// resume).
#[derive(Clone, Debug)]
pub enum PropagatorState {
    /// PT-CN (Alg. 1). Layout-free: which ranks × threads decomposition
    /// a resumed run uses comes from the system it is resumed on.
    PtCn {
        /// Options.
        opts: PtCnOptions,
        /// Live ACE projector + refresh position (`Ace` mode only) — the
        /// exact ξ that was applied at capture, so a resume landing
        /// mid-refresh-window reuses it instead of rebuilding from the
        /// (by now different) restored Ψ.
        ace: Option<AceCapture>,
    },
    /// RK4 baseline.
    Rk4 {
        /// Options.
        opts: Rk4Options,
    },
    /// A propagator that did not implement [`Propagator::capture`]; its
    /// name survives for diagnostics but it cannot be rebuilt.
    Opaque {
        /// [`Propagator::name`] of the original.
        name: String,
    },
}

/// The serialized form of a live ACE projector: the columns ξ plus the
/// position inside the current refresh window. Recorded verbatim in run
/// snapshots so that kill/resume inside a window (`ace_refresh_interval
/// > 1`) continues with the identical operator, bit for bit.
#[derive(Clone, Debug)]
pub struct AceCapture {
    /// Projector columns ξ (N_G × N_φ).
    pub xi: CMat,
    /// Steps completed since ξ was last rebuilt.
    pub steps_since_refresh: usize,
}

/// Rebuild a boxed [`Propagator`] from a captured [`PropagatorState`].
/// [`PropagatorState::Opaque`] is a typed error: the snapshot records that
/// the original run used a propagator this crate cannot reconstruct, so
/// the run cannot be resumed — only PT-CN and RK4 states are rebuilt.
pub fn propagator_from_state(state: PropagatorState) -> Result<Box<dyn Propagator>, PtError> {
    match state {
        // the rank engine is runtime-only state: rebuilt lazily on the
        // first post-resume step, never part of the snapshot
        PropagatorState::PtCn { opts, ace } => Ok(Box::new(PtCnPropagator {
            opts,
            ace: ace.map(AceRefreshState::from_capture),
            engine: None,
        })),
        PropagatorState::Rk4 { opts } => Ok(Box::new(Rk4Propagator { opts })),
        PropagatorState::Opaque { name } => Err(PtError::InvalidConfig(format!(
            "snapshot was taken with propagator '{name}', which cannot be reconstructed; \
             only pt-cn and rk4 runs resume from a snapshot"
        ))),
    }
}

/// PT-CN options (§4 settings as defaults).
#[derive(Clone, Copy, Debug)]
pub struct PtCnOptions {
    /// Density convergence threshold (paper: 1e-6).
    pub rho_tol: f64,
    /// Max SCF iterations per step (paper observes ~22 on average).
    pub max_scf: usize,
    /// Anderson history depth (paper: 20).
    pub anderson_depth: usize,
    /// Anderson relaxation β (positive).
    pub beta: f64,
    /// When `true`, a step whose fixed point stays above `rho_tol` after
    /// `max_scf` iterations returns [`PtError::NotConverged`] instead of
    /// the best-effort state (default: `false`, the paper's behavior —
    /// accept the step and report the residual in [`StepStats`]).
    pub strict: bool,
}

impl Default for PtCnOptions {
    fn default() -> Self {
        PtCnOptions {
            rho_tol: 1e-6,
            max_scf: 40,
            anderson_depth: 20,
            beta: 1.0,
            strict: false,
        }
    }
}

impl PtCnOptions {
    /// Reject malformed options with a typed error before any physics
    /// runs.
    pub(crate) fn validate(&self) -> Result<(), PtError> {
        if !self.rho_tol.is_finite() || self.rho_tol <= 0.0 {
            return Err(PtError::InvalidConfig(format!(
                "PT-CN density tolerance must be positive and finite, got {}",
                self.rho_tol
            )));
        }
        if self.max_scf == 0 {
            return Err(PtError::InvalidConfig(
                "PT-CN max_scf must be at least 1".into(),
            ));
        }
        if self.anderson_depth == 0 {
            return Err(PtError::InvalidConfig(
                "PT-CN Anderson history depth must be at least 1".into(),
            ));
        }
        // β = 0 would mix nothing in: the density never moves, so the
        // residual reads 0 and an unconverged step reports convergence
        if !self.beta.is_finite() || self.beta <= 0.0 {
            return Err(PtError::InvalidConfig(format!(
                "PT-CN mixing parameter beta must be positive and finite, got {}",
                self.beta
            )));
        }
        Ok(())
    }
}

/// RK4 options.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rk4Options {
    /// Re-orthonormalize (Cholesky + TRSM) after every step. Off by
    /// default: plain RK4 is the paper's Fig. 6 baseline, and its norm
    /// drift is exactly what the stability probe measures.
    pub reorthonormalize: bool,
}

/// The implicit parallel-transport Crank–Nicolson propagator (Alg. 1) —
/// the one PT-CN type, for every ranks × threads layout.
///
/// The layout is read from [`KsSystem::layout`] at step time (none =
/// 1 × the installed pool). With one rank every `HΨ` and residual runs
/// **inline** on the installed pool — no engine, no rank thread; with more
/// they are jobs on a persistent [`RankEngine`] the propagator builds
/// lazily on its first such step (see [`crate::distributed`]). Both sides
/// produce the same bits.
///
/// How the exchange is evaluated is read off the system the same way
/// ([`KsSystem::exchange_mode`]).
///
/// The only state that crosses a step boundary is the ACE projector ξ
/// with its position in the refresh window ([`Propagator::capture`]
/// records exactly that, beside the options); the Anderson history is a
/// local of each step's fixed point. The engine is runtime-only state:
/// never cloned, captured or snapshotted.
#[derive(Default)]
pub struct PtCnPropagator {
    /// Options.
    pub opts: PtCnOptions,
    pub(crate) ace: Option<AceRefreshState>,
    /// The spawn-once rank team of a `ranks > 1` layout.
    pub(crate) engine: Option<RankEngine>,
}

impl Clone for PtCnPropagator {
    /// Clones configuration and the ACE refresh state; the clone rebuilds
    /// its own rank engine lazily.
    fn clone(&self) -> Self {
        PtCnPropagator {
            opts: self.opts,
            ace: self.ace.clone(),
            engine: None,
        }
    }
}

impl PtCnPropagator {
    /// Propagator with the given options.
    pub fn new(opts: PtCnOptions) -> Self {
        PtCnPropagator {
            opts,
            ..Default::default()
        }
    }
}

impl fmt::Debug for PtCnPropagator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PtCnPropagator")
            .field("opts", &self.opts)
            .field("engine", &self.engine)
            .finish()
    }
}

/// `out = H Ψ − Ψ (Ψ* H Ψ)` — the PT residual RHS.
fn pt_rhs(hpsi: &CMat, psi: &CMat) -> CMat {
    let nb = psi.ncols();
    let mut s = CMat::zeros(nb, nb);
    gemm(
        c64::ONE,
        psi,
        Op::ConjTrans,
        hpsi,
        Op::None,
        c64::ZERO,
        &mut s,
    );
    let mut out = hpsi.clone();
    gemm(-c64::ONE, psi, Op::None, &s, Op::None, c64::ONE, &mut out);
    out
}

pub(crate) fn a_field(laser: Option<&LaserPulse>, t: f64) -> [f64; 3] {
    laser.map(|l| l.a_field(t)).unwrap_or([0.0; 3])
}

/// Cholesky + TRSM re-orthonormalization (§3.4). No ridge: the block is
/// near-orthonormal after a step, so the overlap is well conditioned.
fn reorthonormalize(psi: &mut CMat) {
    orthonormalize_columns(psi, 0.0);
}

/// The execution-strategy points of a PT-CN step: the full
/// `H[ρ(Ψ), Ψ] Ψ` application (`Φ = Ψ` for hybrids, per the
/// parallel-transport gauge), the ACE build and the fixed-point residual.
/// Two implementations, selected by the layout's rank count:
/// [`InlineKernels`] (one rank: in process on the installed pool) and
/// `EngineKernels` (more: jobs on the persistent rank engine) — equal to
/// the bit.
pub(crate) trait StepKernels {
    /// One full `H Ψ` application. With `ace: None` the exchange part (if
    /// hybrid) is the exact pair-FFT Fock loop over `Φ = Ψ` (the PT
    /// gauge); with `Some(op)` the frozen rank-N_φ ACE projector stands in
    /// for it and no pair FFTs run at all.
    fn apply_h(
        &mut self,
        sys: &KsSystem,
        rho: &[f64],
        psi: &CMat,
        a: [f64; 3],
        ace: Option<&AceOperator>,
    ) -> Result<CMat, PtError>;

    /// Build the ACE projector `ξ = W L^{-H}` from `phi`: one full
    /// exchange application over the block (`W = V_X Φ`), then the small
    /// Cholesky/TRSM factorization on the driver.
    fn build_ace(&mut self, sys: &KsSystem, phi: &CMat) -> Result<AceOperator, PtError>;

    /// The fixed-point residual
    /// `R_f = Ψ_f + i·dt/2·(H_f Ψ_f − Ψ_f (Ψ_f* H_f Ψ_f)) − Ψ_{n+1/2}`
    /// (Alg. 3).
    fn residual(
        &mut self,
        psi_f: &CMat,
        hpsi_f: &CMat,
        psi_half: &CMat,
        dt: f64,
    ) -> Result<CMat, PtError>;
}

/// What one PT-CN solve borrows from an ACE refresh round. `Default` is a
/// plain `Full` step: exact exchange everywhere, the fixed point seeded at
/// Ψ_{n+1/2}, no raw iterate handed back.
#[derive(Default)]
pub(crate) struct AceRound<'a> {
    /// Stands in for the exchange inside the fixed point.
    pub(crate) ace: Option<&'a AceOperator>,
    /// Used for the single t_n residual apply (defaults to `ace`). The
    /// split matters on refresh rounds: the t_n apply sees the projector
    /// built from Ψ_n — where ACE is *exact* — while the fixed point sees
    /// the self-consistently refined one.
    pub(crate) ace_n: Option<&'a AceOperator>,
    /// Seeds the fixed point instead of Ψ_{n+1/2}: the converged solution
    /// is unchanged (same equation, same Ψ_{n+1/2} in the residual), but a
    /// seed already near the answer — a previous round's iterate —
    /// converges in a couple of Anderson passes instead of a full solve.
    pub(crate) warm_start: Option<&'a CMat>,
    /// Receives the converged iterate ψ_f *before* re-orthonormalization:
    /// `Full` builds its Fock operator from exactly that raw block, so a
    /// refresh that wants to reproduce the `Full` fixed point must define
    /// ξ from it (the committed, re-orthonormalized Ψ differs by the
    /// O(orthonormality defect) the fixed point accrues, which would floor
    /// the agreement).
    pub(crate) raw_psi_out: Option<&'a mut CMat>,
}

/// The kinetic preconditioner of the PT-CN fixed point,
/// `P_G = 1 / (1 + i·(dt/2)·½|G + A|²)`: the inverse of the residual map's
/// kinetic part, which is what makes the map stiff (dt/2 · ½|G|² is 1–10 at
/// the cut-off). Elementwise and rebuilt every step from `dt` and the field
/// at t_{n+1}, so it carries no state and gives the same bits on every
/// layout.
fn kinetic_preconditioner(sys: &KsSystem, a: [f64; 3], dt: f64) -> Vec<c64> {
    sys.grids
        .kinetic_diag(a)
        .into_iter()
        .map(|k| c64::new(1.0, 0.5 * dt * k).inv())
        .collect()
}

/// The PT-CN step body (Alg. 1), generic over the execution strategy.
/// Everything outside the kernels (density, preconditioned Anderson
/// mixing, re-orthonormalization) runs replicated on the driver thread,
/// so the step's output bits depend only on the kernels'.
///
/// A non-finite density residual ends the fixed point at once: no further
/// `HΨ`, no re-orthonormalization, `converged: false` with that residual.
/// The state then holds the non-finite iterate, which the caller's record
/// check refuses ([`PtError::Diverged`] in [`crate::Simulation::run`]).
pub(crate) fn ptcn_step_with(
    opts: &PtCnOptions,
    sys: &KsSystem,
    laser: Option<&LaserPulse>,
    state: &mut TdState,
    dt: f64,
    kernels: &mut dyn StepKernels,
    round: AceRound<'_>,
) -> Result<StepStats, PtError> {
    opts.validate()?;
    let mut stats = StepStats::default();

    // line 1: initial residual R_n at time t_n
    let sp = pt_trace::span("density");
    let rho_n = sys.density(&state.psi);
    stats.phases.density += sp.finish_secs();
    let sp = pt_trace::span("h_apply");
    let hpsi = kernels.apply_h(
        sys,
        &rho_n,
        &state.psi,
        a_field(laser, state.t),
        round.ace_n.or(round.ace),
    )?;
    stats.phases.h_apply += sp.finish_secs();
    stats.h_applications += 1;
    let sp = pt_trace::span("residual");
    let r_n = pt_rhs(&hpsi, &state.psi);
    stats.phases.residual += sp.finish_secs();

    // line 2: Ψ_{n+1/2} = Ψ_n − i dt/2 R_n ; Ψ_f = Ψ_{n+1/2}
    let mut psi_half = state.psi.clone();
    for (o, r) in psi_half.data_mut().iter_mut().zip(r_n.data()) {
        *o -= r.mul_i().scale(0.5 * dt);
    }
    let mut psi_f = match round.warm_start {
        Some(w) if w.nrows() == psi_half.nrows() && w.ncols() == psi_half.ncols() => w.clone(),
        _ => psi_half.clone(),
    };

    // lines 3-10: fixed point via preconditioned Anderson mixing. Each
    // fixed point starts from an empty history, which is why nothing of
    // the mixer outlives this call and a resumed trajectory agrees with an
    // uninterrupted one bit for bit without it.
    let t_next = state.t + dt;
    let a_next = a_field(laser, t_next);
    let mut mixer = BandAndersonMixer::new(
        state.psi.ncols(),
        opts.anderson_depth,
        opts.beta,
        kinetic_preconditioner(sys, a_next, dt),
    );
    let sp = pt_trace::span("density");
    let mut rho_f = sys.density(&psi_f);
    stats.phases.density += sp.finish_secs();
    for _ in 0..opts.max_scf {
        stats.scf_iterations += 1;
        pt_trace::counter_add(pt_trace::Counter::FixedPointIterations, 1);
        let sp = pt_trace::span("h_apply");
        let hpsi_f = kernels.apply_h(sys, &rho_f, &psi_f, a_next, round.ace)?;
        stats.phases.h_apply += sp.finish_secs();
        stats.h_applications += 1;
        // R_f = Ψ_f + i dt/2 (H_f Ψ_f − Ψ_f (Ψ_f* H_f Ψ_f)) − Ψ_{n+1/2}
        let sp = pt_trace::span("residual");
        let mut resid = kernels.residual(&psi_f, &hpsi_f, &psi_half, dt)?;
        stats.phases.residual += sp.finish_secs();
        // Anderson mixing on the fixed point Ψ = Ψ − R(Ψ): residual −R,
        // which the mixer preconditions to P·(−R)
        for z in resid.data_mut().iter_mut() {
            *z = -*z;
        }
        let sp = pt_trace::span("mix");
        psi_f = mixer.step(&psi_f, &resid);
        stats.phases.mix += sp.finish_secs();
        let sp = pt_trace::span("density");
        let rho_new = sys.density(&psi_f);
        stats.phases.density += sp.finish_secs();
        stats.rho_residual = density_residual(&rho_new, &rho_f, sys.grids.volume);
        rho_f = rho_new;
        if !stats.rho_residual.is_finite() {
            // no iterate past this one can be finite again
            break;
        }
        if stats.rho_residual < opts.rho_tol {
            stats.converged = true;
            break;
        }
    }
    if opts.strict && !stats.converged {
        return Err(PtError::NotConverged {
            context: "PT-CN fixed point",
            residual: stats.rho_residual,
            tol: opts.rho_tol,
            iterations: stats.scf_iterations,
        });
    }

    if let Some(out) = round.raw_psi_out {
        *out = psi_f.clone();
    }

    // line 11: re-orthogonalize (Cholesky + TRSM, §3.4) — a non-finite
    // iterate has no Cholesky factor, so it is handed back as it is
    if stats.rho_residual.is_finite() {
        let sp = pt_trace::span("ortho");
        reorthonormalize(&mut psi_f);
        stats.phases.ortho += sp.finish_secs();
    }

    state.psi = psi_f;
    state.t = t_next;
    Ok(stats)
}

/// The live ACE projector plus its position in the refresh window, owned
/// by a PT-CN propagator across steps (captured into [`AceCapture`] for
/// snapshots, rebuilt lazily after resume or band-count changes).
#[derive(Clone, Debug)]
pub(crate) struct AceRefreshState {
    pub(crate) op: AceOperator,
    pub(crate) steps_since_refresh: usize,
}

impl AceRefreshState {
    pub(crate) fn from_capture(c: AceCapture) -> Self {
        AceRefreshState {
            op: AceOperator::from_xi(c.xi),
            steps_since_refresh: c.steps_since_refresh,
        }
    }

    pub(crate) fn capture(&self) -> AceCapture {
        AceCapture {
            xi: self.op.xi().clone(),
            steps_since_refresh: self.steps_since_refresh,
        }
    }
}

/// Cap on self-consistent projector rounds per refresh step. The round
/// map contracts by an O(dt·coupling) factor per pass — measured ≈0.1
/// per round at dt = 25 as on the Si-8 smoke system, stronger at smaller
/// dt — so a 1e-6 `rho_tol` is met in 2–4 rounds and even 1e-10 within
/// ~10; the cap guards pathological dynamics, and overrunning it is
/// reported like an unconverged fixed point.
const ACE_MAX_REFRESH_ROUNDS: usize = 12;

/// One PT-CN step under [`ExchangeMode::Ace`].
///
/// **Stale window** (no refresh due): one PT-CN step that applies the
/// cached frozen projector inside its fixed point. Freezing across the
/// whole fixed point is the entire win: `Full` rebuilds the pair-FFT Fock
/// operator from the live ψ_f on every iteration, a stale-window ACE step
/// runs zero pair FFTs.
///
/// **Refresh step** (every `refresh_interval` steps): the projector is
/// rebuilt *self-consistently*. ξ_n from Ψ_n is exact for the t_n
/// residual (in the PT gauge Ψ_n is the exchange's defining Φ), but a
/// fixed point solved under it differs from `Full` — which sees
/// V_X[ψ_f] — by an O(dt) operator discrepancy, i.e. an O(dt²) per-step
/// trajectory error that no dt practical for hybrid PT-CN pushes below
/// ~1e-8. So the refresh iterates: solve the step under the current ξ_f,
/// rebuild ξ_f from the converged orbitals, re-solve, until the density
/// drift between rounds falls below `rho_tol`. ACE is exact on its
/// defining block, so the round fixed point *is* the `Full` fixed point;
/// each round costs one Fock block-apply plus a cheap projector-only
/// solve, still several× cheaper than `Full`'s per-iteration Fock loop.
/// The accepted round's ξ_f is then frozen for the stale window.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ace_ptcn_step(
    opts: &PtCnOptions,
    sys: &KsSystem,
    laser: Option<&LaserPulse>,
    state: &mut TdState,
    dt: f64,
    refresh_interval: usize,
    ace_slot: &mut Option<AceRefreshState>,
    kernels: &mut dyn StepKernels,
) -> Result<StepStats, PtError> {
    let refresh_due = match ace_slot {
        Some(a) => {
            a.steps_since_refresh >= refresh_interval
                || a.op.xi().nrows() != state.psi.nrows()
                || a.op.rank() != state.psi.ncols()
        }
        None => true,
    };

    if !refresh_due {
        let ace = ace_slot
            .as_mut()
            .expect("invariant: refresh_due is false only when the slot holds a valid projector");
        let round = AceRound {
            ace: Some(&ace.op),
            ..AceRound::default()
        };
        let stats = ptcn_step_with(opts, sys, laser, state, dt, kernels, round)?;
        ace.steps_since_refresh += 1;
        return Ok(stats);
    }

    // Refresh step: self-consistent projector rounds. ξ_n (from Ψ_n) is
    // pinned for the t_n residual; ξ_f starts equal and is refined from
    // each round's converged *raw* iterate (the pre-re-orthonormalization
    // block `Full` feeds its Fock operator). Rounds restart from the same
    // Ψ_n, so the accepted trajectory is the one solved under the final
    // projector.
    let sp = pt_trace::span("ace_build");
    let xi_n = kernels.build_ace(sys, &state.psi)?;
    let mut total_phases = StepPhases {
        ace_build: sp.finish_secs(),
        ..StepPhases::default()
    };
    let mut xi_f = xi_n.clone();
    let mut prev_rho: Option<Vec<f64>> = None;
    let mut prev_raw: Option<CMat> = None;
    let mut accepted: Option<(TdState, StepStats)> = None;
    let mut total_scf = 0usize;
    let mut total_h = 0usize;
    let mut drift = f64::INFINITY;
    let mut outer_converged = false;
    let mut rounds = 0usize;
    while rounds < ACE_MAX_REFRESH_ROUNDS {
        rounds += 1;
        pt_trace::counter_add(pt_trace::Counter::AceRefreshRounds, 1);
        if let Some(raw) = &prev_raw {
            let sp = pt_trace::span("ace_build");
            xi_f = kernels.build_ace(sys, raw)?;
            total_phases.ace_build += sp.finish_secs();
        }
        // warm-start the fixed point at the previous round's converged
        // iterate: the rounds change ξ_f by the O(rho_tol-bound) drift
        // only, so later rounds converge in a couple of Anderson passes
        // instead of re-solving from Ψ_{n+1/2}
        let mut trial = state.clone();
        let mut raw = CMat::zeros(0, 0);
        let round = AceRound {
            ace: Some(&xi_f),
            ace_n: Some(&xi_n),
            warm_start: prev_raw.as_ref(),
            raw_psi_out: Some(&mut raw),
        };
        let stats = ptcn_step_with(opts, sys, laser, &mut trial, dt, kernels, round)?;
        total_phases.absorb(&stats.phases);
        total_scf += stats.scf_iterations;
        total_h += stats.h_applications;
        let sp = pt_trace::span("density");
        let rho = sys.density(&trial.psi);
        total_phases.density += sp.finish_secs();
        if let Some(prev) = &prev_rho {
            drift = density_residual(&rho, prev, sys.grids.volume);
        }
        // a non-finite round has no projector to refine: hand it back
        // unconverged, as the fixed point does
        let finite = stats.rho_residual.is_finite();
        if !finite {
            drift = stats.rho_residual;
        }
        prev_rho = Some(rho);
        prev_raw = Some(raw);
        accepted = Some((trial, stats));
        if !finite || drift < opts.rho_tol {
            outer_converged = finite;
            break;
        }
    }
    let (trial, mut stats) = accepted
        .expect("invariant: ACE_MAX_REFRESH_ROUNDS >= 1, so the loop body ran at least once");
    stats.scf_iterations = total_scf;
    stats.h_applications = total_h;
    stats.converged &= outer_converged;
    stats.phases = total_phases;
    if opts.strict && !outer_converged {
        return Err(PtError::NotConverged {
            context: "ACE refresh self-consistency",
            residual: drift,
            tol: opts.rho_tol,
            iterations: rounds,
        });
    }
    *state = trial;
    *ace_slot = Some(AceRefreshState {
        op: xi_f,
        steps_since_refresh: 1,
    });
    Ok(stats)
}

/// The one-rank execution strategy: everything in process on the
/// installed pool — the `N_p = 1` case of Alg. 2 / Alg. 3 without a
/// `Comm`, no engine and no rank thread.
pub(crate) struct InlineKernels;

impl StepKernels for InlineKernels {
    /// Build the Hamiltonian (Fock operator over `Φ = Ψ` included) and
    /// apply it block-wise; with a frozen ACE projector the Fock-free
    /// Hamiltonian applies and the projector supplies the exchange.
    fn apply_h(
        &mut self,
        sys: &KsSystem,
        rho: &[f64],
        psi: &CMat,
        a: [f64; 3],
        ace: Option<&AceOperator>,
    ) -> Result<CMat, PtError> {
        let h = match ace {
            Some(_) => sys.local_hamiltonian(rho, a)?,
            None => sys.hamiltonian(rho, sys.hybrid.map(|_| psi), a)?,
        };
        let mut hpsi = CMat::zeros(psi.nrows(), psi.ncols());
        h.apply_block(psi, &mut hpsi);
        if let Some(op) = ace {
            op.apply_block(psi, &mut hpsi);
        }
        Ok(hpsi)
    }

    fn build_ace(&mut self, sys: &KsSystem, phi: &CMat) -> Result<AceOperator, PtError> {
        let hy = sys.hybrid.ok_or(PtError::MissingExchangeOrbitals)?;
        let kernel = sys.exchange_kernel()?.clone();
        let fock = FockOperator::new(&sys.grids, phi, hy.alpha, kernel, FockMode::Batched);
        AceOperator::new(&sys.grids, &fock, phi)
    }

    fn residual(
        &mut self,
        psi_f: &CMat,
        hpsi_f: &CMat,
        psi_half: &CMat,
        dt: f64,
    ) -> Result<CMat, PtError> {
        Ok(pt_residual(psi_f, hpsi_f, psi_half, dt))
    }
}

impl Propagator for PtCnPropagator {
    fn name(&self) -> &'static str {
        "pt-cn"
    }

    /// One PT-CN step of size `dt` (Alg. 1), with the exchange evaluated
    /// per the system's [`ExchangeMode`] and every `HΨ`/residual run per
    /// the system's layout: inline for one rank, on the persistent rank
    /// team (spawned on the first such step) for more.
    fn step(
        &mut self,
        sys: &KsSystem,
        laser: Option<&LaserPulse>,
        state: &mut TdState,
        dt: f64,
    ) -> Result<StepStats, PtError> {
        let (mut inline, mut on_engine);
        let kernels: &mut dyn StepKernels = match sys.layout() {
            Some(layout) if layout.ranks > 1 => {
                on_engine = EngineKernels {
                    engine: acquire_engine(&mut self.engine, layout)?,
                };
                &mut on_engine
            }
            _ => {
                inline = InlineKernels;
                &mut inline
            }
        };
        let sp = pt_trace::span("ptcn_step");
        let mut stats = match sys.exchange_mode() {
            ExchangeMode::Full => ptcn_step_with(
                &self.opts,
                sys,
                laser,
                state,
                dt,
                kernels,
                AceRound::default(),
            ),
            ExchangeMode::Ace { refresh_interval } => ace_ptcn_step(
                &self.opts,
                sys,
                laser,
                state,
                dt,
                refresh_interval,
                &mut self.ace,
                kernels,
            ),
        }?;
        stats.phases.reconcile(sp.finish_secs());
        Ok(stats)
    }

    fn capture(&self) -> PropagatorState {
        PropagatorState::PtCn {
            opts: self.opts,
            ace: self.ace.as_ref().map(AceRefreshState::capture),
        }
    }
}

/// Explicit 4th-order Runge–Kutta on `i ∂t Ψ = H[ρ(Ψ), Ψ](t) Ψ` — the
/// baseline of Fig. 6. The Hamiltonian (density, exchange orbitals, laser
/// field) is rebuilt at every stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rk4Propagator {
    /// Options.
    pub opts: Rk4Options,
}

impl Rk4Propagator {
    /// Propagator with the given options.
    pub fn new(opts: Rk4Options) -> Self {
        Rk4Propagator { opts }
    }

    fn rhs(
        &self,
        sys: &KsSystem,
        laser: Option<&LaserPulse>,
        psi: &CMat,
        t: f64,
        stats: &mut StepStats,
    ) -> Result<CMat, PtError> {
        let rho = sys.density(psi);
        let phi = if sys.hybrid.is_some() {
            Some(psi)
        } else {
            None
        };
        let h = sys.hamiltonian(&rho, phi, a_field(laser, t))?;
        let mut hpsi = CMat::zeros(psi.nrows(), psi.ncols());
        h.apply_block(psi, &mut hpsi);
        stats.h_applications += 1;
        // k = −i H ψ
        for z in hpsi.data_mut().iter_mut() {
            *z = z.mul_neg_i();
        }
        Ok(hpsi)
    }
}

impl Propagator for Rk4Propagator {
    fn name(&self) -> &'static str {
        "rk4"
    }

    /// One RK4 step of size `dt`.
    fn step(
        &mut self,
        sys: &KsSystem,
        laser: Option<&LaserPulse>,
        state: &mut TdState,
        dt: f64,
    ) -> Result<StepStats, PtError> {
        let mut stats = StepStats {
            converged: true,
            ..StepStats::default()
        };
        let psi0 = state.psi.clone();
        let n = psi0.data().len();

        let k1 = self.rhs(sys, laser, &psi0, state.t, &mut stats)?;
        let mut tmp = psi0.clone();
        for i in 0..n {
            tmp.data_mut()[i] = psi0.data()[i] + k1.data()[i].scale(0.5 * dt);
        }
        let k2 = self.rhs(sys, laser, &tmp, state.t + 0.5 * dt, &mut stats)?;
        for i in 0..n {
            tmp.data_mut()[i] = psi0.data()[i] + k2.data()[i].scale(0.5 * dt);
        }
        let k3 = self.rhs(sys, laser, &tmp, state.t + 0.5 * dt, &mut stats)?;
        for i in 0..n {
            tmp.data_mut()[i] = psi0.data()[i] + k3.data()[i].scale(dt);
        }
        let k4 = self.rhs(sys, laser, &tmp, state.t + dt, &mut stats)?;

        for i in 0..n {
            let incr = k1.data()[i] + (k2.data()[i] + k3.data()[i]).scale(2.0) + k4.data()[i];
            state.psi.data_mut()[i] = psi0.data()[i] + incr.scale(dt / 6.0);
        }
        if self.opts.reorthonormalize {
            reorthonormalize(&mut state.psi);
        }
        state.t += dt;
        Ok(stats)
    }

    fn capture(&self) -> PropagatorState {
        PropagatorState::Rk4 { opts: self.opts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observables::{density_matrix_distance, orthonormality_error};
    use pt_ham::HybridConfig;
    use pt_lattice::silicon_cubic_supercell;
    use pt_scf::{scf_loop, ScfOptions};
    use pt_xc::XcKind;

    fn hybrid_sys(mode: ExchangeMode) -> KsSystem {
        KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(XcKind::Pbe)
            .hybrid(HybridConfig::hse06())
            .exchange_mode(mode)
            .build()
            .unwrap()
    }

    fn ground_state(hybrid: bool) -> (KsSystem, CMat) {
        let sys = if hybrid {
            hybrid_sys(ExchangeMode::Full)
        } else {
            KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
                .ecut(2.5)
                .xc(XcKind::Lda)
                .build()
                .unwrap()
        };
        let o = ScfOptions {
            rho_tol: 1e-7,
            max_phi_updates: 3,
            ..Default::default()
        };
        let r = scf_loop(&sys, o).expect("test ground state converges");
        (sys, r.orbitals)
    }

    #[test]
    fn ptcn_rejects_malformed_options() {
        // validation fires before any physics, so no SCF needed
        let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(XcKind::Lda)
            .build()
            .unwrap();
        let psi = CMat::rand_normalized(sys.grids.ng(), sys.n_bands(), 7);
        let bad = [
            PtCnOptions {
                rho_tol: -1.0,
                ..Default::default()
            },
            PtCnOptions {
                rho_tol: f64::NAN,
                ..Default::default()
            },
            PtCnOptions {
                max_scf: 0,
                ..Default::default()
            },
            PtCnOptions {
                anderson_depth: 0,
                ..Default::default()
            },
            PtCnOptions {
                beta: f64::INFINITY,
                ..Default::default()
            },
            PtCnOptions {
                beta: 0.0,
                ..Default::default()
            },
            PtCnOptions {
                beta: -0.5,
                ..Default::default()
            },
        ];
        for opts in bad {
            let mut st = TdState::new(psi.clone());
            let r = PtCnPropagator::new(opts).step(&sys, None, &mut st, 0.1);
            assert!(matches!(r, Err(PtError::InvalidConfig(_))), "{opts:?}");
        }
    }

    #[test]
    fn field_free_ptcn_is_stationary() {
        // At the ground state with no field, PT-CN must leave the density
        // matrix invariant for any dt (the PT gauge's selling point).
        let (sys, psi0) = ground_state(false);
        let mut prop = PtCnPropagator::default();
        let mut st = TdState::new(psi0.clone());
        let dt = pt_num::units::attosecond_to_au(50.0);
        let stats = prop.step(&sys, None, &mut st, dt).unwrap();
        assert!(stats.converged);
        assert!(stats.rho_residual < 1e-6, "residual {}", stats.rho_residual);
        assert!(orthonormality_error(&st.psi) < 1e-9);
        let d = density_matrix_distance(&psi0, &st.psi);
        assert!(d < 1e-5, "density matrix moved by {d}");
        // few SCFs needed at the stationary point
        assert!(stats.scf_iterations <= 10, "{}", stats.scf_iterations);
    }

    #[test]
    fn ptcn_matches_rk4_at_small_dt_with_field() {
        // propagate 2 as with a field; PT-CN (1 step) vs RK4 (40 × 0.05 as
        // reference): gauge-invariant observables must agree.
        let (sys, psi0) = ground_state(false);
        let laser = LaserPulse {
            a0: 0.08,
            omega: 0.3,
            t0: 0.0,
            sigma: 20.0,
            polarization: [0.0, 0.0, 1.0],
        };
        let dt = pt_num::units::attosecond_to_au(2.0);
        let mut st_pt = TdState::new(psi0.clone());
        let mut prop = PtCnPropagator::new(PtCnOptions {
            rho_tol: 1e-10,
            ..Default::default()
        });
        prop.step(&sys, Some(&laser), &mut st_pt, dt).unwrap();

        let mut rk = Rk4Propagator::default();
        let mut st_rk = TdState::new(psi0);
        for _ in 0..40 {
            rk.step(&sys, Some(&laser), &mut st_rk, dt / 40.0).unwrap();
        }
        let d = density_matrix_distance(&st_pt.psi, &st_rk.psi);
        assert!(d < 2e-4, "PT-CN vs RK4 density-matrix distance {d}");
    }

    #[test]
    fn rk4_conserves_norm_at_tiny_dt() {
        let (sys, psi0) = ground_state(false);
        let mut rk = Rk4Propagator::default();
        let mut st = TdState::new(psi0);
        let dt = pt_num::units::attosecond_to_au(0.5);
        for _ in 0..5 {
            rk.step(&sys, None, &mut st, dt).unwrap();
        }
        assert!(orthonormality_error(&st.psi) < 1e-8);
    }

    #[test]
    fn rk4_reorthonormalize_option_restores_orthonormality() {
        // at a dt where plain RK4 visibly drifts off the Stiefel manifold,
        // the reorthonormalize option must pin the error to roundoff
        let (sys, psi0) = ground_state(false);
        let dt = pt_num::units::attosecond_to_au(10.0);
        let mut plain = Rk4Propagator::default();
        let mut st_plain = TdState::new(psi0.clone());
        let mut reortho = Rk4Propagator::new(Rk4Options {
            reorthonormalize: true,
        });
        let mut st_re = TdState::new(psi0);
        for _ in 0..5 {
            plain.step(&sys, None, &mut st_plain, dt).unwrap();
            reortho.step(&sys, None, &mut st_re, dt).unwrap();
        }
        let e_plain = orthonormality_error(&st_plain.psi);
        let e_re = orthonormality_error(&st_re.psi);
        assert!(e_re < 1e-10, "re-orthonormalized RK4 error {e_re:.2e}");
        assert!(
            e_re < e_plain,
            "flag should tighten orthonormality: {e_re:.2e} vs plain {e_plain:.2e}"
        );
    }

    #[test]
    fn hybrid_ptcn_step_runs_and_counts_fock_applications() {
        let (sys, psi0) = ground_state(true);
        let mut prop = PtCnPropagator::new(PtCnOptions {
            rho_tol: 1e-6,
            max_scf: 30,
            ..PtCnOptions::default()
        });
        let mut st = TdState::new(psi0);
        let dt = pt_num::units::attosecond_to_au(50.0);
        let stats = prop.step(&sys, None, &mut st, dt).unwrap();
        // H applications = 1 (residual) + SCF count — the paper's "24 per
        // step" bookkeeping is scf + residual + energy
        assert_eq!(stats.h_applications, stats.scf_iterations + 1);
        assert!(orthonormality_error(&st.psi) < 1e-9);
        assert!(stats.rho_residual < 1e-5, "residual {}", stats.rho_residual);
    }

    #[test]
    fn ace_ptcn_step_advances_and_stays_orthonormal() {
        let (sys, psi0) = ground_state(true);
        let dt = pt_num::units::attosecond_to_au(50.0);
        // the self-consistent refresh rounds converge the ACE step to the
        // Full fixed point, so the reference is a Full step — not psi0,
        // which is only loosely converged and NOT stationary under the
        // exact hybrid dynamics
        let mut full = PtCnPropagator::new(PtCnOptions::default());
        let mut st_full = TdState::new(psi0.clone());
        full.step(&sys, None, &mut st_full, dt).unwrap();
        // same problem, same ground state (SCF does not read the mode)
        let ace_sys = hybrid_sys(ExchangeMode::Ace {
            refresh_interval: 1,
        });
        let mut prop = PtCnPropagator::default();
        let mut st = TdState::new(psi0);
        let stats = prop.step(&ace_sys, None, &mut st, dt).unwrap();
        assert!(stats.converged);
        assert!((st.t - dt).abs() < 1e-15);
        assert!(orthonormality_error(&st.psi) < 1e-9);
        let d = density_matrix_distance(&st_full.psi, &st.psi);
        assert!(d < 1e-4, "ACE step departs from the Full step by {d}");
        assert!(prop.ace.is_some(), "projector cached for the next window");
    }

    #[test]
    fn ace_system_stripped_of_its_hybrid_is_a_typed_error_on_every_layout() {
        // the builder refuses ACE on a semi-local system and the exchange
        // mode cannot be written after build; `hybrid` can. The projector
        // build is the first thing an ACE step does, so the step fails
        // typed before any physics — inline and on a rank team alike
        for layout in [None, Some(pt_par::RankLayout::new(2, 1))] {
            let mut b = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
                .ecut(2.0)
                .xc(XcKind::Pbe)
                .hybrid(HybridConfig::hse06())
                .occupations(vec![2.0; 4])
                .exchange_mode(ExchangeMode::Ace {
                    refresh_interval: 1,
                });
            if let Some(l) = layout {
                b = b.layout(l);
            }
            let mut sys = b.build().unwrap();
            sys.hybrid = None;
            let mut prop = PtCnPropagator::default();
            let psi = CMat::rand_normalized(sys.grids.ng(), sys.n_bands(), 7);
            let mut st = TdState::new(psi.clone());
            assert_eq!(
                prop.step(&sys, None, &mut st, 0.1).err(),
                Some(PtError::MissingExchangeOrbitals),
                "{layout:?}"
            );
            // the state is untouched: no half-step, no NaN
            assert_eq!(st.t, 0.0);
            assert!(st
                .psi
                .data()
                .iter()
                .all(|z| z.re.is_finite() && z.im.is_finite()));
            assert_eq!(st.psi.max_diff(&psi), 0.0);
        }
    }

    #[test]
    fn strict_ptcn_reports_nonconvergence_as_error() {
        let (sys, psi0) = ground_state(false);
        // an unreachable tolerance with a starved iteration budget
        let mut prop = PtCnPropagator::new(PtCnOptions {
            rho_tol: 1e-30,
            max_scf: 1,
            strict: true,
            ..PtCnOptions::default()
        });
        // kick the state off the stationary point so the residual is nonzero
        let laser = LaserPulse {
            a0: 0.1,
            omega: 0.3,
            t0: 0.0,
            sigma: 20.0,
            polarization: [0.0, 0.0, 1.0],
        };
        let mut st = TdState::new(psi0);
        let dt = pt_num::units::attosecond_to_au(10.0);
        match prop.step(&sys, Some(&laser), &mut st, dt) {
            Err(PtError::NotConverged {
                context,
                iterations,
                ..
            }) => {
                assert_eq!(context, "PT-CN fixed point");
                assert_eq!(iterations, 1);
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
        // non-strict mode accepts the same step and reports the residual
        let mut lax = PtCnPropagator::new(PtCnOptions {
            rho_tol: 1e-30,
            max_scf: 1,
            ..PtCnOptions::default()
        });
        let stats = lax.step(&sys, Some(&laser), &mut st, dt).unwrap();
        assert!(!stats.converged);
        assert!(stats.rho_residual > 0.0);
    }

    #[test]
    fn an_ace_refresh_leaves_its_rounds_at_a_non_finite_iterate() {
        // a step so large that Ψ_{n+1/2} overflows the density: the first
        // round's fixed point ends at its NaN residual, and the refresh
        // hands that back unconverged instead of building a projector from
        // NaN orbitals
        let sys = hybrid_sys(ExchangeMode::Ace {
            refresh_interval: 1,
        });
        let psi = CMat::rand_normalized(sys.grids.ng(), sys.n_bands(), 11);
        let mut st = TdState::new(psi);
        let stats = PtCnPropagator::default()
            .step(&sys, None, &mut st, 1e200)
            .expect("a non-finite round is reported, not raised");
        assert!(!stats.converged);
        assert!(stats.rho_residual.is_nan());
        assert_eq!(stats.scf_iterations, 1);
    }

    #[test]
    fn propagators_are_object_safe_and_runtime_selectable() {
        let (sys, psi0) = ground_state(false);
        let dt = pt_num::units::attosecond_to_au(1.0);
        for boxed in [
            Box::new(PtCnPropagator::default()) as Box<dyn Propagator>,
            Box::new(Rk4Propagator::default()) as Box<dyn Propagator>,
        ] {
            let mut prop = boxed;
            let mut st = TdState::new(psi0.clone());
            let stats = prop.step(&sys, None, &mut st, dt).unwrap();
            assert!(stats.h_applications >= 1, "{}", prop.name());
            assert!((st.t - dt).abs() < 1e-15);
        }
    }
}
