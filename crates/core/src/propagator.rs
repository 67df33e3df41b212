//! Time propagators as one closed value: PT-CN (Alg. 1) and the RK4
//! baseline.
//!
//! [`Propagator`] is the enum the [`crate::Simulation`] driver works
//! against: a propagator is an *algorithm plus its options and cross-step
//! state* — the physical problem ([`KsSystem`]) and the drive
//! ([`LaserPulse`]) are passed into every [`Propagator::step`], so one
//! propagator value can be reused across systems and picked at runtime.
//! The paper runs exactly these two, so the set is closed: every value
//! a run can hold is one a snapshot records and a resume rebuilds.

use crate::anderson_c::BandAndersonMixer;
use crate::laser::LaserPulse;
use pt_ham::{density_residual, pt_residual, AceOperator, ExchangeMode, KsSystem, PtError};
use pt_linalg::{gemm, orthonormalize_columns, CMat, Op};
use pt_num::c64;

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
    /// `HΨ` block applications: the t_n one of the half step plus one per
    /// fixed-point iteration. With a hybrid each contains the exchange —
    /// the pair-FFT Fock loop under `Full`, the rank-N_φ projector under
    /// ACE (ACE projector builds are not counted here).
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
}

/// One step of a time-dependent Kohn–Sham propagation: the paper's two
/// propagators. Either advances `state.t` by exactly `dt` on success.
#[derive(Clone, Debug)]
pub enum Propagator {
    /// PT-CN (Alg. 1) with its options and its one piece of cross-step
    /// state, the ACE projector.
    PtCn(PtCnPropagator),
    /// The explicit RK4 baseline of Fig. 6: no options, no cross-step
    /// state.
    Rk4,
}

impl Default for Propagator {
    /// PT-CN with the paper's options.
    fn default() -> Self {
        Propagator::PtCn(PtCnPropagator::default())
    }
}

impl Propagator {
    /// Short identifier (for logs, series metadata and the snapshot's
    /// `prop/name`).
    pub fn name(&self) -> &'static str {
        match self {
            Propagator::PtCn(_) => "pt-cn",
            Propagator::Rk4 => "rk4",
        }
    }

    /// Advance `state` by `dt` under `sys` (+ optional laser coupling).
    pub fn step(
        &mut self,
        sys: &KsSystem,
        laser: Option<&LaserPulse>,
        state: &mut TdState,
        dt: f64,
    ) -> Result<StepStats, PtError> {
        self.step_carried(sys, laser, state, dt, None)
            .map(|(stats, _)| stats)
    }

    /// [`Propagator::step`] with a run's hand-over across the record: `v_n`
    /// is `v_total[ρ(Ψ_n)]` of `state.psi`, built by the record of the step
    /// that committed it, for the first `HΨ` on Ψ_n; the step hands back
    /// ρ(Ψ_{n+1}) of the Ψ it commits when it computed that density
    /// itself. Both are runtime values of one run, never snapshotted, and
    /// the same bits a fresh build gives.
    pub(crate) fn step_carried(
        &mut self,
        sys: &KsSystem,
        laser: Option<&LaserPulse>,
        state: &mut TdState,
        dt: f64,
        v_n: Option<Vec<f64>>,
    ) -> Result<(StepStats, Option<Vec<f64>>), PtError> {
        match self {
            Propagator::PtCn(p) => p.step_carried(sys, laser, state, dt, v_n),
            Propagator::Rk4 => rk4_step(sys, laser, state, dt, v_n).map(|stats| (stats, None)),
        }
    }
}

/// The live ACE projector plus its position inside the current refresh
/// window: what a PT-CN propagator carries across steps under
/// [`ExchangeMode::Ace`], and what a run snapshot records. Snapshots hold
/// ξ verbatim so that kill/resume inside a window (`ace_refresh_interval
/// > 1`) continues with the identical operator, bit for bit.
#[derive(Clone, Debug)]
pub struct AceCapture {
    /// The projector (its columns ξ are N_G × N_φ).
    pub op: AceOperator,
    /// Steps completed since ξ was last rebuilt.
    pub steps_since_refresh: usize,
}

/// PT-CN options (§4 settings as defaults).
#[derive(Clone, Copy, Debug)]
pub struct PtCnOptions {
    /// Density convergence threshold (paper: 1e-6).
    pub rho_tol: f64,
    /// Max SCF iterations per step (paper observes ~22 on average).
    pub max_scf: usize,
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
        Ok(())
    }
}

/// The implicit parallel-transport Crank–Nicolson propagator (Alg. 1) —
/// the one PT-CN type, for every ranks × threads layout.
///
/// Every exact exchange block `V_X[Ψ]Ψ` a step needs comes from
/// [`KsSystem::exchange_block`], which runs it where the system's layout
/// says (inline for one rank, on the system's rank team for more) with
/// the same bits. Everything else — the local part of `HΨ`, the ACE
/// projector and its apply, the fixed-point residual — runs on the driver
/// on every layout. How the exchange is evaluated is read off the system
/// the same way ([`KsSystem::exchange_mode`]).
///
/// A plain value: its options plus the only state that crosses a step
/// boundary, the ACE projector ξ with its position in the refresh window
/// ([`PtCnPropagator::ace`]; a run snapshot records exactly that, beside
/// the options). The Anderson history is a local of each step's fixed
/// point.
#[derive(Clone, Debug, Default)]
pub struct PtCnPropagator {
    /// Options.
    pub opts: PtCnOptions,
    pub(crate) ace: Option<AceCapture>,
}

impl PtCnPropagator {
    /// Propagator with the given options.
    pub fn new(opts: PtCnOptions) -> Self {
        PtCnPropagator {
            opts,
            ..Default::default()
        }
    }

    /// The live ACE projector and its position in the refresh window
    /// (`None` before the first step under [`ExchangeMode::Ace`], and
    /// always under `Full`).
    pub fn ace(&self) -> Option<&AceCapture> {
        self.ace.as_ref()
    }

    /// One PT-CN step of size `dt` (Alg. 1), with the exchange evaluated
    /// per the system's [`ExchangeMode`] and every exact exchange block run
    /// per the system's layout ([`KsSystem::exchange_block`]).
    pub fn step(
        &mut self,
        sys: &KsSystem,
        laser: Option<&LaserPulse>,
        state: &mut TdState,
        dt: f64,
    ) -> Result<StepStats, PtError> {
        self.step_carried(sys, laser, state, dt, None)
            .map(|(stats, _)| stats)
    }

    /// [`PtCnPropagator::step`] with the hand-over of
    /// [`Propagator::step_carried`].
    pub(crate) fn step_carried(
        &mut self,
        sys: &KsSystem,
        laser: Option<&LaserPulse>,
        state: &mut TdState,
        dt: f64,
        v_n: Option<Vec<f64>>,
    ) -> Result<(StepStats, Option<Vec<f64>>), PtError> {
        self.opts.validate()?;
        let sp = pt_trace::span("ptcn_step");
        let (mut stats, rho_next) = match sys.exchange_mode() {
            ExchangeMode::Full => ptcn_step_with(&self.opts, sys, laser, state, dt, v_n, None)
                .map(|stats| (stats, None)),
            ExchangeMode::Ace { refresh_interval } => ace_ptcn_step(
                &self.opts,
                sys,
                laser,
                state,
                dt,
                v_n,
                refresh_interval,
                &mut self.ace,
            ),
        }?;
        stats.phases.reconcile(sp.finish_secs());
        Ok((stats, rho_next))
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

/// The local potential an `HΨ` runs on.
enum Local<'a> {
    /// Built inside the `HΨ` from this density of Ψ.
    Density(&'a [f64]),
    /// `v_total[ρ(Ψ)]` the record of the step that committed Ψ built.
    Carried(Vec<f64>),
}

/// One full `H[ρ, Ψ] Ψ` application, composed on the driver: the local
/// (kinetic + V_loc + V_NL) part on the installed pool, plus the frozen
/// ACE projector `−ξ(ξ^H Ψ)` if given, else the exact exchange block
/// `V_X[Ψ]Ψ` from [`KsSystem::exchange_block`] for a hybrid, else nothing
/// (semi-local).
fn apply_h(
    sys: &KsSystem,
    local: Local<'_>,
    psi: &CMat,
    a: [f64; 3],
    ace: Option<&AceOperator>,
) -> Result<CMat, PtError> {
    let h = match local {
        Local::Density(rho) => sys.local_hamiltonian(rho, a)?,
        Local::Carried(v) => sys.local_hamiltonian_with(v, a)?,
    };
    let mut hpsi = CMat::zeros(psi.nrows(), psi.ncols());
    h.apply_block(psi, &mut hpsi);
    match (ace, sys.hybrid) {
        (Some(op), _) => op.apply_block(psi, &mut hpsi),
        (None, Some(_)) => {
            let w = sys.exchange_block(psi)?;
            for (o, v) in hpsi.data_mut().iter_mut().zip(w.data()) {
                *o += *v;
            }
        }
        (None, None) => {}
    }
    Ok(hpsi)
}

/// The ACE projector `ξ = W L^{-H}` of `phi`: one exact exchange block
/// `W = V_X[Φ]Φ` from [`KsSystem::exchange_block`], then the small
/// Cholesky/TRSM factorization on the driver.
fn build_ace(sys: &KsSystem, phi: &CMat) -> Result<AceOperator, PtError> {
    AceOperator::from_w(phi, sys.exchange_block(phi)?)
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

/// What Alg. 1's half step hands the fixed point: Ψ_{n+1/2}, the step
/// size and the target time t_{n+1} with its field.
struct HalfStep {
    psi: CMat,
    dt: f64,
    t_next: f64,
    a_next: [f64; 3],
}

/// Alg. 1 lines 1–2: the t_n residual `R_n = HΨ_n − Ψ_n (Ψ_n* HΨ_n)` from
/// one `HΨ` (the exchange from `ace` if given, the exact Fock loop
/// otherwise; the local potential `v_n` if handed over, else built from
/// ρ(Ψ_n)) and the explicit half step `Ψ_{n+1/2} = Ψ_n − i dt/2 R_n`.
fn half_step(
    sys: &KsSystem,
    laser: Option<&LaserPulse>,
    state: &TdState,
    dt: f64,
    v_n: Option<Vec<f64>>,
    ace: Option<&AceOperator>,
    stats: &mut StepStats,
) -> Result<HalfStep, PtError> {
    let rho_n;
    let local = match v_n {
        Some(v) => Local::Carried(v),
        None => {
            let sp = pt_trace::span("density");
            rho_n = sys.density(&state.psi);
            stats.phases.density += sp.finish_secs();
            Local::Density(&rho_n)
        }
    };
    let sp = pt_trace::span("h_apply");
    let a_n = a_field(laser, state.t);
    let hpsi = apply_h(sys, local, &state.psi, a_n, ace)?;
    stats.phases.h_apply += sp.finish_secs();
    stats.h_applications += 1;
    let sp = pt_trace::span("residual");
    let r_n = pt_rhs(&hpsi, &state.psi);
    stats.phases.residual += sp.finish_secs();
    let mut psi = state.psi.clone();
    for (o, r) in psi.data_mut().iter_mut().zip(r_n.data()) {
        *o -= r.mul_i().scale(0.5 * dt);
    }
    let t_next = state.t + dt;
    Ok(HalfStep {
        psi,
        dt,
        t_next,
        a_next: a_field(laser, t_next),
    })
}

/// Alg. 1 lines 3–10: solve `Ψ = Ψ_{n+1/2} − i dt/2 (HΨ − Ψ (Ψ* HΨ))` at
/// t_{n+1} by preconditioned Anderson mixing, started from `seed`, with
/// `ace` standing in for the exchange if given. Returns the raw iterate
/// ψ_f, not yet re-orthonormalized; adds the iterations and `HΨ` to
/// `stats` and sets its residual and `converged`.
///
/// Each solve starts from an empty Anderson history, which is why nothing
/// of the mixer outlives this call and a resumed trajectory agrees with
/// an uninterrupted one bit for bit without it. A non-finite density
/// residual ends the solve at once: no further `HΨ`, `converged: false`
/// with that residual.
fn fixed_point(
    opts: &PtCnOptions,
    sys: &KsSystem,
    half: &HalfStep,
    seed: CMat,
    ace: Option<&AceOperator>,
    stats: &mut StepStats,
) -> Result<CMat, PtError> {
    let mut mixer = BandAndersonMixer::new(
        half.psi.ncols(),
        kinetic_preconditioner(sys, half.a_next, half.dt),
    );
    let mut psi_f = seed;
    let sp = pt_trace::span("density");
    let mut rho_f = sys.density(&psi_f);
    stats.phases.density += sp.finish_secs();
    stats.converged = false;
    let mut iterations = 0;
    while iterations < opts.max_scf {
        iterations += 1;
        pt_trace::counter_add(pt_trace::Counter::FixedPointIterations, 1);
        let sp = pt_trace::span("h_apply");
        let hpsi_f = apply_h(sys, Local::Density(&rho_f), &psi_f, half.a_next, ace)?;
        stats.phases.h_apply += sp.finish_secs();
        stats.h_applications += 1;
        // R_f = Ψ_f + i dt/2 (H_f Ψ_f − Ψ_f (Ψ_f* H_f Ψ_f)) − Ψ_{n+1/2},
        // on the driver's pool on every layout (Alg. 3 without its flips)
        let sp = pt_trace::span("residual");
        let mut resid = pt_residual(&psi_f, &hpsi_f, &half.psi, half.dt);
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
    stats.scf_iterations += iterations;
    if opts.strict && !stats.converged {
        return Err(PtError::NotConverged {
            context: "PT-CN fixed point",
            residual: stats.rho_residual,
            tol: opts.rho_tol,
            iterations,
        });
    }
    Ok(psi_f)
}

/// Alg. 1 line 11: re-orthonormalize ψ_f (Cholesky + TRSM, §3.4). No
/// ridge: the block is near-orthonormal after a step, so the overlap is
/// well conditioned. A non-finite iterate has no Cholesky factor, so it is
/// handed back as it is.
fn reorthonormalized(mut psi_f: CMat, stats: &mut StepStats) -> CMat {
    if stats.rho_residual.is_finite() {
        let sp = pt_trace::span("ortho");
        orthonormalize_columns(&mut psi_f, 0.0);
        stats.phases.ortho += sp.finish_secs();
    }
    psi_f
}

/// One PT-CN step (Alg. 1) under one exchange for the whole step: the
/// exact Fock loop over the live iterate (`ace: None`) or a frozen ACE
/// projector (a stale-window step). Everything outside the exact exchange
/// block (the local `HΨ`, the residual, density, preconditioned Anderson
/// mixing, re-orthonormalization) runs on the driver, so the step's
/// output bits do not depend on the layout.
///
/// A non-finite fixed point skips the re-orthonormalization and leaves
/// the state at the non-finite iterate with `converged: false`, which the
/// caller's record check refuses ([`PtError::Diverged`] in
/// [`crate::Simulation::run`]).
fn ptcn_step_with(
    opts: &PtCnOptions,
    sys: &KsSystem,
    laser: Option<&LaserPulse>,
    state: &mut TdState,
    dt: f64,
    v_n: Option<Vec<f64>>,
    ace: Option<&AceOperator>,
) -> Result<StepStats, PtError> {
    let mut stats = StepStats::default();
    let half = half_step(sys, laser, state, dt, v_n, ace, &mut stats)?;
    let psi_f = fixed_point(opts, sys, &half, half.psi.clone(), ace, &mut stats)?;
    state.psi = reorthonormalized(psi_f, &mut stats);
    state.t = half.t_next;
    Ok(stats)
}

/// Cap on self-consistent projector rounds per refresh step. The round
/// map contracts by an O(dt·coupling) factor per pass: on the Si-8 HSE
/// benchmark system at dt = 25 as the inter-round drift of its first
/// refresh goes 1.8e-2 → 1.7e-3 → 4.2e-5 → 5.3e-6 → 3.8e-7, so a 1e-6
/// `rho_tol` takes 6 rounds (round 1 has no drift to compare), with
/// 8/7/5/4/2/1 fixed-point iterations. The cap guards pathological
/// dynamics, and overrunning it is reported like an unconverged fixed
/// point.
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
/// residual (in the PT gauge Ψ_n is the exchange's defining Φ), so the
/// half step runs once, under ξ_n. A fixed point solved under ξ_n alone
/// differs from `Full` — which sees V_X[ψ_f] — by an O(dt) operator
/// discrepancy, i.e. an O(dt²) per-step trajectory error that no dt
/// practical for hybrid PT-CN pushes below ~1e-8. So the refresh
/// re-solves only the fixed point in rounds: rebuild ξ_f from the previous
/// round's raw iterate (the pre-re-orthonormalization block `Full` feeds
/// its Fock operator), start the solve from that iterate, and stop when
/// the density drift between rounds falls below `rho_tol`. ACE is exact
/// on its defining block, so the round fixed point *is* the `Full` fixed
/// point; each round costs one Fock block-apply plus a cheap
/// projector-only solve, still several× cheaper than `Full`'s
/// per-iteration Fock loop. The accepted round's ξ_f is then frozen for
/// the stale window, and its drift density — ρ of the Ψ the step commits —
/// is handed back for the step's record.
#[expect(
    clippy::too_many_arguments,
    reason = "the PT-CN step's inputs plus the run's hand-over and the ACE slot"
)]
fn ace_ptcn_step(
    opts: &PtCnOptions,
    sys: &KsSystem,
    laser: Option<&LaserPulse>,
    state: &mut TdState,
    dt: f64,
    v_n: Option<Vec<f64>>,
    refresh_interval: usize,
    ace_slot: &mut Option<AceCapture>,
) -> Result<(StepStats, Option<Vec<f64>>), PtError> {
    let in_window = |a: &&mut AceCapture| {
        a.steps_since_refresh < refresh_interval
            && a.op.xi().nrows() == state.psi.nrows()
            && a.op.rank() == state.psi.ncols()
    };
    if let Some(ace) = ace_slot.as_mut().filter(in_window) {
        let stats = ptcn_step_with(opts, sys, laser, state, dt, v_n, Some(&ace.op))?;
        ace.steps_since_refresh += 1;
        return Ok((stats, None));
    }

    let mut stats = StepStats::default();
    let sp = pt_trace::span("ace_build");
    let mut xi = build_ace(sys, &state.psi)?;
    stats.phases.ace_build += sp.finish_secs();
    let half = half_step(sys, laser, state, dt, v_n, Some(&xi), &mut stats)?;
    let mut seed = half.psi.clone();
    let mut prev_rho: Option<Vec<f64>> = None;
    let mut drift = f64::INFINITY;
    let mut rounds = 0usize;
    let (psi, rho) = loop {
        rounds += 1;
        pt_trace::counter_add(pt_trace::Counter::AceRefreshRounds, 1);
        let raw = fixed_point(opts, sys, &half, seed, Some(&xi), &mut stats)?;
        // the drift is measured on what the step would commit
        let psi = reorthonormalized(raw.clone(), &mut stats);
        let sp = pt_trace::span("density");
        let rho = sys.density(&psi);
        stats.phases.density += sp.finish_secs();
        if let Some(prev) = &prev_rho {
            drift = density_residual(&rho, prev, sys.grids.volume);
        }
        // a non-finite round has no projector to refine: hand it back
        // unconverged, as the fixed point does
        let finite = stats.rho_residual.is_finite();
        if !finite {
            drift = stats.rho_residual;
        }
        if !finite || drift < opts.rho_tol || rounds == ACE_MAX_REFRESH_ROUNDS {
            break (psi, rho);
        }
        prev_rho = Some(rho);
        // ξ_f from the raw iterate, the block `Full` feeds its Fock
        // operator: the re-orthonormalized one differs by the fixed
        // point's orthonormality defect, which would floor the agreement
        let sp = pt_trace::span("ace_build");
        xi = build_ace(sys, &raw)?;
        stats.phases.ace_build += sp.finish_secs();
        seed = raw;
    };
    let converged = drift < opts.rho_tol;
    stats.converged &= converged;
    if opts.strict && !converged {
        return Err(PtError::NotConverged {
            context: "ACE refresh self-consistency",
            residual: drift,
            tol: opts.rho_tol,
            iterations: rounds,
        });
    }
    state.psi = psi;
    state.t = half.t_next;
    *ace_slot = Some(AceCapture {
        op: xi,
        steps_since_refresh: 1,
    });
    Ok((stats, Some(rho)))
}

/// `k = −i H[ρ(ψ), ψ](t) ψ`, one RK4 stage, the Hamiltonian rebuilt from
/// `psi` (on the handed-over potential `v` if there is one) and its
/// exchange block run where the system's layout says.
fn rk4_rhs(
    sys: &KsSystem,
    laser: Option<&LaserPulse>,
    psi: &CMat,
    t: f64,
    v: Option<Vec<f64>>,
    stats: &mut StepStats,
) -> Result<CMat, PtError> {
    let rho;
    let local = match v {
        Some(v) => Local::Carried(v),
        None => {
            rho = sys.density(psi);
            Local::Density(&rho)
        }
    };
    let mut hpsi = apply_h(sys, local, psi, a_field(laser, t), None)?;
    stats.h_applications += 1;
    for z in hpsi.data_mut().iter_mut() {
        *z = z.mul_neg_i();
    }
    Ok(hpsi)
}

/// One explicit 4th-order Runge–Kutta step of size `dt` on
/// `i ∂t Ψ = H[ρ(Ψ), Ψ](t) Ψ` — the baseline of Fig. 6
/// ([`Propagator::Rk4`]). The Hamiltonian (density, exchange orbitals,
/// laser field) is rebuilt at every stage. The orbitals are never
/// re-orthonormalized, so its norm drift is the instability the ceiling
/// [`crate::max_stable_rk4_dt`] bounds. The first stage runs on the
/// handed-over `v_n` of Ψ_n when there is one.
fn rk4_step(
    sys: &KsSystem,
    laser: Option<&LaserPulse>,
    state: &mut TdState,
    dt: f64,
    v_n: Option<Vec<f64>>,
) -> Result<StepStats, PtError> {
    let mut stats = StepStats {
        converged: true,
        ..StepStats::default()
    };
    let psi0 = state.psi.clone();
    let n = psi0.data().len();

    let k1 = rk4_rhs(sys, laser, &psi0, state.t, v_n, &mut stats)?;
    let mut tmp = psi0.clone();
    for i in 0..n {
        tmp.data_mut()[i] = psi0.data()[i] + k1.data()[i].scale(0.5 * dt);
    }
    let k2 = rk4_rhs(sys, laser, &tmp, state.t + 0.5 * dt, None, &mut stats)?;
    for i in 0..n {
        tmp.data_mut()[i] = psi0.data()[i] + k2.data()[i].scale(0.5 * dt);
    }
    let k3 = rk4_rhs(sys, laser, &tmp, state.t + 0.5 * dt, None, &mut stats)?;
    for i in 0..n {
        tmp.data_mut()[i] = psi0.data()[i] + k3.data()[i].scale(dt);
    }
    let k4 = rk4_rhs(sys, laser, &tmp, state.t + dt, None, &mut stats)?;

    for i in 0..n {
        let incr = k1.data()[i] + (k2.data()[i] + k3.data()[i]).scale(2.0) + k4.data()[i];
        state.psi.data_mut()[i] = psi0.data()[i] + incr.scale(dt / 6.0);
    }
    state.t += dt;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observables::{density_matrix_distance, orthonormality_error};
    use pt_ham::{FockMode, FockOperator, HybridConfig};
    use pt_lattice::silicon_cubic_supercell;
    use pt_par::RankLayout;
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

        let mut rk = Propagator::Rk4;
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
        let mut rk = Propagator::Rk4;
        let mut st = TdState::new(psi0);
        let dt = pt_num::units::attosecond_to_au(0.5);
        for _ in 0..5 {
            rk.step(&sys, None, &mut st, dt).unwrap();
        }
        assert!(orthonormality_error(&st.psi) < 1e-8);
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
        for layout in [None, Some(RankLayout::new(2, 1))] {
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

    /// The 4-band HSE06 Si-8 fixture under `mode` on `layout`.
    fn hybrid_4band(mode: ExchangeMode, layout: Option<RankLayout>) -> KsSystem {
        let mut b = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(XcKind::Pbe)
            .hybrid(HybridConfig::hse06())
            .occupations(vec![2.0; 4])
            .exchange_mode(mode);
        if let Some(l) = layout {
            b = b.layout(l);
        }
        b.build().unwrap()
    }

    fn assert_same_bits(want: &CMat, got: &CMat, what: &str) {
        for (x, y) in want.data().iter().zip(got.data()) {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what}: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn the_driver_compositions_carry_pt_hams_operator_bits_on_every_layout() {
        // HΨ with the exact Fock loop, the ACE projector and HΨ under it,
        // taken straight from pt-ham's operators on one thread, are the
        // reference: apply_h and build_ace must carry their bits inline on
        // 1 and 4 threads and with the exchange on a rank team
        let plain = hybrid_4band(ExchangeMode::Full, None);
        let (ng, nb) = (plain.grids.ng(), plain.n_bands());
        let psi = CMat::rand_normalized(ng, nb, 17);
        let rho = plain.density(&psi);
        let a = [0.0, 0.0, 0.01];
        let want = pt_par::ThreadPool::new(1).install(|| {
            let mut h_full = CMat::zeros(ng, nb);
            let h = plain.hamiltonian(&rho, Some(&psi), a).unwrap();
            h.apply_block(&psi, &mut h_full);
            let kernel = plain.exchange_kernel().unwrap().clone();
            let fock = FockOperator::new(&plain.grids, &psi, 0.25, kernel, FockMode::Batched);
            let ace = AceOperator::new(&plain.grids, &fock, &psi).unwrap();
            let mut h_ace = CMat::zeros(ng, nb);
            let local = plain.local_hamiltonian(&rho, a).unwrap();
            local.apply_block(&psi, &mut h_ace);
            ace.apply_block(&psi, &mut h_ace);
            [h_full, ace.xi().clone(), h_ace]
        });
        for layout in [(1, 1), (1, 4), (2, 1), (3, 4)] {
            let sys = hybrid_4band(
                ExchangeMode::Full,
                Some(RankLayout::new(layout.0, layout.1)),
            );
            let got = sys.install(|| {
                let h_full = apply_h(&sys, Local::Density(&rho), &psi, a, None).unwrap();
                let ace = build_ace(&sys, &psi).unwrap();
                let h_ace = apply_h(&sys, Local::Density(&rho), &psi, a, Some(&ace)).unwrap();
                [h_full, ace.xi().clone(), h_ace]
            });
            for (w, g) in want.iter().zip(&got) {
                assert_same_bits(w, g, &format!("{layout:?}"));
            }
        }
    }

    #[test]
    fn rk4_runs_its_exchange_on_the_systems_layout_with_the_inline_bits() {
        // RK4's stages reach exact exchange through the same seam as PT-CN:
        // on a 2 × 1 system every stage's block is a job on the system's
        // team, and the step keeps the inline bits
        let psi0 = {
            let sys = hybrid_4band(ExchangeMode::Full, None);
            let mut psi = CMat::rand_normalized(sys.grids.ng(), sys.n_bands(), 23);
            pt_linalg::orthonormalize_columns(&mut psi, 0.0);
            psi
        };
        let laser = LaserPulse::paper_380nm(0.05, 0.0, 20.0);
        let dt = pt_num::units::attosecond_to_au(2.0);
        let two_steps = |layout: Option<RankLayout>| {
            let sys = hybrid_4band(ExchangeMode::Full, layout);
            let mut st = TdState::new(psi0.clone());
            sys.install(|| {
                for _ in 0..2 {
                    Propagator::Rk4
                        .step(&sys, Some(&laser), &mut st, dt)
                        .unwrap();
                }
            });
            st.psi
        };
        let inline = two_steps(None);
        assert_same_bits(&inline, &two_steps(Some(RankLayout::new(2, 1))), "2x1");
    }

    #[test]
    fn ace_step_on_two_ranks_advances_and_captures_the_projector() {
        let sys = hybrid_4band(
            ExchangeMode::Ace {
                refresh_interval: 2,
            },
            Some(RankLayout::new(2, 1)),
        );
        let gs = scf_loop(&sys, ScfOptions::default()).unwrap();
        let mut prop = PtCnPropagator::default();
        let mut state = TdState::new(gs.orbitals.clone());
        let dt = pt_num::units::attosecond_to_au(25.0);
        let s1 = prop.step(&sys, None, &mut state, dt).unwrap();
        assert!(s1.converged);
        let s2 = prop.step(&sys, None, &mut state, dt).unwrap();
        assert!(s2.converged);
        let cap = prop.ace().expect("two ACE steps must leave a projector");
        assert_eq!(cap.steps_since_refresh, 2, "interval-2 window exhausted");
        assert_eq!(cap.op.xi().nrows(), sys.grids.ng());
    }

    #[test]
    fn strict_ptcn_reports_nonconvergence_as_error() {
        let (sys, psi0) = ground_state(false);
        // an unreachable tolerance with a starved iteration budget
        let mut prop = PtCnPropagator::new(PtCnOptions {
            rho_tol: 1e-30,
            max_scf: 1,
            strict: true,
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
    fn both_propagators_are_runtime_selectable() {
        let (sys, psi0) = ground_state(false);
        let dt = pt_num::units::attosecond_to_au(1.0);
        for mut prop in [Propagator::default(), Propagator::Rk4] {
            let mut st = TdState::new(psi0.clone());
            let stats = prop.step(&sys, None, &mut st, dt).unwrap();
            assert!(stats.h_applications >= 1, "{}", prop.name());
            assert!((st.t - dt).abs() < 1e-15);
        }
    }
}
