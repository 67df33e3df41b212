//! `KsSystem` — the static problem definition plus potential/energy
//! assembly from a density, and the one layout-aware exact exchange block.

use crate::density::density_from_orbitals;
use crate::distributed::{distributed_fock_apply, BandDistribution};
use crate::error::PtError;
use crate::fock::{same_bits, FockMode, FockOperator, ScreenedKernel};
use crate::grids::PwGrids;
use crate::hamiltonian::Hamiltonian;
use crate::hartree::coulomb_kernel;
use pt_lattice::{ewald_energy, Structure};
use pt_linalg::CMat;
use pt_mpi::{EnginePoisoned, RankEngine, Wire};
use pt_num::{c64, complex::zdotc};
use pt_par::{RankLayout, ThreadPool};
use pt_pseudo::{LocalPotential, NonlocalPs};
use pt_xc::{XcGridEvaluator, XcKind};
use std::sync::{Arc, PoisonError};

/// Hybrid-functional configuration (HSE06-like: α = 0.25, ω = 0.11).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HybridConfig {
    /// Fock mixing fraction α.
    pub alpha: f64,
    /// Screening parameter ω (bohr⁻¹); 0 = unscreened (PBE0-like).
    pub omega: f64,
}

impl HybridConfig {
    /// The paper's functional: HSE06 (α = 0.25, ω = 0.11 bohr⁻¹).
    pub fn hse06() -> Self {
        HybridConfig {
            alpha: 0.25,
            omega: 0.11,
        }
    }
}

/// How the exchange contribution is evaluated during propagation.
///
/// `Full` is the paper's Summit configuration: the screened Fock operator
/// is rebuilt from the live orbitals and applied with the pair-FFT loop on
/// every PT-CN fixed-point iteration. `Ace` is the companion paper's CPU
/// configuration (Jia & Lin, arXiv:1809.09609): the ACE projector
/// `ξ = W L^{-H}` is refreshed from Ψ_n every `refresh_interval` steps and
/// the rank-N_φ `−ξ(ξ^H ψ)` stands in for the Fock loop inside the fixed
/// point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExchangeMode {
    /// Exact pair-FFT Fock on every fixed-point iteration.
    #[default]
    Full,
    /// ACE projector refreshed every `refresh_interval` steps.
    Ace {
        /// Steps between projector rebuilds (1 = refresh every step).
        refresh_interval: usize,
    },
}

impl ExchangeMode {
    /// Check the interval; [`PtError::InvalidConfig`] on a zero count.
    pub fn validate(&self) -> Result<(), PtError> {
        if self.refresh_interval() == Some(0) {
            return Err(PtError::InvalidConfig(
                "ace_refresh_interval must be at least 1".into(),
            ));
        }
        Ok(())
    }

    /// Steps between ACE projector rebuilds (`None` for [`ExchangeMode::Full`]).
    pub fn refresh_interval(&self) -> Option<usize> {
        match *self {
            ExchangeMode::Full => None,
            ExchangeMode::Ace { refresh_interval } => Some(refresh_interval),
        }
    }
}

/// Potentials and energy pieces derived from one density.
pub struct Potentials {
    /// Total local potential on the dense grid (pseudo + Hartree + XC).
    pub v_total: Vec<f64>,
    /// Hartree energy.
    pub e_hartree: f64,
    /// Semi-local XC energy.
    pub e_xc: f64,
    /// ∫ v_xc ρ (double-counting correction bookkeeping).
    pub int_vxc_rho: f64,
    /// ∫ v_ps,loc ρ.
    pub e_loc_ps: f64,
}

/// Energy breakdown of a state.
#[derive(Clone, Copy, Debug, Default)]
pub struct Energies {
    /// Kinetic.
    pub kinetic: f64,
    /// Local pseudopotential.
    pub local_ps: f64,
    /// Nonlocal pseudopotential.
    pub nonlocal: f64,
    /// Hartree.
    pub hartree: f64,
    /// Semi-local XC.
    pub xc: f64,
    /// Fock exchange (α-scaled, screened).
    pub fock: f64,
    /// Ewald ion–ion.
    pub ewald: f64,
}

impl Energies {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.kinetic
            + self.local_ps
            + self.nonlocal
            + self.hartree
            + self.xc
            + self.fock
            + self.ewald
    }
}

/// The static Kohn–Sham problem: structure, grids, pseudopotentials,
/// functional choice — and the machine layout it runs on, with what that
/// layout owns: its `layout.cores()`-wide pool and, for `ranks > 1`, its
/// rank team (the paper's one MPI rank per GPU, in process).
///
/// The team is spawned on the first exact exchange block
/// ([`KsSystem::exchange_block`]), never at build, and lives as long as
/// the system: every propagator, clone or resumed run that steps on it
/// submits its jobs to the same parked threads. Beside it sits a one-entry
/// memo of the last exact exchange block, keyed by the bits of its Φ.
pub struct KsSystem {
    /// Geometry.
    pub structure: Structure,
    /// Plane-wave grids.
    pub grids: Arc<PwGrids>,
    /// Local pseudopotential (dense-grid real space).
    pub vps_loc_r: Vec<f64>,
    /// Nonlocal pseudopotential.
    pub nonlocal: Arc<NonlocalPs>,
    /// Semi-local XC evaluator.
    pub xc: XcGridEvaluator,
    /// Hybrid configuration (None = pure semi-local).
    pub hybrid: Option<HybridConfig>,
    /// Screened exchange kernel (precomputed when hybrid).
    pub kernel: Option<ScreenedKernel>,
    /// Ewald ion–ion energy (geometry constant).
    pub e_ewald: f64,
    /// Occupations (2.0 per doubly occupied band).
    pub occupations: Vec<f64>,
    /// The `layout.cores()`-wide pool of a system with a layout (None =
    /// inherit the surrounding pool / `PT_NUM_THREADS`).
    pool: Option<Arc<ThreadPool>>,
    /// The rank team of a `ranks > 1` layout, spawned lazily.
    #[expect(
        clippy::disallowed_types,
        reason = "locked only in exchange_block, on the calling thread, never from a pt-par task"
    )]
    team: std::sync::Mutex<Option<RankEngine>>,
    /// `(Φ, V_X[Φ]Φ)` of the last block [`KsSystem::exchange_block`] made,
    /// keyed by Φ alone: it assumes `hybrid` and `kernel` are not edited.
    #[expect(
        clippy::disallowed_types,
        reason = "locked only in exchange_block, on the calling thread, never from a pt-par task"
    )]
    memo: std::sync::Mutex<Option<(CMat, CMat)>>,
    layout: Option<RankLayout>,
    exchange_mode: ExchangeMode,
}

/// Builder for [`KsSystem`] — the validated entry point of the setup path.
///
/// ```no_run
/// # use pt_ham::{KsSystem, HybridConfig};
/// # use pt_lattice::silicon_cubic_supercell;
/// # use pt_xc::XcKind;
/// let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
///     .ecut(2.5)
///     .xc(XcKind::Pbe)
///     .hybrid(HybridConfig::hse06())
///     .build()
///     .expect("valid configuration");
/// ```
///
/// Misuse (non-positive cutoff, empty structure, bad occupations, out-of-
/// range hybrid parameters) returns [`PtError`] instead of panicking.
#[derive(Clone, Debug)]
pub struct KsSystemBuilder {
    structure: Structure,
    ecut: f64,
    xc_kind: XcKind,
    hybrid: Option<HybridConfig>,
    occupations: Option<Vec<f64>>,
    layout: Option<RankLayout>,
    exchange_mode: ExchangeMode,
}

impl KsSystemBuilder {
    /// Start a builder for `structure` with the defaults: `ecut` 10 Ha (the
    /// paper's production cutoff), PBE, no hybrid, closed-shell occupations.
    pub fn new(structure: Structure) -> Self {
        KsSystemBuilder {
            structure,
            ecut: 10.0,
            xc_kind: XcKind::Pbe,
            hybrid: None,
            occupations: None,
            layout: None,
            exchange_mode: ExchangeMode::Full,
        }
    }

    /// Kinetic cutoff in Ha.
    pub fn ecut(mut self, ecut: f64) -> Self {
        self.ecut = ecut;
        self
    }

    /// Semi-local XC functional.
    pub fn xc(mut self, kind: XcKind) -> Self {
        self.xc_kind = kind;
        self
    }

    /// Enable hybrid exchange with `cfg` (e.g. [`HybridConfig::hse06`]).
    pub fn hybrid(mut self, cfg: HybridConfig) -> Self {
        self.hybrid = Some(cfg);
        self
    }

    /// The run's execution layout — the paper's one MPI rank per GPU plus
    /// a CPU-thread slice, in process. The system computes on a dedicated
    /// `layout.cores()`-wide pool: `scf_loop` and `Simulation::run`
    /// install it around their whole loops, so SCF and everything PT-CN
    /// replicates (density, mixing, re-orthonormalization) run on it. One
    /// rank computes every exact exchange block inline on that pool; more
    /// run each as one job on the system's rank team of `layout.ranks`
    /// threads, each with its own pinned `threads_per_rank`-wide pool
    /// ([`KsSystem::exchange_block`]). Unset, the system inherits the
    /// surrounding pool (`PT_NUM_THREADS`) and runs inline. Zero extents
    /// are rejected in [`KsSystemBuilder::build`].
    pub fn layout(mut self, layout: RankLayout) -> Self {
        self.layout = Some(layout);
        self
    }

    /// How propagation evaluates the exchange contribution (default:
    /// [`ExchangeMode::Full`]). `Ace` requires a hybrid functional —
    /// requesting it on a semi-local system is rejected in
    /// [`KsSystemBuilder::build`].
    pub fn exchange_mode(mut self, mode: ExchangeMode) -> Self {
        self.exchange_mode = mode;
        self
    }

    /// Override the closed-shell default occupations (one entry per band).
    ///
    /// The sum of `occ` *is* the electron count of the simulation. If it
    /// differs from the structure's valence charge the cell is charged:
    /// the Hartree term uses the jellium (neutralizing-background)
    /// convention, while the Ewald ion–ion energy still assumes the full
    /// ionic charges — total energies are then only comparable between
    /// runs with the same occupations, not to the neutral cell.
    pub fn occupations(mut self, occ: Vec<f64>) -> Self {
        self.occupations = Some(occ);
        self
    }

    /// Validate and assemble the [`KsSystem`].
    pub fn build(self) -> Result<KsSystem, PtError> {
        if self.structure.atoms.is_empty() {
            return Err(PtError::InvalidConfig("structure has no atoms".into()));
        }
        if !self.ecut.is_finite() || self.ecut <= 0.0 {
            return Err(PtError::InvalidConfig(format!(
                "cutoff must be positive and finite, got {}",
                self.ecut
            )));
        }
        if let Some(h) = &self.hybrid {
            if !(0.0..=1.0).contains(&h.alpha) || !h.alpha.is_finite() {
                return Err(PtError::InvalidConfig(format!(
                    "hybrid mixing fraction alpha must lie in [0, 1], got {}",
                    h.alpha
                )));
            }
            if !h.omega.is_finite() || h.omega < 0.0 {
                return Err(PtError::InvalidConfig(format!(
                    "screening parameter omega must be nonnegative, got {}",
                    h.omega
                )));
            }
        }
        self.exchange_mode.validate()?;
        if self.exchange_mode != ExchangeMode::Full && self.hybrid.is_none() {
            return Err(PtError::InvalidConfig(
                "ACE exchange requires a hybrid functional (there is no \
                 exchange operator to compress on a semi-local system)"
                    .into(),
            ));
        }
        if let Some(l) = &self.layout {
            l.validate()
                .map_err(|msg| PtError::InvalidConfig(format!("layout: {msg}")))?;
        }
        let occupations = match self.occupations {
            Some(occ) => {
                if occ.is_empty() {
                    return Err(PtError::InvalidConfig(
                        "occupations must be nonempty".into(),
                    ));
                }
                if occ.iter().any(|&f| !f.is_finite() || f < 0.0) {
                    return Err(PtError::InvalidConfig(
                        "occupations must be finite and nonnegative".into(),
                    ));
                }
                occ
            }
            None => {
                // closed-shell default: requires an even electron count
                // (Structure::n_occupied_bands would assert and panic)
                let ne = self.structure.n_electrons();
                let nb = (ne / 2.0).round() as usize;
                if (ne - 2.0 * nb as f64).abs() > 1e-9 {
                    return Err(PtError::InvalidConfig(format!(
                        "default occupations need an even electron count, got N_elec = {ne}; \
                         pass explicit .occupations(..) for open-shell or charged systems"
                    )));
                }
                vec![2.0; nb]
            }
        };

        let structure = self.structure;
        let grids = Arc::new(PwGrids::new(&structure, self.ecut));
        if occupations.len() > grids.ng() {
            // more bands than basis vectors: the orbital block is singular
            // by construction and every solver downstream breaks
            return Err(PtError::InvalidConfig(format!(
                "{} bands exceed the {} plane waves at cutoff {} Ha; raise ecut or trim occupations",
                occupations.len(),
                grids.ng(),
                self.ecut
            )));
        }
        // local PS: G-space assembly → dense-grid real values
        let lp = LocalPotential::new(&structure, &grids.gv_dense);
        let n = grids.n_dense();
        let mut arr: Vec<c64> = lp.coeffs.iter().map(|c| c.scale(n as f64)).collect();
        grids.fft_dense.inverse(&mut arr);
        let vps_loc_r: Vec<f64> = arr.iter().map(|z| z.re).collect();
        let nonlocal = Arc::new(
            NonlocalPs::new(&structure, &grids.sphere)
                .map_err(|e| PtError::InvalidConfig(e.to_string()))?,
        );
        let xc = XcGridEvaluator::new(self.xc_kind, grids.volume);
        let kernel = self.hybrid.map(|h| ScreenedKernel::new(&grids, h.omega));
        let e_ewald = ewald_energy(&structure);
        Ok(KsSystem {
            structure,
            grids,
            vps_loc_r,
            nonlocal,
            xc,
            hybrid: self.hybrid,
            kernel,
            e_ewald,
            occupations,
            // a layout's cores are the pool the job computes on, not
            // whatever pool happens to surround the caller
            pool: self.layout.map(|l| Arc::new(ThreadPool::new(l.cores()))),
            team: Default::default(),
            memo: Default::default(),
            layout: self.layout,
            exchange_mode: self.exchange_mode,
        })
    }
}

/// The shape fingerprint of a [`KsSystem`] — what a run snapshot records
/// so that resuming it against a *different* problem (other cell, cutoff,
/// band count) fails with a typed error instead of producing garbage.
/// The cell volume is compared bit-exactly: two systems that agree on all
/// extents but sit in different cells are still different problems.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SystemSignature {
    /// Plane waves in the wavefunction sphere.
    pub ng: usize,
    /// Dense density-grid points.
    pub n_dense: usize,
    /// Occupied bands.
    pub n_bands: usize,
    /// Atoms in the cell.
    pub n_atoms: usize,
    /// `f64::to_bits` of the cell volume.
    pub volume_bits: u64,
}

impl SystemSignature {
    /// Serialize as a fixed word list (the snapshot `sig` section).
    pub fn to_words(&self) -> [u64; 5] {
        [
            self.ng as u64,
            self.n_dense as u64,
            self.n_bands as u64,
            self.n_atoms as u64,
            self.volume_bits,
        ]
    }

    /// Rebuild from [`SystemSignature::to_words`] output; `None` when the
    /// word list has the wrong arity.
    pub fn from_words(words: &[u64]) -> Option<Self> {
        match *words {
            [ng, n_dense, n_bands, n_atoms, volume_bits] => Some(SystemSignature {
                ng: ng as usize,
                n_dense: n_dense as usize,
                n_bands: n_bands as usize,
                n_atoms: n_atoms as usize,
                volume_bits,
            }),
            _ => None,
        }
    }
}

impl KsSystem {
    /// Start a [`KsSystemBuilder`] for `structure`.
    pub fn builder(structure: Structure) -> KsSystemBuilder {
        KsSystemBuilder::new(structure)
    }

    /// This system's [`SystemSignature`] (recorded in run snapshots and
    /// re-checked on resume).
    pub fn signature(&self) -> SystemSignature {
        SystemSignature {
            ng: self.grids.ng(),
            n_dense: self.grids.n_dense(),
            n_bands: self.n_bands(),
            n_atoms: self.structure.atoms.len(),
            volume_bits: self.grids.volume.to_bits(),
        }
    }

    /// Run `f` under this system's configured pool (a no-op wrapper when
    /// no dedicated pool was requested — `f` then inherits the caller's
    /// pool, ultimately `PT_NUM_THREADS`). The SCF and simulation drivers
    /// wrap their loops in this.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.pool {
            Some(p) => p.install(f),
            None => f(),
        }
    }

    /// How propagation evaluates the exchange contribution, set through
    /// [`KsSystemBuilder::exchange_mode`] (only meaningful for hybrid
    /// systems; the builder refuses `Ace` on a semi-local one).
    pub fn exchange_mode(&self) -> ExchangeMode {
        self.exchange_mode
    }

    /// Number of occupied bands.
    pub fn n_bands(&self) -> usize {
        self.occupations.len()
    }

    /// Assemble potentials from a density: one pass of the semi-local
    /// pipeline ([`XcGridEvaluator::evaluate`]) with the Coulomb kernel
    /// riding along, so ρ(G) is transformed once for Hartree and XC. The
    /// sums run in grid order on the calling thread; the returned `v_total`
    /// is the only allocation of a warm call.
    pub fn potentials(&self, rho: &[f64]) -> Potentials {
        let g = &self.grids;
        let mut v_total = vec![0.0; g.n_dense()];
        let (mut vh_rho, mut vxc_rho, mut vps_rho) = (0.0, 0.0, 0.0);
        let e_xc = self.xc.evaluate(
            &g.fft_dense,
            &g.gv_dense,
            rho,
            coulomb_kernel,
            |i, vxc, vh| {
                let vps = self.vps_loc_r[i];
                v_total[i] = vps + vh + vxc;
                vh_rho += vh * rho[i];
                vxc_rho += vxc * rho[i];
                vps_rho += vps * rho[i];
            },
        );
        let dv = g.volume / g.n_dense() as f64;
        Potentials {
            v_total,
            e_hartree: 0.5 * vh_rho * dv,
            e_xc,
            int_vxc_rho: vxc_rho * dv,
            e_loc_ps: vps_rho * dv,
        }
    }

    /// Build a Hamiltonian from a density and (for hybrids) the orbitals Φ
    /// defining the exchange operator.
    ///
    /// Misuse is reported as [`PtError`]: a hybrid system without `phi`
    /// yields [`PtError::MissingExchangeOrbitals`]; a density or orbital
    /// block of the wrong extent yields [`PtError::ShapeMismatch`].
    pub fn hamiltonian(
        &self,
        rho: &[f64],
        phi: Option<&CMat>,
        a_field: [f64; 3],
    ) -> Result<Hamiltonian, PtError> {
        if let Some(p) = phi {
            if p.nrows() != self.grids.ng() {
                return Err(PtError::ShapeMismatch {
                    context: "exchange orbital rows (plane waves)",
                    expected: self.grids.ng(),
                    got: p.nrows(),
                });
            }
        }
        let mut h = self.local_hamiltonian(rho, a_field)?;
        h.fock = match (&self.hybrid, phi) {
            (Some(hy), Some(phi)) => {
                let kernel = self.exchange_kernel()?.clone();
                Some(Arc::new(FockOperator::new(
                    &self.grids,
                    phi,
                    hy.alpha,
                    kernel,
                    FockMode::Batched,
                )))
            }
            (Some(_), None) => return Err(PtError::MissingExchangeOrbitals),
            _ => None,
        };
        Ok(h)
    }

    /// The Fock-free part of the Hamiltonian (kinetic + local + nonlocal)
    /// assembled from a density — what every virtual-MPI rank applies to
    /// its own bands while the exchange part goes through the distributed
    /// Alg. 2 broadcast loop. [`KsSystem::hamiltonian`] builds on this and
    /// attaches the in-process Fock operator. The potential build is the
    /// traced span `potentials`.
    pub fn local_hamiltonian(
        &self,
        rho: &[f64],
        a_field: [f64; 3],
    ) -> Result<Hamiltonian, PtError> {
        if rho.len() != self.grids.n_dense() {
            return Err(PtError::ShapeMismatch {
                context: "density on the dense grid",
                expected: self.grids.n_dense(),
                got: rho.len(),
            });
        }
        let sp = pt_trace::span("potentials");
        let v_total = self.potentials(rho).v_total;
        drop(sp);
        self.local_hamiltonian_with(v_total, a_field)
    }

    /// The Fock-free Hamiltonian on a total local potential built before —
    /// [`Potentials::v_total`] of the density it stands for — so a caller
    /// holding that potential does not build it again.
    /// [`PtError::ShapeMismatch`] when it is not one value per dense-grid
    /// point.
    pub fn local_hamiltonian_with(
        &self,
        v_total: Vec<f64>,
        a_field: [f64; 3],
    ) -> Result<Hamiltonian, PtError> {
        if v_total.len() != self.grids.n_dense() {
            return Err(PtError::ShapeMismatch {
                context: "local potential on the dense grid",
                expected: self.grids.n_dense(),
                got: v_total.len(),
            });
        }
        Ok(Hamiltonian {
            grids: Arc::clone(&self.grids),
            vloc_r: v_total,
            nonlocal: Arc::clone(&self.nonlocal),
            fock: None,
            a_field,
        })
    }

    /// The screened exchange kernel of a hybrid system (typed error when
    /// the system was assembled without one).
    pub fn exchange_kernel(&self) -> Result<&ScreenedKernel, PtError> {
        self.kernel.as_ref().ok_or_else(|| {
            PtError::InvalidConfig(
                "hybrid functional configured but the screened exchange kernel is missing (KsSystem built by hand?)"
                    .into(),
            )
        })
    }

    /// The exact exchange block `W = V_X[Φ]Φ` — the Fock operator over Φ
    /// applied to Φ itself (N(N+1)/2 pair solves), the only form in which
    /// the parallel-transport gauge touches exact exchange — run where this
    /// system's layout says: **inline** on the installed pool for one rank
    /// (or no layout), as **one job on the rank team** for more. The team
    /// is spawned on the first call and parked between calls; every rank
    /// broadcasts its cyclic bands (Alg. 2), solves its dealt pair tiles
    /// ([`distributed_fock_apply`]) and the driver gathers the columns.
    /// Every message is `f64`, so both sides give the same bits.
    ///
    /// The last block made is remembered with its Φ: a call handed a Φ of
    /// the same shape and bits gets a copy and neither computes nor touches
    /// the team, so a step's record and the next step's first exact
    /// exchange on that Ψ cost one block. The one entry is runtime state,
    /// never snapshotted, and only a call that succeeded fills it.
    ///
    /// A system without a hybrid (or its kernel) is a typed error before
    /// any team exists. A rank panic inside the job is re-raised with its
    /// original payload; every later call that must compute is
    /// [`PtError::EngineDown`] with that cause — never a hang, never a
    /// panic on the team's lock.
    pub fn exchange_block(&self, phi: &CMat) -> Result<CMat, PtError> {
        let alpha = self.hybrid.ok_or(PtError::MissingExchangeOrbitals)?.alpha;
        let kernel = self.exchange_kernel()?;
        // held through the compute; its one update is a whole assignment
        // after success, so a guard poisoned by a re-raised rank panic is valid
        let mut memo = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, w)) = memo.as_ref().filter(|(key, _)| same_bits(key, phi)) {
            return Ok(w.clone());
        }
        let w = match self.layout {
            Some(layout) if layout.ranks > 1 => {
                // a rank panic re-raised under the lock poisons the mutex;
                // the team inside keeps the panic's own cause for `run`
                let mut slot = self.team.lock().unwrap_or_else(PoisonError::into_inner);
                let team = slot.get_or_insert_with(|| RankEngine::new(layout, Wire::F64));
                let grids = &self.grids;
                let dist = BandDistribution {
                    n_bands: phi.ncols(),
                    n_ranks: layout.ranks,
                };
                let sp = pt_trace::span("engine_run");
                let (blocks, wire) = team
                    .run(|comm| {
                        let local = dist.take_local(comm.rank(), phi);
                        distributed_fock_apply(comm, grids, dist, &local, &local, alpha, kernel)
                    })
                    .map_err(|e: EnginePoisoned| PtError::EngineDown { cause: e.cause })?;
                drop(sp);
                pt_trace::counter_add(pt_trace::Counter::EngineJobs, 1);
                pt_trace::counter_add(pt_trace::Counter::WireBytes, wire.total_bytes());
                let mut w = CMat::zeros(grids.ng(), dist.n_bands);
                for (r, block) in blocks.iter().enumerate() {
                    for (lj, &b) in dist.local_bands(r).iter().enumerate() {
                        w.col_mut(b).copy_from_slice(block.col(lj));
                    }
                }
                w
            }
            _ => self.self_application(phi, alpha, kernel),
        };
        *memo = Some((phi.clone(), w.clone()));
        Ok(w)
    }

    /// `V_X[Φ]Φ` on the installed pool: the Fock operator's self-application.
    fn self_application(&self, phi: &CMat, alpha: f64, kernel: &ScreenedKernel) -> CMat {
        let fock = FockOperator::new(&self.grids, phi, alpha, kernel.clone(), FockMode::Batched);
        let mut w = CMat::zeros(phi.nrows(), phi.ncols());
        fock.apply_block(&self.grids, phi, &mut w);
        w
    }

    /// Density of an orbital block under this system's occupations.
    pub fn density(&self, orbitals: &CMat) -> Vec<f64> {
        density_from_orbitals(&self.grids, orbitals, &self.occupations)
    }

    /// Total-energy breakdown for orbitals + their density, with the exact
    /// exchange block formed inline (the memo is neither read nor filled).
    pub fn energies(&self, orbitals: &CMat, rho: &[f64], a_field: [f64; 3]) -> Energies {
        let w = match (&self.hybrid, &self.kernel) {
            (Some(h), Some(k)) => Some(self.self_application(orbitals, h.alpha, k)),
            _ => None,
        };
        self.energies_with(orbitals, &self.potentials(rho), w.as_ref(), a_field)
    }

    /// Total-energy breakdown for orbitals, the [`KsSystem::potentials`] of
    /// their density and their exact exchange block `w = V_X[Ψ]Ψ` (`None`:
    /// no exchange term), with `E_x = ½ Σ_j f_j Re⟨ψ_j|w_j⟩` summed in band
    /// order.
    pub fn energies_with(
        &self,
        orbitals: &CMat,
        pots: &Potentials,
        w: Option<&CMat>,
        a_field: [f64; 3],
    ) -> Energies {
        let g = &self.grids;
        let kin_diag = g.kinetic_diag(a_field);
        let mut kinetic = 0.0;
        for (j, &f) in self.occupations.iter().enumerate() {
            let col = orbitals.col(j);
            kinetic += f * pt_num::reduce::sum_f64(
                col.iter().zip(&kin_diag).map(|(c, k)| k * c.norm_sqr()),
            );
        }
        let nonlocal = self
            .nonlocal
            .energy(orbitals.data(), g.ng(), &self.occupations);
        let fock = w.map_or(0.0, |w| {
            assert_eq!((w.nrows(), w.ncols()), (orbitals.nrows(), orbitals.ncols()));
            let e_x = |(j, f): (usize, &f64)| 0.5 * f * zdotc(orbitals.col(j), w.col(j)).re;
            pt_num::reduce::sum_f64(self.occupations.iter().enumerate().map(e_x))
        });
        Energies {
            kinetic,
            local_ps: pots.e_loc_ps,
            nonlocal,
            hartree: pots.e_hartree,
            xc: pots.e_xc,
            fock,
            ewald: self.e_ewald,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_lattice::silicon_cubic_supercell;

    fn si8(ecut: f64, xc: XcKind, hybrid: Option<HybridConfig>) -> KsSystem {
        let mut b = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(ecut)
            .xc(xc);
        if let Some(h) = hybrid {
            b = b.hybrid(h);
        }
        b.build().expect("valid test system")
    }

    #[test]
    fn system_builds_and_charges_balance() {
        let sys = si8(2.0, XcKind::Lda, None);
        assert_eq!(sys.n_bands(), 16);
        assert!((sys.occupations.iter().sum::<f64>() - 32.0).abs() < 1e-12);
        assert!(sys.e_ewald < 0.0, "bulk Si Ewald energy is negative");
    }

    #[test]
    fn builder_rejects_misuse() {
        let s = silicon_cubic_supercell(1, 1, 1);
        assert!(matches!(
            KsSystem::builder(s.clone()).ecut(-1.0).build(),
            Err(PtError::InvalidConfig(_))
        ));
        assert!(matches!(
            KsSystem::builder(s.clone()).ecut(f64::NAN).build(),
            Err(PtError::InvalidConfig(_))
        ));
        assert!(matches!(
            KsSystem::builder(s.clone())
                .hybrid(HybridConfig {
                    alpha: 1.5,
                    omega: 0.11
                })
                .build(),
            Err(PtError::InvalidConfig(_))
        ));
        assert!(matches!(
            KsSystem::builder(s.clone())
                .hybrid(HybridConfig {
                    alpha: 0.25,
                    omega: -0.1
                })
                .build(),
            Err(PtError::InvalidConfig(_))
        ));
        assert!(matches!(
            KsSystem::builder(s.clone())
                .occupations(vec![2.0, -1.0])
                .build(),
            Err(PtError::InvalidConfig(_))
        ));
        // more bands than plane waves: the orbital block would be singular
        let ng = KsSystem::builder(s.clone())
            .ecut(2.0)
            .build()
            .unwrap()
            .grids
            .ng();
        assert!(matches!(
            KsSystem::builder(s)
                .ecut(2.0)
                .occupations(vec![2.0; ng + 1])
                .build(),
            Err(PtError::InvalidConfig(_))
        ));
    }

    #[test]
    fn exchange_mode_is_validated_and_requires_hybrid() {
        let s = silicon_cubic_supercell(1, 1, 1);
        // ACE without a hybrid functional: nothing to compress
        assert!(matches!(
            KsSystem::builder(s.clone())
                .ecut(2.0)
                .exchange_mode(ExchangeMode::Ace {
                    refresh_interval: 1
                })
                .build(),
            Err(PtError::InvalidConfig(_))
        ));
        // a zero interval is rejected
        assert!(matches!(
            KsSystem::builder(s.clone())
                .ecut(2.0)
                .hybrid(HybridConfig::hse06())
                .exchange_mode(ExchangeMode::Ace {
                    refresh_interval: 0
                })
                .build(),
            Err(PtError::InvalidConfig(_))
        ));
        // a well-formed ACE config lands on the system
        let sys = KsSystem::builder(s)
            .ecut(2.0)
            .hybrid(HybridConfig::hse06())
            .exchange_mode(ExchangeMode::Ace {
                refresh_interval: 2,
            })
            .build()
            .unwrap();
        assert_eq!(sys.exchange_mode().refresh_interval(), Some(2));
        assert_eq!(ExchangeMode::default(), ExchangeMode::Full);
    }

    #[test]
    fn builder_rejects_odd_electron_default_occupations() {
        let h1 = pt_lattice::Structure {
            cell: pt_lattice::Cell::cubic(10.0),
            atoms: vec![pt_lattice::Atom {
                species: pt_lattice::Species::H,
                frac: [0.0, 0.0, 0.0],
            }],
        };
        assert!(matches!(
            KsSystem::builder(h1).ecut(2.0).xc(XcKind::Lda).build(),
            Err(PtError::InvalidConfig(_))
        ));
    }

    #[test]
    fn builder_with_custom_occupations_accepts_odd_electron_structures() {
        // a single H atom (N_elec = 1) panics in n_occupied_bands; with
        // explicit occupations the builder must not touch that path
        let h1 = pt_lattice::Structure {
            cell: pt_lattice::Cell::cubic(10.0),
            atoms: vec![pt_lattice::Atom {
                species: pt_lattice::Species::H,
                frac: [0.0, 0.0, 0.0],
            }],
        };
        let sys = KsSystem::builder(h1)
            .ecut(2.0)
            .xc(XcKind::Lda)
            .occupations(vec![1.0])
            .build()
            .expect("custom occupations bypass the closed-shell assert");
        assert_eq!(sys.n_bands(), 1);
        assert!((sys.occupations[0] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn a_layouts_cores_are_the_pool_the_system_computes_on() {
        let width = |b: KsSystemBuilder| {
            let sys = b.ecut(2.0).xc(XcKind::Lda).build().unwrap();
            // whatever surrounds the caller must not leak in
            ThreadPool::new(1).install(|| sys.install(pt_par::current_num_threads))
        };
        let si8 = || KsSystem::builder(silicon_cubic_supercell(1, 1, 1));
        assert_eq!(width(si8().layout(RankLayout::new(2, 2))), 4);
        assert_eq!(width(si8().layout(RankLayout::new(1, 3))), 3);
        // no layout: inherit
        assert_eq!(width(si8()), 1);
        // a zero extent (a literal; `RankLayout::new` clamps) is refused
        for bad in [
            RankLayout {
                ranks: 0,
                threads_per_rank: 2,
            },
            RankLayout {
                ranks: 2,
                threads_per_rank: 0,
            },
        ] {
            assert!(matches!(
                si8().ecut(2.0).layout(bad).build(),
                Err(PtError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn builder_accepts_custom_occupations() {
        let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(XcKind::Lda)
            .occupations(vec![2.0; 4])
            .build()
            .unwrap();
        assert_eq!(sys.n_bands(), 4);
    }

    #[test]
    fn hamiltonian_misuse_returns_typed_errors() {
        let sys = si8(2.0, XcKind::Pbe, Some(HybridConfig::hse06()));
        let rho = vec![32.0 / sys.grids.volume; sys.grids.n_dense()];
        // hybrid without Φ
        assert_eq!(
            sys.hamiltonian(&rho, None, [0.0; 3]).err(),
            Some(PtError::MissingExchangeOrbitals)
        );
        // wrong density extent, and a potential of the wrong extent
        assert!(matches!(
            sys.hamiltonian(&rho[..10], None, [0.0; 3]),
            Err(PtError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            sys.local_hamiltonian_with(rho[..10].to_vec(), [0.0; 3]),
            Err(PtError::ShapeMismatch { .. })
        ));
        // wrong orbital extent
        let bad_phi = CMat::zeros(3, 2);
        assert!(matches!(
            sys.hamiltonian(&rho, Some(&bad_phi), [0.0; 3]),
            Err(PtError::ShapeMismatch { .. })
        ));
        // well-formed call succeeds
        let phi = CMat::from_fn(sys.grids.ng(), sys.n_bands(), |i, j| {
            if i == j {
                c64::ONE
            } else {
                c64::ZERO
            }
        });
        assert!(sys.hamiltonian(&rho, Some(&phi), [0.0; 3]).is_ok());
    }

    #[test]
    fn potentials_from_uniform_density() {
        let sys = si8(2.0, XcKind::Lda, None);
        let n = sys.grids.n_dense();
        let ne = 32.0;
        let rho = vec![ne / sys.grids.volume; n];
        let p = sys.potentials(&rho);
        // uniform density: Hartree energy = 0 in jellium convention
        assert!(p.e_hartree.abs() < 1e-8, "{}", p.e_hartree);
        // XC energy should equal Ω ρ ε_xc(ρ)
        let (eps, _v) = pt_xc::lda_exc_vxc(ne / sys.grids.volume);
        let want = ne * eps;
        assert!(
            (p.e_xc - want).abs() < 1e-8 * want.abs(),
            "{} vs {want}",
            p.e_xc
        );
    }

    #[test]
    fn potentials_are_bit_identical_on_pools_of_1_to_4_threads() {
        // uneven deals: PBE's batch of three forwards on 2 threads, the 14
        // pointwise chunks of the 15³ grid on 3
        for xc in [XcKind::Pbe, XcKind::Lda] {
            let sys = si8(2.0, xc, None);
            let mut rng = pt_num::rng::XorShift64::new(11);
            let rho: Vec<f64> = (0..sys.grids.n_dense())
                .map(|_| 32.0 / sys.grids.volume * (1.0 + rng.next_centered()))
                .collect();
            let on = |threads| ThreadPool::new(threads).install(|| sys.potentials(&rho));
            let bits = |p: &Potentials| {
                [p.e_hartree, p.e_xc, p.int_vxc_rho, p.e_loc_ps]
                    .iter()
                    .chain(&p.v_total)
                    .map(|v| v.to_bits())
                    .collect::<Vec<u64>>()
            };
            let one = on(1);
            for threads in 2..=4 {
                assert_eq!(bits(&one), bits(&on(threads)), "{xc:?}, {threads} threads");
            }
            assert!(one.v_total.iter().all(|v| v.is_finite()));
        }
    }

    /// The 4-band HSE06 Si-8 fixture of the exchange-seam tests.
    fn hybrid_4band(layout: Option<RankLayout>) -> KsSystem {
        let mut b = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(XcKind::Pbe)
            .hybrid(HybridConfig::hse06())
            .occupations(vec![2.0; 4]);
        if let Some(l) = layout {
            b = b.layout(l);
        }
        b.build().unwrap()
    }

    fn team_layout(sys: &KsSystem) -> Option<RankLayout> {
        let slot = sys.team.lock().unwrap_or_else(PoisonError::into_inner);
        slot.as_ref().map(RankEngine::layout)
    }

    fn assert_same_bits(want: &CMat, got: &CMat, what: &str) {
        assert_eq!((want.nrows(), want.ncols()), (got.nrows(), got.ncols()));
        for (x, y) in want.data().iter().zip(got.data()) {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what}: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn exchange_block_inline_and_on_the_team_agree_to_the_bit_on_every_layout() {
        // the reference is pt-ham's own Fock operator over Φ applied to Φ,
        // on one thread; every layout's seam must carry its bits, twice on
        // one system (the second pass reuses the parked team), and only a
        // ranks > 1 layout ever holds a team
        let plain = hybrid_4band(None);
        let phi = CMat::rand_normalized(plain.grids.ng(), plain.n_bands(), 17);
        let want = ThreadPool::new(1).install(|| {
            let kernel = plain.exchange_kernel().unwrap().clone();
            let fock = FockOperator::new(&plain.grids, &phi, 0.25, kernel, FockMode::Batched);
            let mut w = CMat::zeros(phi.nrows(), phi.ncols());
            fock.apply_block(&plain.grids, &phi, &mut w);
            w
        });
        assert_eq!(team_layout(&plain), None, "no team at build");
        assert_same_bits(&want, &plain.exchange_block(&phi).unwrap(), "no layout");
        assert_eq!(team_layout(&plain), None, "no layout runs inline");
        for ranks in [1usize, 2, 3] {
            for threads in [1usize, 4] {
                let layout = RankLayout::new(ranks, threads);
                let sys = hybrid_4band(Some(layout));
                assert_eq!(team_layout(&sys), None, "{layout:?}: no team at build");
                for pass in 0..2 {
                    let got = sys.install(|| sys.exchange_block(&phi)).unwrap();
                    assert_same_bits(&want, &got, &format!("{ranks}x{threads} pass {pass}"));
                }
                let team = (ranks > 1).then_some(layout);
                assert_eq!(team_layout(&sys), team, "{layout:?}");
            }
        }
    }

    #[test]
    fn a_system_without_its_exchange_fails_typed_and_spawns_no_team() {
        // the hybrid and its kernel are checked before the team is touched
        let layout = RankLayout::new(2, 1);
        let phi = |sys: &KsSystem| CMat::rand_normalized(sys.grids.ng(), sys.n_bands(), 3);
        let mut stripped = hybrid_4band(Some(layout));
        stripped.hybrid = None;
        assert_eq!(
            stripped.exchange_block(&phi(&stripped)).err(),
            Some(PtError::MissingExchangeOrbitals)
        );
        let mut kernelless = hybrid_4band(Some(layout));
        kernelless.kernel = None;
        assert!(matches!(
            kernelless.exchange_block(&phi(&kernelless)),
            Err(PtError::InvalidConfig(_))
        ));
        let lda = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(XcKind::Lda)
            .layout(layout)
            .build()
            .unwrap();
        assert_eq!(
            lda.exchange_block(&phi(&lda)).err(),
            Some(PtError::MissingExchangeOrbitals)
        );
        for sys in [&stripped, &kernelless, &lda] {
            assert_eq!(team_layout(sys), None);
        }
    }

    #[test]
    fn a_rank_dying_mid_tile_is_the_reported_cause_then_engine_down_never_a_hang() {
        // the victim sends half of the partials its tiles owe other ranks,
        // then dies: its peers may be waiting for the rest and must unwind
        // instead of hanging; the call re-raises the victim's payload (which
        // poisons the team's lock) and the next call is the typed EngineDown
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for np in 2..=4 {
                let sys = hybrid_4band(Some(RankLayout::new(np, 1)));
                let phi = CMat::rand_normalized(sys.grids.ng(), sys.n_bands(), 17);
                let dist = BandDistribution {
                    n_bands: sys.n_bands(),
                    n_ranks: np,
                };
                for victim in 0..np {
                    let owed = dist
                        .exchange_tiles(victim)
                        .iter()
                        .flat_map(|t| t.partials())
                        .filter(|&(_, band)| dist.owner(band) != victim)
                        .count();
                    if owed < 2 {
                        continue;
                    }
                    let cause = format!("rank {victim} of {np} dies mid-tile");
                    let mut team = RankEngine::new(RankLayout::new(np, 1), Wire::F64);
                    team.run(|comm| {
                        if comm.rank() == victim {
                            comm.fail_after_sends(owed / 2, &cause);
                        }
                    })
                    .unwrap();
                    // each victim starts from a healthy lock
                    sys.team.clear_poison();
                    *sys.team.lock().unwrap() = Some(team);
                    let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        sys.exchange_block(&phi)
                    }))
                    .err()
                    .and_then(|p| p.downcast_ref::<String>().cloned());
                    let lock_poisoned = sys.team.is_poisoned();
                    let next = match sys.exchange_block(&phi) {
                        Err(PtError::EngineDown { cause }) => Some(cause),
                        _ => None,
                    };
                    tx.send((np, cause, raised, lock_poisoned, next)).unwrap();
                }
            }
        });
        let mut victims = [0usize; 5];
        loop {
            match rx.recv_timeout(std::time::Duration::from_secs(120)) {
                Ok((np, cause, raised, lock_poisoned, next)) => {
                    assert_eq!(raised.as_deref(), Some(cause.as_str()), "re-raised payload");
                    assert!(lock_poisoned, "the re-raise unwinds through the held lock");
                    assert_eq!(next.as_deref(), Some(cause.as_str()), "EngineDown cause");
                    victims[np] += 1;
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                Err(e) => panic!("a rank dying mid-tile hung the job: {e}"),
            }
        }
        // every rank count had a victim with partials left to send
        assert!(victims[2..].iter().all(|&v| v >= 2), "{victims:?}");
    }

    #[test]
    fn a_poisoned_team_is_engine_down_with_its_cause() {
        let sys = hybrid_4band(Some(RankLayout::new(2, 1)));
        *sys.team.lock().unwrap() = Some(poisoned_team());
        let phi = CMat::rand_normalized(sys.grids.ng(), sys.n_bands(), 41);
        match sys.exchange_block(&phi) {
            Err(PtError::EngineDown { cause }) => assert!(
                cause.contains("injected rank failure"),
                "cause must carry the original payload, got: {cause}"
            ),
            other => panic!("expected EngineDown, got {other:?}"),
        }
    }

    /// The bits of the Φ the memo is keyed by, if it holds an entry.
    fn memo_key(sys: &KsSystem) -> Option<CMat> {
        let memo = sys.memo.lock().unwrap_or_else(PoisonError::into_inner);
        memo.as_ref().map(|(phi, _)| phi.clone())
    }

    /// A 2-rank team whose rank 1 panicked, as a dead job leaves it.
    fn poisoned_team() -> RankEngine {
        let mut team = RankEngine::new(RankLayout::new(2, 1), Wire::F64);
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            team.run(|comm| {
                if comm.rank() == 1 {
                    panic!("injected rank failure in the system's team");
                }
                comm.barrier();
            })
        }));
        assert!(boom.is_err(), "the injected rank panic must surface");
        team
    }

    #[test]
    fn the_last_exchange_block_is_handed_back_for_the_same_bits_only() {
        // one entry, keyed by Φ's bits: a repeat hands back the first call's
        // bits and never touches the team (here: a dead one), a Φ one ulp
        // away computes, and a call that fails stores nothing
        let sys = hybrid_4band(Some(RankLayout::new(2, 1)));
        let phi = CMat::rand_normalized(sys.grids.ng(), sys.n_bands(), 23);
        let mut near = phi.clone();
        let z = &mut near.col_mut(2)[5];
        z.im = f64::from_bits(z.im.to_bits() + 1);
        assert!(memo_key(&sys).is_none(), "nothing remembered at build");
        let first = sys.exchange_block(&phi).unwrap();
        assert_same_bits(&phi, &memo_key(&sys).unwrap(), "memo key");
        *sys.team.lock().unwrap() = Some(poisoned_team());
        assert_same_bits(&first, &sys.exchange_block(&phi).unwrap(), "hit");
        assert!(matches!(
            sys.exchange_block(&near),
            Err(PtError::EngineDown { .. })
        ));
        assert_same_bits(
            &phi,
            &memo_key(&sys).unwrap(),
            "a failed call keeps the entry",
        );
        // a healthy team again: the near block is computed and replaces Φ's
        *sys.team.lock().unwrap() = None;
        let moved = sys.exchange_block(&near).unwrap();
        assert_same_bits(&near, &memo_key(&sys).unwrap(), "one entry");
        assert!(moved.max_diff(&first) > 0.0, "one ulp is another block");
        assert_same_bits(&first, &sys.exchange_block(&phi).unwrap(), "recomputed Φ");

        // a first call on a poisoned team leaves the memo empty
        let fresh = hybrid_4band(Some(RankLayout::new(2, 1)));
        *fresh.team.lock().unwrap() = Some(poisoned_team());
        assert!(matches!(
            fresh.exchange_block(&phi),
            Err(PtError::EngineDown { .. })
        ));
        assert!(memo_key(&fresh).is_none(), "a failed call stores nothing");
        // energies computes inline and neither reads nor fills the memo
        let rho = fresh.density(&phi);
        let e = fresh.energies(&phi, &rho, [0.0; 3]);
        assert!(e.fock < 0.0 && memo_key(&fresh).is_none());
    }

    #[test]
    fn hybrid_system_builds_kernel() {
        let sys = si8(2.0, XcKind::Pbe, Some(HybridConfig::hse06()));
        assert!(sys.kernel.is_some());
        let k = sys.kernel.as_ref().unwrap();
        assert!((k.values[0] - std::f64::consts::PI / (0.11 * 0.11)).abs() < 1e-9);
    }
}
