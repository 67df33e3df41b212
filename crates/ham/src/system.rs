//! `KsSystem` — the static problem definition plus potential/energy
//! assembly from a density.

use crate::density::density_from_orbitals;
use crate::error::PtError;
use crate::fock::{FockMode, FockOperator, ScreenedKernel};
use crate::grids::PwGrids;
use crate::hamiltonian::Hamiltonian;
use crate::hartree::coulomb_kernel;
use pt_lattice::{ewald_energy, Structure};
use pt_linalg::CMat;
use pt_num::c64;
use pt_par::{RankLayout, ThreadPool};
use pt_pseudo::{LocalPotential, NonlocalPs};
use pt_xc::{XcGridEvaluator, XcKind};
use std::sync::Arc;

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
/// functional choice.
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
    /// rank runs PT-CN inline on that pool; more run every `HΨ` and
    /// residual on a rank team of `layout.ranks` threads, each with its
    /// own pinned `threads_per_rank`-wide pool. Unset, the system inherits
    /// the surrounding pool (`PT_NUM_THREADS`) and runs inline. Zero
    /// extents are rejected in [`KsSystemBuilder::build`].
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

    /// The execution layout set through [`KsSystemBuilder::layout`]
    /// (`None`: the surrounding pool; PT-CN runs inline). The PT-CN
    /// propagator reads its rank count at step time.
    pub fn layout(&self) -> Option<RankLayout> {
        self.layout
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
    /// attaches the in-process Fock operator.
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
        let pots = self.potentials(rho);
        Ok(Hamiltonian {
            grids: Arc::clone(&self.grids),
            vloc_r: pots.v_total,
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

    /// Density of an orbital block under this system's occupations.
    pub fn density(&self, orbitals: &CMat) -> Vec<f64> {
        density_from_orbitals(&self.grids, orbitals, &self.occupations)
    }

    /// Total-energy breakdown for orbitals + their density.
    pub fn energies(&self, orbitals: &CMat, rho: &[f64], a_field: [f64; 3]) -> Energies {
        let g = &self.grids;
        let pots = self.potentials(rho);
        // kinetic
        let kin_diag: Vec<f64> = g
            .sphere
            .g_cart
            .iter()
            .map(|gc| {
                0.5 * ((gc[0] + a_field[0]).powi(2)
                    + (gc[1] + a_field[1]).powi(2)
                    + (gc[2] + a_field[2]).powi(2))
            })
            .collect();
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
        let fock = match (&self.hybrid, &self.kernel) {
            (Some(h), Some(k)) => {
                let op =
                    FockOperator::new(&self.grids, orbitals, h.alpha, k.clone(), FockMode::Batched);
                op.energy(&self.grids, orbitals, &self.occupations)
            }
            _ => 0.0,
        };
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
        // wrong density extent
        assert!(matches!(
            sys.hamiltonian(&rho[..10], None, [0.0; 3]),
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
    fn potentials_are_bit_identical_on_1_and_4_threads() {
        for xc in [XcKind::Pbe, XcKind::Lda] {
            let sys = si8(2.0, xc, None);
            let mut rng = pt_num::rng::XorShift64::new(11);
            let rho: Vec<f64> = (0..sys.grids.n_dense())
                .map(|_| 32.0 / sys.grids.volume * (1.0 + rng.next_centered()))
                .collect();
            let on = |threads| ThreadPool::new(threads).install(|| sys.potentials(&rho));
            let (a, b) = (on(1), on(4));
            let bits = |p: &Potentials| {
                [p.e_hartree, p.e_xc, p.int_vxc_rho, p.e_loc_ps]
                    .iter()
                    .chain(&p.v_total)
                    .map(|v| v.to_bits())
                    .collect::<Vec<u64>>()
            };
            assert_eq!(bits(&a), bits(&b), "{xc:?}");
            assert!(a.v_total.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn hybrid_system_builds_kernel() {
        let sys = si8(2.0, XcKind::Pbe, Some(HybridConfig::hse06()));
        assert!(sys.kernel.is_some());
        let k = sys.kernel.as_ref().unwrap();
        assert!((k.values[0] - std::f64::consts::PI / (0.11 * 0.11)).abs() < 1e-9);
    }
}
