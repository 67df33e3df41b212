//! The anchored component cost model.

use crate::machine;
use crate::reference::*;

/// A PT-CN + hybrid-functional problem instance.
#[derive(Clone, Copy, Debug)]
pub struct Problem {
    /// Number of silicon atoms.
    pub n_atoms: usize,
    /// Occupied wavefunctions N_e (2 per Si atom).
    pub n_bands: usize,
    /// Plane waves per wavefunction N_G.
    pub ng: usize,
    /// Average SCF iterations per PT-CN step.
    pub n_scf: usize,
}

impl Problem {
    /// A silicon system with the paper's §4 parameters (E_cut = 10 Ha:
    /// N_G and N_e scale linearly with atom count from the 1536-atom
    /// reference with N_G = 648 000, N_e = 3072).
    pub fn silicon(n_atoms: usize) -> Self {
        Problem {
            n_atoms,
            n_bands: 2 * n_atoms,
            ng: (648_000 * n_atoms) / 1536,
            n_scf: PAPER_SCF_PER_STEP,
        }
    }

    /// The paper's headline system.
    pub fn paper_1536() -> Self {
        Problem::silicon(1536)
    }
}

/// How a row's time scales with the problem, relative to the 1536-atom
/// reference: `Size(a, b, log)` is `t ∝ N_e^a · N_G^b`, times `ln N_G`
/// when `log` is set (FFT work).
#[derive(Clone, Copy, Debug)]
struct Size(f64, f64, bool);

/// N_e²/P pair solves of N_G log N_G each (the exchange computation).
const PAIR_SOLVES: Size = Size(2.0, 1.0, true);
/// One N_G log N_G transform per band.
const BAND_FFTS: Size = Size(1.0, 1.0, true);
/// Every band's N_G coefficients once: broadcast receive volume (4 B each
/// in f32), transposes, staging copies, mixing.
const BAND_VOLUME: Size = Size(1.0, 1.0, false);
/// One N_e × N_e matrix (overlaps and their reduction).
const BAND_MATRIX: Size = Size(2.0, 0.0, false);
/// The density grid, ∝ N_G.
const DENSITY_GRID: Size = Size(0.0, 1.0, false);

/// The size scaling of every anchored row, by the name it has in
/// [`PAPER_COMPONENT_ANCHORS`] or [`PAPER_TABLE2_ANCHORS`].
const SIZE_EXPONENTS: [(&str, Size); 17] = [
    ("fock_mpi", BAND_VOLUME),
    ("fock_comp", PAIR_SOLVES),
    ("local_semilocal", BAND_FFTS),
    ("residual_alltoallv", BAND_VOLUME),
    ("residual_allreduce", BAND_MATRIX),
    ("residual_comp", BAND_MATRIX),
    ("anderson_memcpy", BAND_VOLUME),
    ("anderson_comp", BAND_VOLUME),
    ("density_comp", BAND_FFTS),
    ("density_allreduce", DENSITY_GRID),
    ("others", DENSITY_GRID),
    ("memcpy", BAND_VOLUME),
    ("alltoallv", BAND_VOLUME),
    ("allreduce", BAND_MATRIX),
    ("bcast", BAND_VOLUME),
    ("allgatherv", DENSITY_GRID),
    ("computation", PAIR_SOLVES),
];

/// One modelled row: the power law in P through its two published
/// anchors, times its physical size scaling.
#[derive(Clone, Copy, Debug)]
struct Component {
    t36: f64,
    gamma: f64,
    size: Size,
}

impl Component {
    fn anchored(name: &str, t36: f64, t3072: f64) -> Self {
        let (_, size) = SIZE_EXPONENTS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no size exponents for {name}"));
        let gamma = (t3072 / t36).ln() / (3072.0f64 / 36.0).ln();
        let size = *size;
        Component { t36, gamma, size }
    }

    /// Time (s) at `p` GPUs for problem `pr`.
    fn time(&self, p: usize, pr: &Problem) -> f64 {
        let Size(a_ne, b_ng, log_ng) = self.size;
        let reference = Problem::paper_1536();
        let ne_ratio = pr.n_bands as f64 / reference.n_bands as f64;
        let ng_ratio = pr.ng as f64 / reference.ng as f64;
        let log_ratio = if log_ng {
            (pr.ng as f64).ln() / (reference.ng as f64).ln()
        } else {
            1.0
        };
        // size scaling is applied at fixed GPUs-per-work ratio; the
        // P-dependence uses the effective P normalized by problem size so
        // that weak scaling (P ∝ N) stays anchored
        let size = ne_ratio.powf(a_ne) * ng_ratio.powf(b_ng) * log_ratio;
        self.t36 * size * (p as f64 / 36.0).powf(self.gamma)
    }
}

/// The assembled cost model: Table 1's per-SCF components and Table 2's
/// per-step operation classes, each anchored to the paper's values at
/// P = 36 and P = 3072.
pub struct CostModel {
    rows: Vec<(&'static str, Component)>,
}

impl CostModel {
    /// Build the model anchored to the paper's Table 1/Table 2.
    pub fn new() -> Self {
        let anchors = PAPER_COMPONENT_ANCHORS.iter().chain(&PAPER_TABLE2_ANCHORS);
        let rows = anchors.map(|&(n, t36, t3072)| (n, Component::anchored(n, t36, t3072)));
        CostModel {
            rows: rows.collect(),
        }
    }

    /// Time of one anchored row: a Table 1 component's per-SCF seconds or
    /// a Table 2 class's per-step seconds.
    pub fn time(&self, row: &str, p: usize, pr: &Problem) -> f64 {
        let (_, c) = self
            .rows
            .iter()
            .find(|(n, _)| *n == row)
            .unwrap_or_else(|| panic!("unknown cost-model row {row}"));
        c.time(p, pr)
    }

    /// Per-SCF HΨ time (Fock mpi + comp + local/semilocal).
    pub fn h_psi(&self, p: usize, pr: &Problem) -> f64 {
        self.time("fock_mpi", p, pr)
            + self.time("fock_comp", p, pr)
            + self.time("local_semilocal", p, pr)
    }

    /// Per-SCF residual-related time (Alg. 3).
    pub fn residual(&self, p: usize, pr: &Problem) -> f64 {
        self.time("residual_alltoallv", p, pr)
            + self.time("residual_allreduce", p, pr)
            + self.time("residual_comp", p, pr)
    }

    /// Per-SCF Anderson mixing time.
    pub fn anderson(&self, p: usize, pr: &Problem) -> f64 {
        self.time("anderson_memcpy", p, pr) + self.time("anderson_comp", p, pr)
    }

    /// Per-SCF density evaluation time.
    pub fn density(&self, p: usize, pr: &Problem) -> f64 {
        self.time("density_comp", p, pr) + self.time("density_allreduce", p, pr)
    }

    /// Per-SCF "others" (§3.4 CPU-side) time.
    pub fn others(&self, p: usize, pr: &Problem) -> f64 {
        self.time("others", p, pr)
    }

    /// Full per-SCF time (Table 1 "per SCF time").
    pub fn per_scf(&self, p: usize, pr: &Problem) -> f64 {
        self.h_psi(p, pr)
            + self.residual(p, pr)
            + self.anderson(p, pr)
            + self.density(p, pr)
            + self.others(p, pr)
    }

    /// Full PT-CN step time (Table 1 "Total time"): n_scf SCF iterations
    /// plus the two extra exchange applications (initial residual R_n and
    /// the energy evaluation, §7) and the once-per-step orthogonalization.
    pub fn step_total(&self, p: usize, pr: &Problem) -> f64 {
        let ortho = 0.017 + 0.05; // Cholesky (§7) + rotation/transposes
        self.per_scf(p, pr) * pr.n_scf as f64 + 2.0 * self.h_psi(p, pr) + ortho
    }

    /// RK4 50 as wall time (Fig. 6): 100 explicit steps of 0.5 as, each
    /// with 4 HΨ stages; the data-dependent stages cannot overlap the
    /// wavefunction broadcast, so each stage pays the *full* bcast
    /// (per-rank volume / contended NIC bandwidth) plus the density and
    /// CPU-side potential updates.
    pub fn rk4_50as(&self, p: usize, pr: &Problem) -> f64 {
        let wire_bytes = 8.0; // f32 complex
        let full_bcast = pr.n_bands as f64 * pr.ng as f64 * wire_bytes / machine::bcast_rank_bw(p);
        let comp = self.time("fock_comp", p, pr) + self.time("local_semilocal", p, pr);
        let stage = comp + full_bcast + self.density(p, pr) + self.others(p, pr);
        100.0 * 4.0 * stage
    }

    /// CPU-baseline step time at `cores` cores (§6: 8874 s at 3072; the
    /// band-parallel CPU code scales to at most N_e cores).
    pub fn cpu_step(&self, cores: usize, pr: &Problem) -> f64 {
        let cores = cores.min(pr.n_bands);
        let ref_pr = Problem::paper_1536();
        let size = (pr.n_bands as f64 / ref_pr.n_bands as f64).powi(2)
            * (pr.ng as f64 / ref_pr.ng as f64)
            * ((pr.ng as f64).ln() / (ref_pr.ng as f64).ln());
        PAPER_CPU_STEP_SECONDS * size * 3072.0 / cores as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_are_exact_at_endpoints() {
        let m = CostModel::new();
        let pr = Problem::paper_1536();
        let anchors = PAPER_COMPONENT_ANCHORS.iter().chain(&PAPER_TABLE2_ANCHORS);
        for &(name, t36, t3072) in anchors {
            for (p, want) in [(36, t36), (3072, t3072)] {
                let got = m.time(name, p, &pr);
                assert!(
                    (got - want).abs() < 1e-9 * want,
                    "{name} @{p}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn per_scf_matches_paper_within_band() {
        let m = CostModel::new();
        let pr = Problem::paper_1536();
        for (i, &p) in PAPER_GPU_COUNTS.iter().enumerate() {
            let t = m.per_scf(p, &pr);
            let want = PAPER_TABLE1_PER_SCF_TOTAL[i];
            let rel = (t - want).abs() / want;
            assert!(
                rel < 0.25,
                "per-SCF @{p}: model {t:.2} vs paper {want} ({rel:.2})"
            );
        }
    }

    #[test]
    fn step_total_matches_paper_within_band() {
        let m = CostModel::new();
        let pr = Problem::paper_1536();
        for (i, &p) in PAPER_GPU_COUNTS.iter().enumerate() {
            let t = m.step_total(p, &pr);
            let want = PAPER_TABLE1_TOTAL[i];
            let rel = (t - want).abs() / want;
            assert!(
                rel < 0.25,
                "total @{p}: model {t:.1} vs paper {want} ({rel:.2})"
            );
        }
    }

    #[test]
    fn speedup_shape_peaks_near_768() {
        // who wins, by what factor, where scaling stalls (§6)
        let m = CostModel::new();
        let pr = Problem::paper_1536();
        let cpu = m.cpu_step(3072, &pr);
        assert!((cpu - 8874.0).abs() < 1.0);
        let sp: Vec<f64> = PAPER_GPU_COUNTS
            .iter()
            .map(|&p| cpu / m.step_total(p, &pr))
            .collect();
        // grows up to 768, then flattens/declines — the MPI_Bcast wall
        assert!(sp[0] > 3.0 && sp[0] < 5.0, "36 GPUs: {:.1}", sp[0]);
        let peak = sp.iter().cloned().fold(0.0, f64::max);
        let idx_peak = sp.iter().position(|&v| v == peak).unwrap();
        assert!(
            (4..=6).contains(&idx_peak),
            "peak at index {idx_peak} ({:?})",
            sp
        );
        assert!(peak > 25.0 && peak < 45.0, "peak speedup {peak:.1}");
        assert!(sp[7] < peak, "3072 GPUs must be past the scaling stall");
    }

    #[test]
    fn ptcn_vs_rk4_ratio_20_to_30() {
        let m = CostModel::new();
        let pr = Problem::paper_1536();
        let r36 = m.rk4_50as(36, &pr) / m.step_total(36, &pr);
        let r768 = m.rk4_50as(768, &pr) / m.step_total(768, &pr);
        assert!(r36 > 10.0 && r36 < 30.0, "ratio @36 = {r36:.1}");
        assert!(r768 > 15.0 && r768 < 40.0, "ratio @768 = {r768:.1}");
        assert!(r768 > r36, "speedup must grow with GPU count (Fig. 6)");
    }

    #[test]
    fn weak_scaling_beats_the_quadratic_ideal() {
        // Fig. 8: the ideal is O(N²); the paper's own measurements beat it
        // (192 atoms @96 GPUs: 16 s; 1536 @768: 260.9 s → exponent ≈ 1.34,
        // "for small systems … scales even better than the ideal scaling").
        let m = CostModel::new();
        let t = |n: usize| m.step_total(n / 2, &Problem::silicon(n));
        let slope = (t(1536) / t(96)).ln() / (1536.0f64 / 96.0).ln();
        assert!(
            slope > 1.1 && slope < 2.1,
            "weak-scaling exponent {slope:.2} (paper ≈ 1.3, ideal 2.0)"
        );
        // absolute check against the paper's quoted 192-atom point (16 s)
        let t192 = t(192);
        assert!(
            t192 > 5.0 && t192 < 35.0,
            "192 atoms: {t192:.1} s (paper: 16 s)"
        );
        // and the 1536-atom anchor is exact by construction
        assert!((t(1536) - m.step_total(768, &Problem::paper_1536())).abs() < 1e-9);
    }

    #[test]
    fn fock_dominates_h_psi() {
        // §2: the exchange application is ~95 % of HΨ on CPUs and still
        // dominates on GPUs (74-90 % of the per-SCF total, Table 1)
        let m = CostModel::new();
        let pr = Problem::paper_1536();
        for &p in &PAPER_GPU_COUNTS {
            let frac = m.h_psi(p, &pr) / m.per_scf(p, &pr);
            assert!(frac > 0.6 && frac < 0.97, "HΨ fraction @{p}: {frac:.2}");
        }
    }

    #[test]
    fn table2_bcast_row_tracks_paper() {
        let m = CostModel::new();
        let pr = Problem::paper_1536();
        for (i, &p) in PAPER_GPU_COUNTS.iter().enumerate() {
            let t = m.time("bcast", p, &pr);
            let want = PAPER_TABLE2_BCAST[i];
            // endpoint-anchored power law vs the paper's (fluctuating, §7)
            // mid-range measurements: demand the shape within ±45 %
            assert!(
                (t - want).abs() / want < 0.45,
                "bcast @{p}: {t:.1} vs {want}"
            );
        }
    }
}
