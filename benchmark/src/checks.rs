//! Correctness: the operation ledger (`attempted` / `failed`), the
//! per-step invariants and the comparison against the committed
//! reference trajectories.

use crate::catalog::{Workload, ACE8, LDA};
use crate::run::Columns;
use pwdft_rt::io::Json;

/// The seed the committed reference trajectories were generated at.
pub const REFERENCE_SEED: u64 = 1;

const TOLERANCES: &str = include_str!("../reference/tolerances.json");
const REF_SI8_HSE_FULL: &str = include_str!("../reference/si8_hse_full.json");
const REF_SI16_LDA: &str = include_str!("../reference/si16_lda.json");

/// Channels stored in a reference trajectory.
pub const REFERENCE_CHANNELS: [&str; 5] =
    ["energy", "current_z", "dipole_x", "dipole_y", "dipole_z"];

/// Every operation the run attempted and the ones that failed. An
/// operation is a step (failed if it did not converge), a job (failed
/// unless it ran to completion) or a named correctness check.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

fn tolerance(key: &str) -> f64 {
    Json::parse(TOLERANCES)
        .ok()
        .and_then(|t| t.get(key).and_then(Json::as_f64))
        .unwrap_or_else(|| panic!("reference/tolerances.json lacks '{key}'"))
}

/// Which committed trajectory a workload is held to: one per distinct
/// physics, so the served 2-rank job must reproduce the single-rank one.
pub fn reference_name(w: &Workload) -> &'static str {
    if w.name == LDA {
        "si16_lda"
    } else {
        "si8_hse_full"
    }
}

fn reference_columns(w: &Workload) -> Columns {
    let text = if w.name == LDA {
        REF_SI16_LDA
    } else {
        REF_SI8_HSE_FULL
    };
    let doc = Json::parse(text).expect("committed reference parses");
    let mut cols = Columns::new();
    for name in REFERENCE_CHANNELS {
        let col = doc
            .get("columns")
            .and_then(|c| c.get(name))
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default();
        cols.insert(name.to_string(), col);
    }
    cols
}

/// Serialize a trajectory as a reference file (`--write-reference`).
pub fn reference_document(name: &str, steps: usize, columns: &Columns) -> String {
    let cols = REFERENCE_CHANNELS
        .iter()
        .map(|c| {
            let values = columns[*c].iter().map(|&v| Json::Num(v)).collect();
            format!("    \"{c}\": {}", Json::Arr(values).dump())
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"physics\": \"{name}\",\n  \"seed\": {REFERENCE_SEED},\n  \"dt_as\": 25,\n  \
         \"steps\": {steps},\n  \"columns\": {{\n{cols}\n  }}\n}}\n"
    )
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| ((x - y) / y).abs())
        .fold(0.0, f64::max)
}

/// Record one operation per step, the per-step invariants, and — at the
/// reference seed — the comparison with the committed trajectory.
pub fn check_run(ops: &mut Ops, w: &Workload, seed: u64, steps: usize, cols: &Columns) {
    let column = |name: &str| cols.get(name).map(Vec::as_slice).unwrap_or(&[]);
    let whole = crate::run::CHECKED_CHANNELS
        .iter()
        .all(|c| column(c).len() == steps);
    ops.record(whole, || {
        format!("result table lacks a checked channel or has the wrong length (want {steps} rows)")
    });
    if !whole {
        // every step is unaccounted for
        for i in 0..steps {
            ops.record(false, || format!("step {i}: no result row"));
        }
        return;
    }

    for (i, &c) in column("converged").iter().enumerate() {
        ops.record(c == 1.0, || {
            format!("step {i}: fixed point did not converge")
        });
    }
    let ne_err = column("n_electrons")
        .iter()
        .map(|n| (n - w.n_electrons).abs())
        .fold(0.0, f64::max);
    let ne_tol = tolerance("n_electrons_abs");
    ops.record(ne_err <= ne_tol, || {
        format!(
            "n_electrons drifts {ne_err:.3e} from {} (tol {ne_tol:.0e})",
            w.n_electrons
        )
    });
    let ortho = column("orthonormality_error")
        .iter()
        .copied()
        .fold(0.0, f64::max);
    let ortho_tol = tolerance("orthonormality_abs");
    ops.record(ortho < ortho_tol, || {
        format!("orthonormality error {ortho:.3e} (tol {ortho_tol:.0e})")
    });

    if seed != REFERENCE_SEED {
        return;
    }
    let reference = reference_columns(w);
    let n = steps.min(reference["energy"].len());
    ops.record(n > 0, || "reference trajectory is empty".to_string());
    let got = |c: &str| &column(c)[..n];
    let want = |c: &str| &reference[c][..n];
    let energy_rel = max_rel_diff(got("energy"), want("energy"));
    let dipole_abs = ["dipole_x", "dipole_y", "dipole_z"]
        .iter()
        .map(|c| max_abs_diff(got(c), want(c)))
        .fold(0.0, f64::max);
    if w.name == ACE8 {
        // a stale projector is an approximation: bounded, not exact
        let (d_tol, e_tol) = (
            tolerance("ace_vs_full_max_dipole_abs"),
            tolerance("ace_vs_full_energy_rel"),
        );
        ops.record(dipole_abs <= d_tol, || {
            format!("ACE dipole differs from Full by {dipole_abs:.3e} (tol {d_tol:.0e})")
        });
        ops.record(energy_rel <= e_tol, || {
            format!("ACE energy differs from Full by {energy_rel:.3e} relative (tol {e_tol:.0e})")
        });
        return;
    }
    let (abs_tol, rel_tol) = (
        tolerance("reference_abs"),
        tolerance("reference_energy_rel"),
    );
    let name = reference_name(w);
    ops.record(energy_rel <= rel_tol, || {
        format!(
            "energy differs from reference {name} by {energy_rel:.3e} relative (tol {rel_tol:.0e})"
        )
    });
    let current_abs = max_abs_diff(got("current_z"), want("current_z"));
    ops.record(current_abs <= abs_tol, || {
        format!("current_z differs from reference {name} by {current_abs:.3e} (tol {abs_tol:.0e})")
    });
    ops.record(dipole_abs <= abs_tol, || {
        format!("dipole differs from reference {name} by {dipole_abs:.3e} (tol {abs_tol:.0e})")
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{workload, FULL, SERVED};

    fn reference_run(w: &Workload, steps: usize) -> Columns {
        let mut cols = reference_columns(w);
        for col in cols.values_mut() {
            col.truncate(steps);
        }
        cols.insert("n_electrons".into(), vec![w.n_electrons; steps]);
        cols.insert("orthonormality_error".into(), vec![1e-15; steps]);
        cols.insert("converged".into(), vec![1.0; steps]);
        cols
    }

    #[test]
    fn a_run_equal_to_its_reference_passes_and_a_perturbed_one_fails() {
        for name in [FULL, SERVED, LDA, ACE8] {
            let w = workload(name).unwrap();
            let cols = reference_run(w, 8);
            let mut ops = Ops::default();
            check_run(&mut ops, w, REFERENCE_SEED, 8, &cols);
            assert_eq!(ops.failed, 0, "{name}: {:?}", ops.failures);
            assert!(ops.attempted > 8);
        }
        let w = workload(FULL).unwrap();
        let mut cols = reference_run(w, 8);
        cols.get_mut("current_z").unwrap()[3] += 1e-6;
        cols.get_mut("converged").unwrap()[5] = 0.0;
        cols.get_mut("n_electrons").unwrap()[0] += 1e-6;
        let mut ops = Ops::default();
        check_run(&mut ops, w, REFERENCE_SEED, 8, &cols);
        assert_eq!(ops.failed, 3, "{:?}", ops.failures);
        // another seed has no reference: only the invariants are held
        let mut ops = Ops::default();
        check_run(&mut ops, w, REFERENCE_SEED + 1, 8, &cols);
        assert_eq!(ops.failed, 2, "{:?}", ops.failures);
    }

    #[test]
    fn a_truncated_table_fails_every_step() {
        let w = workload(FULL).unwrap();
        let cols = reference_run(w, 5);
        let mut ops = Ops::default();
        check_run(&mut ops, w, REFERENCE_SEED, 8, &cols);
        assert_eq!(ops.failed, 9);
    }

    #[test]
    fn reference_documents_round_trip() {
        let w = workload(LDA).unwrap();
        let cols = reference_columns(w);
        let steps = cols["energy"].len();
        assert!(steps >= 24, "reference covers the default run length");
        let text = reference_document(reference_name(w), steps, &cols);
        assert_eq!(text, REF_SI16_LDA);
    }
}
