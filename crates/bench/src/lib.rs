//! `pt-bench` — harness utilities that print every paper artifact.
//!
//! Each `src/bin/*.rs` target regenerates one table or figure of the
//! paper (the real Layer-A kernels are timed by the `benchmark/` package,
//! `src/layers.rs` there). The formatting helpers here render the
//! "paper vs model" comparisons.

use pt_perf::{CostModel, PAPER_GPU_COUNTS, PAPER_TABLE1_PER_SCF_TOTAL, PAPER_TABLE1_TOTAL};

/// Render Table 1 (component wall-clock times + totals + speedups).
pub fn render_table1(model: &CostModel) -> String {
    let rows = pt_perf::table1(model);
    let mut out = String::new();
    out.push_str("Table 1 — 1536-atom Si, wall clock per PT-CN step (model | paper)\n");
    out.push_str(&format!("{:<22}", "component \\ GPUs"));
    for r in &rows {
        out.push_str(&format!("{:>10}", r.gpus));
    }
    out.push('\n');
    for (ci, (name, _)) in rows[0].components.iter().enumerate() {
        out.push_str(&format!("{name:<22}"));
        for r in &rows {
            out.push_str(&format!("{:>10.3}", r.components[ci].1));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<22}", "per SCF (model)"));
    for r in &rows {
        out.push_str(&format!("{:>10.2}", r.per_scf));
    }
    out.push('\n');
    out.push_str(&format!("{:<22}", "per SCF (paper)"));
    for v in PAPER_TABLE1_PER_SCF_TOTAL {
        out.push_str(&format!("{v:>10.2}"));
    }
    out.push('\n');
    out.push_str(&format!("{:<22}", "total (model)"));
    for r in &rows {
        out.push_str(&format!("{:>10.1}", r.total));
    }
    out.push('\n');
    out.push_str(&format!("{:<22}", "total (paper)"));
    for v in PAPER_TABLE1_TOTAL {
        out.push_str(&format!("{v:>10.1}"));
    }
    out.push('\n');
    out.push_str(&format!("{:<22}", "speedup (model)"));
    for r in &rows {
        out.push_str(&format!("{:>9.1}x", r.speedup));
    }
    out.push('\n');
    out.push_str(&format!("{:<22}", "HΨ fraction"));
    for r in &rows {
        out.push_str(&format!("{:>9.0}%", 100.0 * r.h_psi_fraction));
    }
    out.push('\n');
    out
}

/// Render Table 2 (MPI / memcpy / computation breakdown).
pub fn render_table2(model: &CostModel) -> String {
    let rows = pt_perf::table2(model);
    let mut out = String::new();
    out.push_str("Table 2 — breakdown per PT-CN step (seconds, model)\n");
    out.push_str(&format!("{:<16}", "class \\ GPUs"));
    for &p in &PAPER_GPU_COUNTS {
        out.push_str(&format!("{p:>9}"));
    }
    out.push('\n');
    for (ci, (name, _)) in rows[0].classes.iter().enumerate() {
        out.push_str(&format!("{name:<16}"));
        for r in &rows {
            out.push_str(&format!("{:>9.2}", r.classes[ci].1));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<16}", "MPI total"));
    for r in &rows {
        out.push_str(&format!("{:>9.2}", r.mpi_total));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_are_nonempty_and_have_all_columns() {
        let m = CostModel::new();
        let t1 = render_table1(&m);
        assert!(t1.contains("fock_comp") && t1.contains("speedup"));
        assert!(t1.lines().count() > 14);
        let t2 = render_table2(&m);
        assert!(t2.contains("bcast") && t2.contains("MPI total"));
    }
}
