//! `pt-bench` — harness utilities that print every paper artifact.
//!
//! Each `src/bin/*.rs` target regenerates one table or figure of the
//! paper (the real Layer-A kernels are timed by the `benchmark/` package,
//! `src/layers.rs` there). The formatting helpers here render the
//! "paper vs model" comparisons recorded in `EXPERIMENTS.md`.

use pt_perf::{CostModel, PAPER_GPU_COUNTS, PAPER_TABLE1_PER_SCF_TOTAL, PAPER_TABLE1_TOTAL};

/// Honest-bench flagging: the `reliability` string recorded in every
/// timing artifact.
///
/// A wall-clock speedup measured on a host with fewer cores than the
/// widest configuration in the sweep is scheduling noise, not scaling —
/// a 1-core CI runner produces a flat curve for *correct* code. Rather
/// than leave that for a human to infer from `host_cores`, every
/// `BENCH_*.json` carries this verdict, and the bins print it where a
/// log skimmer cannot miss it. `needed_cores` is the widest parallelism
/// the bench times (or 2 for pure-throughput benches, which still need
/// an idle core to time anything).
pub fn speedup_reliability(host_cores: usize, needed_cores: usize) -> String {
    if host_cores >= needed_cores {
        format!("ok: host_cores={host_cores} >= needed_cores={needed_cores}")
    } else {
        format!(
            "UNRELIABLE: host_cores={host_cores} < needed_cores={needed_cores} — \
             wall-clock speedups on this host are scheduling noise, not scaling"
        )
    }
}

/// Attach the [`speedup_reliability`] verdict to a bench artifact and, if
/// the verdict is bad, shout it on stderr too.
pub fn flag_reliability(
    table: pt_io::Table,
    host_cores: usize,
    needed_cores: usize,
) -> pt_io::Table {
    let verdict = speedup_reliability(host_cores, needed_cores);
    if verdict.starts_with("UNRELIABLE") {
        eprintln!("*** {verdict} ***");
    }
    table.meta("reliability", pt_io::Value::Str(verdict))
}

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
    fn reliability_verdicts_are_loud_and_carry_the_numbers() {
        let ok = speedup_reliability(8, 4);
        assert!(ok.starts_with("ok:"), "{ok}");
        assert!(ok.contains("host_cores=8") && ok.contains("needed_cores=4"));
        let bad = speedup_reliability(1, 4);
        assert!(bad.starts_with("UNRELIABLE: host_cores=1"), "{bad}");
        assert!(bad.contains("noise"));
        // boundary: exactly enough cores is ok
        assert!(speedup_reliability(4, 4).starts_with("ok:"));
        // and the verdict lands in the artifact metadata
        let t = flag_reliability(pt_io::Table::new(), 1, 4);
        let json = pt_io::Json::parse(&t.to_json()).unwrap();
        let v = json
            .get("reliability")
            .and_then(pt_io::Json::as_str)
            .unwrap();
        assert!(v.starts_with("UNRELIABLE"), "{v}");
    }

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
