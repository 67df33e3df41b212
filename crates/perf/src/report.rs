//! The one printer of Layer B: every table and figure the model
//! regenerates, then the abstract's time per femtosecond and §6's power
//! parity, as one text report (`examples/paper_artifacts.rs` prints it).

use crate::artifacts::*;
use crate::machine::{cpu_run_power, gpu_run_power};
use crate::model::{CostModel, Problem};
use crate::reference::*;
use std::fmt::{self, Write};

/// The paper's evaluation as regenerated by `model`: Tables 1–2, Figs. 3
/// and 6–10, the 1.5 h/fs headline and the §6 power comparison.
pub fn paper_report(model: &CostModel) -> String {
    let mut out = String::new();
    write_report(model, &mut out).expect("invariant: writing to a String cannot fail");
    out
}

/// One labelled row: `label` left-aligned in `width`, then every cell.
fn row(
    out: &mut String,
    label: &str,
    width: usize,
    cells: impl IntoIterator<Item = String>,
) -> fmt::Result {
    write!(out, "{label:<width$}")?;
    cells.into_iter().for_each(|c| out.push_str(&c));
    writeln!(out)
}

fn write_report(model: &CostModel, out: &mut String) -> fmt::Result {
    let t1 = table1(model);
    writeln!(
        out,
        "Table 1 — 1536-atom Si, wall clock per PT-CN step (model | paper)"
    )?;
    let gpus = t1.iter().map(|r| format!("{:>10}", r.gpus));
    row(out, "component \\ GPUs", 22, gpus)?;
    for (ci, (name, _)) in t1[0].components.iter().enumerate() {
        let values = t1.iter().map(|r| format!("{:>10.3}", r.components[ci].1));
        row(out, name, 22, values)?;
    }
    // column `i` of every row, the paper's included, is `PAPER_GPU_COUNTS[i]`
    type Cell = fn(usize, &Table1Row) -> String;
    let totals: [(&str, Cell); 6] = [
        ("per SCF (model)", |_, r| format!("{:>10.2}", r.per_scf)),
        ("per SCF (paper)", |i, _| {
            format!("{:>10.2}", PAPER_TABLE1_PER_SCF_TOTAL[i])
        }),
        ("total (model)", |_, r| format!("{:>10.1}", r.total)),
        ("total (paper)", |i, _| {
            format!("{:>10.1}", PAPER_TABLE1_TOTAL[i])
        }),
        ("speedup (model)", |_, r| format!("{:>9.1}x", r.speedup)),
        ("HΨ fraction", |_, r| {
            format!("{:>9.0}%", 100.0 * r.h_psi_fraction)
        }),
    ];
    for (label, cell) in totals {
        let values = t1.iter().enumerate().map(|(i, r)| cell(i, r));
        row(out, label, 22, values)?;
    }

    let t2 = table2(model, &PAPER_GPU_COUNTS);
    writeln!(out, "\nTable 2 — breakdown per PT-CN step (seconds, model)")?;
    let gpus = PAPER_GPU_COUNTS.iter().map(|p| format!("{p:>9}"));
    row(out, "class \\ GPUs", 16, gpus)?;
    for &(name, ..) in &PAPER_TABLE2_ANCHORS {
        let values = t2.iter().map(|r| format!("{:>9.2}", r.class(name)));
        row(out, name, 16, values)?;
    }
    let totals = t2.iter().map(|r| format!("{:>9.2}", r.mpi_total));
    row(out, "MPI total", 16, totals)?;

    writeln!(
        out,
        "\nFig. 3 — Fock exchange operator wall time per step (s)"
    )?;
    for (label, seconds) in fig3_stages(model) {
        writeln!(out, "{label:<22} {seconds:>10.1}")?;
    }

    writeln!(out, "\nFig. 6 — 50 as of dynamics, 1536-atom Si (seconds)")?;
    writeln!(
        out,
        "{:>6} {:>12} {:>12} {:>9}",
        "GPUs", "RK4", "PT-CN", "ratio"
    )?;
    for r in fig6_rows(model) {
        let ratio = r.rk4 / r.ptcn;
        writeln!(
            out,
            "{:>6} {:>12.1} {:>12.1} {ratio:>8.1}x",
            r.gpus, r.rk4, r.ptcn
        )?;
    }
    writeln!(out, "(paper: PT-CN is ~20x faster at 36 GPUs, ~30x at 768)")?;

    let fig7 = fig7_rows(model, &PAPER_GPU_COUNTS);
    writeln!(
        out,
        "\nFig. 7(a) — strong scaling incl. MPI/memcpy (per-SCF seconds)"
    )?;
    writeln!(
        out,
        "{:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "GPUs", "total", "HΨ", "resid", "density", "anderson", "others"
    )?;
    for (p, a, _) in &fig7 {
        writeln!(
            out,
            "{:>6} {:>9.2} {:>9.2} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            p, a[0], a[1], a[2], a[3], a[4], a[5]
        )?;
    }
    writeln!(out, "\nFig. 7(b) — computation only (per-SCF seconds)")?;
    writeln!(
        out,
        "{:>6} {:>9} {:>9} {:>9} {:>9}",
        "GPUs", "HΨcomp", "resid", "density", "anderson"
    )?;
    for (p, _, b) in &fig7 {
        writeln!(
            out,
            "{:>6} {:>9.3} {:>9.4} {:>9.4} {:>9.4}",
            p, b[0], b[1], b[2], b[3]
        )?;
    }

    writeln!(out, "\nFig. 8 — weak scaling, 50 as wall time (seconds)")?;
    writeln!(
        out,
        "{:>7} {:>6} {:>10} {:>12}",
        "atoms", "GPUs", "model", "N² ideal"
    )?;
    for r in fig8_rows(model) {
        writeln!(
            out,
            "{:>7} {:>6} {:>10.2} {:>12.2}",
            r.atoms, r.gpus, r.seconds, r.ideal
        )?;
    }
    writeln!(
        out,
        "(paper: 192 atoms on 96 GPUs take ~16 s per 50 as → ~5 min/fs)"
    )?;

    writeln!(out, "\nFig. 9 — per-SCF component stack (seconds)")?;
    writeln!(
        out,
        "{:>6} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "GPUs", "HΨ", "resid", "density", "anderson", "others"
    )?;
    for (p, a, _) in fig7_rows(model, &FIG9_GPUS) {
        writeln!(
            out,
            "{:>6} {:>9.2} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            p, a[1], a[2], a[3], a[4], a[5]
        )?;
    }

    writeln!(out, "\nFig. 10 — per-step operation classes (seconds)")?;
    writeln!(
        out,
        "{:>6} {:>9} {:>9} {:>10} {:>10} {:>12}",
        "GPUs", "bcast", "memcpy", "alltoallv", "allreduce", "computation"
    )?;
    for r in table2(model, &FIG10_GPUS) {
        let classes = ["bcast", "memcpy", "alltoallv", "allreduce", "computation"];
        let values = classes.map(|n| format!(" {:>9.2}", r.class(n)));
        row(out, &format!("{:>6}", r.gpus), 0, values)?;
    }
    writeln!(
        out,
        "(the MPI_Bcast wall past 768 GPUs is the paper's scaling limit)"
    )?;

    let pr = Problem::paper_1536();
    writeln!(out, "\nHeadlines — abstract and §6")?;
    let hours_per_fs = model.step_total(768, &pr) * 20.0 / 3600.0;
    writeln!(
        out,
        "time per femtosecond at 768 GPUs: {hours_per_fs:.2} h (paper: ~1.5 h)"
    )?;
    writeln!(
        out,
        "power: 72 GPUs = {:.0} W vs 3072 CPU cores = {:.0} W, GPU {:.1}x faster",
        gpu_run_power(72),
        cpu_run_power(3072),
        model.cpu_step(3072, &pr) / model.step_total(72, &pr)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_report_prints_every_section() {
        let report = paper_report(&CostModel::new());
        for section in [
            "Table 1 —",
            "Table 2 —",
            "Fig. 3 —",
            "Fig. 6 —",
            "Fig. 7(a) —",
            "Fig. 7(b) —",
            "Fig. 8 —",
            "Fig. 9 —",
            "Fig. 10 —",
            "time per femtosecond at 768 GPUs:",
            "power: 72 GPUs =",
        ] {
            assert_eq!(report.matches(section).count(), 1, "{section}");
        }
        // every row label of both tables
        for (name, ..) in PAPER_COMPONENT_ANCHORS.iter().chain(&PAPER_TABLE2_ANCHORS) {
            assert!(report.contains(&format!("\n{name} ")), "{name}");
        }
        for label in ["per SCF (paper)", "speedup (model)", "MPI total"] {
            assert!(report.contains(label), "{label}");
        }
    }
}
