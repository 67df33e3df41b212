#!/usr/bin/env python3
"""Self-check of removed_names.py on planted temporary trees.

usage: removed_names_selfcheck.py

For every row of removed_names.REMOVED: a tree holding one line that
matches the row's pattern, under the row's first path, must fire that row
and no other; where the row allows the pattern in some files, the same
line planted in the first allowed file must fire nothing. An empty tree
fires nothing, and the script's exit code follows its verdict. Exits
non-zero on the first wrong verdict.
"""
import pathlib
import re
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import removed_names  # noqa: E402

# one line per row that its pattern matches (same order as REMOVED)
SAMPLES = [
    "let m = ExchangeMode::AceMts;",
    "use std::thread::yield_now;",
    "struct AndersonState;",
    "let p = Parallelism::default();",
    "pt_mpi::run_ranks(2, job);",
    "fn json_num(x: f64) -> String {",
    "pt-bench = { path = \"crates/bench\" }",
    "let z: c32 = c32::new(0.0, 0.0);",
    "impl Observer for Probe {}",
    "// cyclic Jacobi sweep",
    "fn apply_general(&self) {}",
    "let psi_index = 0;",
    "opts.max_phi_updates = 8;",
    "let gamma = lstsq(&a, &b, 1e-12);",
    "let s = comm.tree_reduce_chunks_c64(&partials, nb * nb);",
    "ace: ace.map(AceRefreshState::from_capture),",
    "let hpsi = kernels.apply_h(sys, &rho, &psi, a, None)?;",
    "let opts = Rk4Options { reorthonormalize: true };",
    "fn propagator(mut self, p: Box<dyn Propagator>) -> Self {",
    "sim.set_step_tap(move |u| tx.send(u.t).unwrap());",
    "let kernels = &mut ExchangeKernels::Engine(acquire_engine(&mut self.engine, layout)?);",
    "pub fn energy(&self, grids: &PwGrids, psi: &CMat, occ: &[f64]) -> f64 {",
    "members = [\"crates/analyze\"]",
]


def plant(root, path, line):
    """Write `line` into the file `path` names, or into a file under the
    directory it names."""
    target = root / path
    if not target.suffix:
        target = target / "planted.rs"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(line + "\n")


def first_allowed_file(allowed):
    """The first file (or directory) an allowed-lines regex names."""
    name = re.sub(r"[\^()]", "", allowed).split("|")[0].rstrip(":")
    return name.replace("\\", "")


def check(name, got, want):
    ok = got == want
    print(f"{'ok ' if ok else 'BAD'} {name}: fired {sorted(got)}, expected {sorted(want)}")
    return ok


def main():
    assert len(SAMPLES) == len(removed_names.REMOVED)
    script = HERE / "removed_names.py"
    wrong = 0
    with tempfile.TemporaryDirectory() as tmp:
        empty = pathlib.Path(tmp, "empty")
        empty.mkdir()
        wrong += not check("empty tree", set(removed_names.violations(empty)), set())
        for n, ((what, _, paths, allowed, _), line) in enumerate(zip(removed_names.REMOVED, SAMPLES)):
            root = pathlib.Path(tmp, f"{n}")
            plant(root, paths.split()[0], line)
            wrong += not check(f"row {n} ({what})", set(removed_names.violations(root)), {n})
            if allowed:
                root = pathlib.Path(tmp, f"{n}-allowed")
                plant(root, first_allowed_file(allowed), line)
                wrong += not check(f"row {n} in an allowed file", set(removed_names.violations(root)), set())
        codes = [subprocess.run([sys.executable, str(script), str(pathlib.Path(tmp, d))],
                                capture_output=True).returncode for d in ("empty", "0")]
        ok = codes == [0, 1]
        wrong += not ok
        print(f"{'ok ' if ok else 'BAD'} exit codes (empty, planted): {codes}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
