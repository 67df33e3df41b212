#!/usr/bin/env python3
"""Fail if a removed name reappears in the code base.

usage: removed_names.py [ROOT]

Each row of REMOVED is one deletion the code base keeps: an extended
regular expression (as `grep -E` reads it), the paths it is searched in,
a regex over grep's `file:line:text` output for the places it may still
appear (where old specs and snapshots are rejected by name, and those
rejections' tests), and the DESIGN.md section that says why it went.
Prints every offending line under its row and exits non-zero if any row
fires. ROOT defaults to the repository root.
"""
import pathlib
import re
import subprocess
import sys

SRC = "crates src tests examples"

# (what was removed, pattern, paths, allowed lines, DESIGN.md section)
REMOVED = [
    ("exchange knob",
     r"AceMts|ace_inner_substeps|with_exchange", SRC,
     r"^(crates/serve/src/spec\.rs|crates/core/src/checkpoint\.rs|tests/checkpoint_resume\.rs):",
     "Exchange modes"),
    ("ordered fold",
     r"OrderedFold|yield_now", "crates/ham/src", None,
     "Partner-chunk fold and tiles"),
    ("snapshot state no resume reads",
     r'AndersonState|checkpoint_wire|"prop/anderson', SRC, r"^tests/checkpoint_resume\.rs:",
     "Run-checkpoint schema"),
    ("layout knob",
     r"\bParallelism\b|DistributedConfig|\.parallelism\(|\.distributed\(", SRC, None,
     "Rank-pinned pool composition"),
    ("rank runtime",
     r"run_ranks|env_ranks|PT_NUM_RANKS", SRC, None,
     "Persistent rank engine"),
    ("pt-serve duplicate",
     r"filter_map\(Json::as_f64\)|fn (json_num|json_str|stats_samples|absorb_series|rehydrate_progress)\b",
     SRC, r"^crates/analyze/src/report\.rs:",
     "Job server"),
    ("Layer-B crate, binary or example",
     r"\b(pt-summit|pt_summit|pt-bench|pt_bench|val_timestep|summit_scaling)\b",
     SRC + " Cargo.toml .claude", None,
     "Crate inventory"),
    ("f32 wire",
     r"Wire::F32|CMatF32|\bc32\b|to_c32|cmat_wire", SRC, None,
     "Why there is no f32 wire"),
    ("observer pipeline",
     r"\bObserver\b|ObserverContext|(Energy|Current|DipoleNorm|Orthonormality)Observer|\.observer\(|\.standard_observers\(",
     SRC, None,
     "The unified simulation API"),
    ("Jacobi eigensolver",
     r"Jacobi|fn rotate\b", "crates/linalg/src", None,
     "Ground-state eigensolver"),
    ("rank general schedule",
     r"apply_general|allreduce_sum_f64", "crates/ham/src/distributed.rs", None,
     "Partner-chunk fold and tiles"),
    ("rank general schedule",
     r"psi_index", "crates/ham/src", None,
     "Partner-chunk fold and tiles"),
    ("hybrid SCF Φ-refresh cycle",
     r"max_phi_updates|phi_cycles", SRC, None,
     "Ground state"),
    ("second Anderson least-squares fit",
     r"lstsq\(", SRC, r"^crates/linalg/src/",
     "Ground state"),
    ("distributed PT residual and its collectives",
     r"distributed_residual|alltoallv_c64|allgatherv_c64|tree_reduce_chunks_c64|g_rows\(", SRC, None,
     "Fixed-chunk overlap reduction"),
    ("PT-CN step argument bundle and second ACE state type",
     r"AceRound|AceRefreshState|raw_psi_out|from_capture|fn absorb\b", "crates/core/src", None,
     "Exchange modes: Full and ACE"),
    ("per-kernel HΨ and ACE compositions",
     r"fn build_ace\(&mut self|\.(apply_h|build_ace)\(|hamiltonian\(&?rho, (sys\.hybrid|phi)\b", SRC, None,
     "Exchange modes: Full and ACE"),
    ("RK4 knobs: the re-orthonormalize option, its snapshot section and the bisection probe",
     r'Rk4Options|opts\.reorthonormalize|stable lower bracket|"prop/rk4"', SRC,
     r"^(crates/core/src/checkpoint\.rs|tests/checkpoint_resume\.rs):",
     "The unified simulation API"),
    ("open propagator set, its snapshot mirror and the never-varied mixer and start-time settings",
     r'PropagatorState|propagator_from_state|dyn Propagator|Rk4Propagator|\bOpaque\b|fn capture\b|"prop/opaque"|anderson_depth|mix_depth|mix_beta|fn start_time',
     SRC, r"^(crates/core/src/checkpoint\.rs|tests/checkpoint_resume\.rs):",
     "The unified simulation API"),
    ("second run constructor's setters, the snapshot-directory pre-scan and the open kernel seam",
     r"set_cancel_token|set_step_tap|scan_snapshots|SnapshotScan|latest_valid_snapshot|StepKernels|InlineKernels|EngineKernels",
     SRC, None,
     "The unified simulation API"),
    ("propagator-held rank team and its kernel parameter",
     r"RankEngine|ExchangeKernels|acquire_engine|engine_exchange_block", "crates/core/src", None,
     "Persistent rank engine"),
    ("step record's private exchange path and second exchange-energy formula",
     r"fn energy\(&self, grids|sys\.energies\(", "crates/ham/src/fock.rs crates/core/src", None,
     "Exchange modes: Full and ACE"),
]


def violations(root):
    """{row index: offending grep lines} for every row that fires under root."""
    found = {}
    for n, (_, pattern, paths, allowed, _) in enumerate(REMOVED):
        present = [p for p in paths.split() if (root / p).exists()]
        if not present:
            continue
        r = subprocess.run(["grep", "-rnHE", pattern, *present], cwd=root,
                           capture_output=True, text=True)
        if r.returncode > 1:
            raise SystemExit(f"grep failed on row {n}: {r.stderr.strip()}")
        lines = [l for l in r.stdout.splitlines() if not (allowed and re.search(allowed, l))]
        if lines:
            found[n] = lines
    return found


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).resolve().parents[2])
    found = violations(root)
    for n, lines in found.items():
        what, _, _, _, section = REMOVED[n]
        print("\n".join(lines))
        print(f'a removed {what} reappeared (lines above; DESIGN.md, "{section}")')
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
