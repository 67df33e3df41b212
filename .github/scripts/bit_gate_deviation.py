#!/usr/bin/env python3
"""Size of a declared re-baseline: base vs head reference trajectories.

usage: bit_gate_deviation.py [--algorithm] BASE_REFERENCE_DIR HEAD_REFERENCE_DIR

Prints, per reference file and channel, the largest deviation between the
two regenerated trajectories -- relative for `energy`, absolute for
`current_z` and `dipole_*`, the way benchmark/src/checks.rs compares a run
with its reference -- and fails above the tier's bound.

Kernel tier (the default, `DELIBERATE BIT RE-BASELINE`): every row, one
LIMIT of 1e-9. The reference tolerance is 1e-7; a re-association of
floating-point sums lands decades below LIMIT (the Stockham FFT kernel swap
measured 1.2e-11), a change of the physics does not, so a declaration
alone cannot carry one through.

Algorithm tier (`--algorithm`, `DELIBERATE ALGORITHM RE-BASELINE`): a
change to the solve moves a trajectory by the fixed point's own stopping
error, which is set by `rho_tol`, not by rounding. It compares only the
first ALGORITHM_ROWS rows -- the run length the benchmark checks against
its references -- with the bounds of that check, read from
tolerances.json (`reference_abs`, `reference_energy_rel`; the tighter of
the base and head copies), so it is never looser than the benchmark.
"""
import json
import pathlib
import sys

LIMIT = 1e-9
ALGORITHM_ROWS = 24


def deviation(channel, base, head):
    if len(base) != len(head):
        return float("inf")
    if channel == "energy":
        return max((abs(h - b) / abs(b) for b, h in zip(base, head)), default=0.0)
    return max((abs(h - b) for b, h in zip(base, head)), default=0.0)


def algorithm_bounds(base_dir, head_dir):
    """(absolute, energy-relative) bound: the benchmark's own, tighter side."""
    docs = [json.loads((pathlib.Path(d) / "tolerances.json").read_text()) for d in (base_dir, head_dir)]
    return (
        min(t["reference_abs"] for t in docs),
        min(t["reference_energy_rel"] for t in docs),
    )


def main(base_dir, head_dir, algorithm=False):
    if algorithm:
        abs_bound, rel_bound = algorithm_bounds(base_dir, head_dir)
        rows = slice(0, ALGORITHM_ROWS)
        print(
            f"algorithm tier: first {ALGORITHM_ROWS} rows, "
            f"bounds {abs_bound:.0e} absolute / {rel_bound:.0e} relative (tolerances.json)"
        )
    else:
        abs_bound = rel_bound = LIMIT
        rows = slice(None)
    failed = False
    worst = 0.0
    for head_file in sorted(pathlib.Path(head_dir).glob("*.json")):
        head = json.loads(head_file.read_text()).get("columns")
        if head is None:  # tolerances.json
            continue
        base = json.loads((pathlib.Path(base_dir) / head_file.name).read_text())["columns"]
        for channel in sorted(set(base) | set(head)):
            relative = channel == "energy"
            dev = deviation(channel, base.get(channel, [])[rows], head.get(channel, [])[rows])
            bound = rel_bound if relative else abs_bound
            failed |= not dev <= bound
            worst = max(worst, dev)
            kind = "relative" if relative else "absolute"
            print(f"{head_file.name}: {channel}: max {kind} deviation {dev:.3e} (bound {bound:.0e})")
    if algorithm:
        print(f"largest deviation {worst:.3e}")
    else:
        print(f"largest deviation {worst:.3e} (limit {LIMIT:.0e}, reference tolerance 1e-7)")
    return 1 if failed else 0


if __name__ == "__main__":
    argv = sys.argv[1:]
    algorithm = argv[:1] == ["--algorithm"]
    if algorithm:
        argv = argv[1:]
    if len(argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(argv[0], argv[1], algorithm))
