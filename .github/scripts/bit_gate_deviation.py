#!/usr/bin/env python3
"""Size of a declared bit re-baseline: base vs head reference trajectories.

usage: bit_gate_deviation.py BASE_REFERENCE_DIR HEAD_REFERENCE_DIR

Prints, per reference file and channel, the largest deviation between the
two regenerated trajectories -- relative for `energy`, absolute for
`current_z` and `dipole_*`, the way benchmark/src/checks.rs compares a run
with its reference -- and fails above LIMIT. The reference tolerance is
1e-7; a re-association of floating-point sums lands decades below LIMIT
(PR 16's FFT kernel swap measured 1.2e-11), a change of the physics does
not, so a declaration alone cannot carry one through.
"""
import json
import pathlib
import sys

LIMIT = 1e-9


def deviation(channel, base, head):
    if len(base) != len(head):
        return float("inf")
    if channel == "energy":
        return max((abs(h - b) / abs(b) for b, h in zip(base, head)), default=0.0)
    return max((abs(h - b) for b, h in zip(base, head)), default=0.0)


def main(base_dir, head_dir):
    worst = 0.0
    for head_file in sorted(pathlib.Path(head_dir).glob("*.json")):
        head = json.loads(head_file.read_text()).get("columns")
        if head is None:  # tolerances.json
            continue
        base = json.loads((pathlib.Path(base_dir) / head_file.name).read_text())["columns"]
        for channel in sorted(set(base) | set(head)):
            kind = "relative" if channel == "energy" else "absolute"
            dev = deviation(channel, base.get(channel, []), head.get(channel, []))
            worst = max(worst, dev)
            print(f"{head_file.name}: {channel}: max {kind} deviation {dev:.3e}")
    print(f"largest deviation {worst:.3e} (limit {LIMIT:.0e}, reference tolerance 1e-7)")
    return 0 if worst <= LIMIT else 1


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
