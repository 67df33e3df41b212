#!/usr/bin/env python3
"""Self-check of bit_gate_deviation.py on three synthetic directory pairs.

usage: bit_gate_selfcheck.py

Builds base/head reference directories in a temporary directory -- a
48-row trajectory and the committed tolerances.json -- and asserts both
tiers' verdicts:

  identical        kernel pass, algorithm pass
  5e-8 on a dipole kernel fail, algorithm pass
  2e-7 on a dipole kernel fail, algorithm fail

plus one deviation past the algorithm tier's 24 rows, which only the
kernel tier sees. Exits non-zero on the first wrong verdict.
"""
import json
import math
import pathlib
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
SCRIPT = HERE / "bit_gate_deviation.py"
TOLERANCES = HERE.parent.parent / "benchmark" / "reference" / "tolerances.json"
ROWS = 48


def trajectory():
    return {
        "energy": [-31.8 + 1e-4 * math.sin(0.1 * i) for i in range(ROWS)],
        "current_z": [1e-3 * math.sin(0.2 * i) for i in range(ROWS)],
        "dipole_x": [150.0 + 0.01 * i for i in range(ROWS)],
        "dipole_y": [-2.0 + 0.01 * i for i in range(ROWS)],
        "dipole_z": [154.0 + 0.02 * math.cos(0.3 * i) for i in range(ROWS)],
    }


def write_dir(path, columns):
    path.mkdir(parents=True)
    shutil.copy(TOLERANCES, path / "tolerances.json")
    doc = {"physics": "synthetic", "seed": 1, "dt_as": 25, "steps": ROWS, "columns": columns}
    (path / "synthetic.json").write_text(json.dumps(doc))


def verdict(base, head, algorithm):
    cmd = [sys.executable, str(SCRIPT)] + (["--algorithm"] if algorithm else []) + [str(base), str(head)]
    return subprocess.run(cmd, capture_output=True, text=True).returncode == 0


def main():
    cases = [
        # (name, row, shift, kernel passes, algorithm passes)
        ("identical", 0, 0.0, True, True),
        ("5e-8 dipole", 10, 5e-8, False, True),
        ("2e-7 dipole", 10, 2e-7, False, False),
        ("2e-7 dipole past row 24", 30, 2e-7, False, True),
    ]
    wrong = 0
    with tempfile.TemporaryDirectory() as tmp:
        for n, (name, row, shift, kernel_ok, algorithm_ok) in enumerate(cases):
            base, head = pathlib.Path(tmp, f"{n}/base"), pathlib.Path(tmp, f"{n}/head")
            write_dir(base, trajectory())
            columns = trajectory()
            columns["dipole_z"][row] += shift
            write_dir(head, columns)
            got = (verdict(base, head, False), verdict(base, head, True))
            ok = got == (kernel_ok, algorithm_ok)
            wrong += not ok
            print(f"{'ok ' if ok else 'BAD'} {name}: kernel pass={got[0]} algorithm pass={got[1]}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
