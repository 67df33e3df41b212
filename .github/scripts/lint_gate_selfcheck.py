#!/usr/bin/env python3
"""Self-check of the clippy lint gate on a planted temporary tree.

usage: lint_gate_selfcheck.py

The invariant lints (DESIGN.md, "Static analysis & invariants") are
clippy's, scoped by each crate's clippy.toml and switched on outside test
code at each crate root. On a temporary copy of the tree this script runs
`cargo clippy --workspace --all-targets -- -D warnings`:

- on the clean copy, which must pass;
- once per seed, with that one violation planted, which must fail with
  exactly one reported location, the seed's own file:line;
- once with every out-of-scope negative planted together (test code, and
  crates a rule does not cover), which must pass.

Exits non-zero if any verdict is wrong.
"""
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[2]

# (former lint, file, lines planted into it, index of the line reported)
SEEDS = [
    ("undocumented-unsafe", "tests/lint_gate_seed.rs", [
        "#[test]",
        "fn seed() {",
        "    let x = 1u8;",
        "    assert_eq!(unsafe { std::ptr::read(&x) }, 1);",
        "}",
    ], 3),
    ("library-unwrap", "crates/core/src/lib.rs", [
        "pub fn lint_gate_seed(s: &str) -> u8 {",
        "    s.parse().unwrap()",
        "}",
    ], 1),
    ("nondeterministic-iteration", "crates/linalg/src/lib.rs", [
        "pub fn lint_gate_seed(keys: &[u8]) -> usize {",
        "    keys.iter().collect::<std::collections::HashSet<_>>().len()",
        "}",
    ], 1),
    ("raw-thread-spawn", "crates/io/src/lib.rs", [
        "pub fn lint_gate_seed() {",
        "    let _ = std::thread::spawn(|| ()).join();",
        "}",
    ], 1),
    ("wallclock-in-kernel", "crates/fft/src/lib.rs", [
        "pub fn lint_gate_seed() -> std::time::Instant {",
        "    std::time::Instant::now()",
        "}",
    ], 1),
    ("float-fold-order", "crates/xc/src/lib.rs", [
        "pub fn lint_gate_seed(xs: &[f64]) -> f64 {",
        "    xs.iter().sum()",
        "}",
    ], 1),
    ("parallel-mutable-capture", "crates/pseudo/src/lib.rs", [
        "pub fn lint_gate_seed(xs: &[f64]) -> Vec<f64> {",
        "    let sink = std::sync::Mutex::new(Vec::new());",
        "    pt_par::parallel_for(xs.len(), |i| sink.lock().unwrap_or_else(|e| e.into_inner()).push(xs[i]));",
        "    sink.into_inner().unwrap_or_else(|e| e.into_inner())",
        "}",
    ], 1),
    ("invalid-pragma (an allow without a reason)", "crates/perf/src/lib.rs", [
        "#[allow(dead_code)]",
        "fn lint_gate_seed() {}",
    ], 0),
    ("unused-pragma (an expect that suppresses nothing)", "crates/trace/src/lib.rs", [
        '#[expect(clippy::disallowed_methods, reason = "suppresses nothing")]',
        "pub fn lint_gate_seed() {}",
    ], 0),
]

# (what a rule must not reach, file, lines planted into it)
NEGATIVES = [
    ("unwrap in a core integration test", "crates/core/tests/lint_gate_negative.rs", [
        "#[test]",
        "fn unwraps() {",
        '    assert_eq!("1".parse::<u8>().unwrap(), 1);',
        "}",
    ]),
    ("unwrap in a #[cfg(test)] module", "crates/core/src/lib.rs", [
        "#[cfg(test)]",
        "mod lint_gate_negative {",
        "    #[test]",
        "    fn unwraps() {",
        '        assert_eq!("1".parse::<u8>().unwrap(), 1);',
        "    }",
        "}",
    ]),
    ("thread::spawn in pt-par", "crates/par/src/lib.rs", [
        "pub fn lint_gate_negative() {",
        "    let _ = std::thread::spawn(|| ()).join();",
        "}",
    ]),
    ("Instant::now in pt-trace", "crates/trace/src/lib.rs", [
        "pub fn lint_gate_negative() -> std::time::Instant {",
        "    std::time::Instant::now()",
        "}",
    ]),
    ("HashMap in pt-serve", "crates/serve/src/lib.rs", [
        "pub fn lint_gate_negative() -> std::collections::HashMap<u8, u8> {",
        "    std::collections::HashMap::new()",
        "}",
    ]),
]

REPORTED = re.compile(r"^([^\s:]+\.rs):(\d+):\d+: (?:warning|error): (.*)$")


def plant(tree, path, lines):
    """Put `lines` into `path` under `tree`, before its first top-level
    `#[cfg(test)]` item (an item after a test module is a lint of its own),
    else at its end; return the 1-based number of the first planted line."""
    target = tree / path
    text = target.read_text().splitlines() if target.exists() else []
    at = text.index("#[cfg(test)]") if "#[cfg(test)]" in text else len(text)
    target.write_text("\n".join(text[:at] + lines + text[at:]) + "\n")
    return at + 1


def clippy(tree):
    """Run the gate on `tree`: (exit code, {file:line: first message})."""
    r = subprocess.run(
        ["cargo", "clippy", "--workspace", "--all-targets", "--offline",
         "--message-format=short", "--target-dir", str(tree / "target"),
         "--", "-D", "warnings"],
        cwd=tree, capture_output=True, text=True)
    found = {}
    for line in r.stderr.splitlines():
        m = REPORTED.match(line)
        if m:
            found.setdefault(f"{m[1]}:{m[2]}", m[3])
    return r.returncode, found


def check(name, ok, detail):
    print(f"{'ok ' if ok else 'BAD'} {name}: {detail}")
    return ok


def main():
    wrong = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            "target", ".git", "benchmark", ".bench_*", "__pycache__"))
        code, found = clippy(tree)
        wrong += not check("clean tree", code == 0 and not found,
                           f"exit {code}, reported {found}")
        for name, path, lines, at in SEEDS:
            kept = (tree / path).read_text() if (tree / path).exists() else None
            want = f"{path}:{plant(tree, path, lines) + at}"
            code, found = clippy(tree)
            wrong += not check(f"seed {name}", code != 0 and list(found) == [want],
                               f"exit {code}, want {want}, reported "
                               + "; ".join(f"{k}: {v}" for k, v in found.items()))
            if kept is None:
                (tree / path).unlink()
            else:
                (tree / path).write_text(kept)
        for _, path, lines in NEGATIVES:
            plant(tree, path, lines)
        code, found = clippy(tree)
        wrong += not check("out-of-scope negatives (" + "; ".join(n for n, _, _ in NEGATIVES) + ")",
                           code == 0 and not found, f"exit {code}, reported {found}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
