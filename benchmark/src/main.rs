//! The cost ledger — the repository's one gated benchmark. See
//! `README.md` beside this package for the metric glossary; in short:
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark                      # every workload, both passes
//! benchmark --write-reference    # regenerate reference/*.json
//! ```
//!
//! `--trace 0` runs the workload with `pt_trace` disarmed and reports the
//! gated end-to-end metrics; `--trace 1` runs a shorter traced pass plus
//! outside-in probes and reports the per-layer metrics. The last line of
//! standard output is the result object the driver reads.

mod catalog;
mod checks;
mod e2e;
mod layers;
mod probe;
mod run;
mod stats;

use catalog::{Metric, Workload, WORKLOADS};
use checks::{Ops, REFERENCE_SEED};
use pwdft_rt::io::json::obj;
use pwdft_rt::prelude::*;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Steps a run of `seconds` takes: fixed work (2 steps per requested
/// second, a whole number of 8-step ACE refresh cycles), so `job_wall_s`
/// is a time to solution and every run of a workload does the same
/// physics. On the reference host a step costs 0.3–0.6 s, so the
/// measured part lasts about `seconds`.
fn steps_for(seconds: u64) -> usize {
    ((2 * seconds / 8) * 8).max(8) as usize
}

/// The traced pass measures two thirds as many steps (it also pays for a
/// second, untraced companion run and the probes).
fn traced_steps_for(steps: usize) -> usize {
    (steps * 2 / 3 / 8 * 8).max(8)
}

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    steps: usize,
    trace: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: REFERENCE_SEED,
        steps: steps_for(12),
        trace: false,
        write_reference: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--write-reference" {
            args.write_reference = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(catalog::workload(&value).ok_or(format!(
                    "unknown workload {value} (one of: {})",
                    WORKLOADS.map(|w| w.name).join(", ")
                ))?);
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.steps = steps_for(number()?),
            "--steps" => args.steps = (number()? as usize).max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

pub fn first_line_after(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|rest| rest.trim_start_matches([':', '\t', ' ']).trim().to_string())
}

fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| head.to_string(), |s| s.trim().to_string()),
        None if head.is_empty() => "not a git checkout".to_string(),
        None => head.to_string(),
    }
}

fn print_host_block(w: &Workload, args: &Args, steps: usize) {
    let cores = RankLayout::host_cores();
    println!("# host");
    println!("  nproc / RankLayout::host_cores  {cores}");
    println!(
        "  cpu model                       {}",
        first_line_after("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into())
    );
    println!(
        "  load average at start           {}",
        std::fs::read_to_string("/proc/loadavg")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
    );
    println!("  git commit                      {}", git_commit());
    println!(
        "  seed {}   steps {steps}   pass {}",
        args.seed,
        if args.trace {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        }
    );
    println!(
        "# workload {}: {} ranks x {} threads{}",
        w.name,
        w.layout.ranks,
        w.layout.threads_per_rank,
        if w.layout.fits_host() {
            String::new()
        } else {
            format!(
                " — NEEDS {} CORES, HOST HAS {cores}: timings are scheduling noise",
                w.layout.cores()
            )
        }
    );
    println!("  {}", w.why);
}

fn scratch_dir() -> PathBuf {
    std::env::current_dir()
        .unwrap_or_default()
        .join(".bench_scratch")
        .join(std::process::id().to_string())
}

/// One workload, one pass. Returns whether every operation succeeded.
fn run_one(w: &'static Workload, args: &Args, started: Instant) -> bool {
    let steps = if args.trace {
        traced_steps_for(args.steps)
    } else {
        args.steps
    };
    print_host_block(w, args, steps);
    let scratch = scratch_dir();
    let mut ops = Ops::default();
    let metrics = if args.trace {
        let spec = run::job_spec(w, args.seed, steps);
        layers::traced_pass(w, &spec, args.seed, &scratch, &mut ops)
            .map(|ledger| layers::report(w, &ledger))
    } else {
        e2e::end_to_end_pass(w, args.seed, steps, started, &scratch, &mut ops)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(parent) = scratch.parent() {
        // shared with concurrent runs: only an empty one goes
        let _ = std::fs::remove_dir(parent);
    }
    let metrics = metrics.unwrap_or_else(|e| {
        // the run itself is an operation, and it failed
        ops.record(false, || format!("run aborted: {e}"));
        Vec::new()
    });
    println!(
        "# operations: {} attempted, {} failed",
        ops.attempted, ops.failed
    );
    for f in &ops.failures {
        println!("  FAILED: {f}");
    }
    println!("{}", result_line(&ops, &metrics));
    ops.failed == 0
}

/// The object the driver reads off the last line of standard output. A
/// value must be a number, so a reading that does not apply (NaN) is 0.
fn result_line(ops: &Ops, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let reading = obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(m.unit.to_string())),
            ]);
            (m.name.to_string(), reading)
        })
        .collect();
    obj([
        ("correct", Json::Bool(ops.failed == 0)),
        ("attempted", Json::Num(ops.attempted as f64)),
        ("failed", Json::Num(ops.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .dump()
}

/// A child of `run_all` still running after this long is killed and
/// counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(600);

/// Every workload, both passes, each in a child process of its own (one
/// after another), so a panic or a hang in one is a failed run, not a
/// crashed benchmark.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all_ok = true;
    for trace in ["0", "1"] {
        for w in &WORKLOADS {
            println!("\n==== {} --trace {trace} ====", w.name);
            let child = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--steps", &args.steps.to_string()])
                .spawn();
            let outcome = child.and_then(|mut child| {
                let deadline = Instant::now() + CHILD_TIMEOUT;
                loop {
                    if let Some(status) = child.try_wait()? {
                        return Ok(status.success());
                    }
                    if Instant::now() > deadline {
                        child.kill()?;
                        child.wait()?;
                        return Ok(false);
                    }
                    std::thread::sleep(Duration::from_millis(200));
                }
            });
            let ok = matches!(outcome, Ok(true));
            if !ok {
                println!("==== {} --trace {trace}: FAILED ({outcome:?}) ====", w.name);
            }
            all_ok &= ok;
        }
    }
    all_ok
}

/// Regenerate `reference/*.json` from the workloads that define each
/// distinct physics, at the reference seed.
fn write_references() -> Result<(), PtError> {
    const STEPS: usize = 48;
    for name in [catalog::FULL, catalog::LDA] {
        let w = catalog::workload(name).expect("catalog workload");
        let spec = run::job_spec(w, REFERENCE_SEED, STEPS);
        let prep = run::prepare(&spec)?;
        let run = run::propagate(&prep.sys, &prep.gs.orbitals, &spec, STEPS, None, None)?;
        let physics = checks::reference_name(w);
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("reference/{physics}.json"));
        let text = checks::reference_document(physics, STEPS, &run::series_columns(&run.series));
        std::fs::write(&path, text).map_err(|e| PtError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.write_reference {
        write_references()
            .map_err(|e| eprintln!("benchmark: {e}"))
            .is_ok()
    } else {
        match args.workload {
            Some(w) => {
                std::panic::catch_unwind(|| run_one(w, &args, started)).unwrap_or_else(|_| {
                    let mut ops = Ops::default();
                    ops.record(false, || "run panicked".to_string());
                    println!("{}", result_line(&ops, &[]));
                    false
                })
            }
            None => run_all(&args),
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_length_is_whole_ace_cycles() {
        assert_eq!(steps_for(12), 24);
        assert_eq!(steps_for(10), 16);
        assert_eq!(steps_for(1), 8);
        assert_eq!(steps_for(60), 120);
        assert_eq!(traced_steps_for(24), 16);
        assert_eq!(traced_steps_for(8), 8);
        for s in 1..=60 {
            assert_eq!(steps_for(s) % 8, 0);
            assert_eq!(traced_steps_for(steps_for(s)) % 8, 0);
        }
    }
}
