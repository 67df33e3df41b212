//! `pt-serve-server <run_dir> <budget_cores> [bind_addr] [--trace]`
//!
//! Starts the job server over `run_dir` (recovering any jobs already
//! there), prints `LISTENING <addr>` once the port is bound, and runs
//! until a client sends `shutdown` (running jobs drain first). Kill it
//! ungracefully instead and the next start on the same `run_dir` resumes
//! every interrupted job from its newest valid snapshot.
//!
//! `--trace` arms pt-trace: each finished job exports `trace.json` +
//! `metrics.json` into its job directory and `stats` frames carry live
//! counter values. Tracing never perturbs results — series stay
//! bit-identical with it on or off.
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use pt_serve::{start, ServerConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().collect();
    let trace = args.iter().any(|a| a == "--trace");
    args.retain(|a| a != "--trace");
    let (run_dir, budget) = match (args.get(1), args.get(2).map(|s| s.parse::<usize>())) {
        (Some(dir), Some(Ok(budget))) => (dir.clone(), budget),
        _ => {
            eprintln!("usage: pt-serve-server <run_dir> <budget_cores> [bind_addr] [--trace]");
            return ExitCode::from(2);
        }
    };
    let mut config = ServerConfig::new(run_dir, budget);
    config.trace = trace;
    if let Some(addr) = args.get(3) {
        config.addr.clone_from(addr);
    }
    match start(config) {
        Ok(handle) => {
            println!("LISTENING {}", handle.addr());
            handle.wait_for_shutdown_request();
            handle.stop();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pt-serve-server: {e}");
            ExitCode::FAILURE
        }
    }
}
