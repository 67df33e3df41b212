//! `pt-serve-client <run_dir> <command> [...]` — the CLI face of
//! [`pt_serve::Client`]. Finds the server through `<run_dir>/port`.
//!
//! ```text
//! pt-serve-client RUN submit SPEC.json     print the new job id
//! pt-serve-client RUN status               one line per job
//! pt-serve-client RUN tail JOB CHANNEL     follow a channel until terminal
//! pt-serve-client RUN stats                follow live telemetry frames
//! pt-serve-client RUN cancel JOB
//! pt-serve-client RUN fetch JOB            print the result table JSON
//! pt-serve-client RUN shutdown             drain jobs, then stop
//! ```
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use pt_ham::PtError;
use pt_serve::{Client, JobSpec};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: pt-serve-client <run_dir> submit <spec.json> | status | \
         tail <job> <channel> | stats | cancel <job> | fetch <job> | shutdown"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (Some(run_dir), Some(cmd)) = (args.get(1), args.get(2)) else {
        return usage();
    };
    match run(Path::new(run_dir), cmd, &args[3..]) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => usage(),
        Err(e) => {
            eprintln!("pt-serve-client: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_job(arg: Option<&String>) -> Result<u64, PtError> {
    arg.and_then(|s| s.parse().ok())
        .ok_or_else(|| PtError::InvalidConfig("expected a numeric job id".into()))
}

fn run(run_dir: &Path, cmd: &str, rest: &[String]) -> Result<bool, PtError> {
    let mut client = Client::for_run_dir(run_dir)?;
    match cmd {
        "submit" => {
            let Some(spec_path) = rest.first() else {
                return Ok(false);
            };
            let text = std::fs::read_to_string(spec_path).map_err(|e| PtError::Io {
                path: spec_path.clone(),
                reason: format!("reading spec: {e}"),
            })?;
            let job = client.submit(&JobSpec::from_json(&text)?)?;
            println!("{job}");
        }
        "status" => {
            for row in client.status()? {
                let err = row.error.as_deref().unwrap_or("");
                println!(
                    "{:>6}  {:<14}  {:>5}/{:<5}  {:>3} cores  {}  {}",
                    row.id,
                    row.state.as_str(),
                    row.steps_done,
                    row.steps,
                    row.cores,
                    row.name,
                    err
                );
            }
        }
        "tail" => {
            let job = parse_job(rest.first())?;
            let Some(channel) = rest.get(1) else {
                return Ok(false);
            };
            let state = client.tail(job, channel, 0, true, |chunk| {
                for (t, v) in chunk.t.iter().zip(&chunk.values) {
                    println!("{t:>14.6}  {v:>20.12e}");
                }
            })?;
            eprintln!("job {job}: {}", state.as_str());
        }
        "stats" => {
            client.stats(true, |f| {
                let jobs: Vec<String> = f
                    .jobs
                    .iter()
                    .map(|j| {
                        format!(
                            "job {}: {} steps, {:.2}/s",
                            j.id, j.steps_done, j.steps_per_second
                        )
                    })
                    .collect();
                println!(
                    "t={:>10}us  queue={}  cores={}/{}  steps={}  rate={:.2}/s  {}",
                    f.t_us,
                    f.queue_depth,
                    f.cores_in_use,
                    f.budget_cores,
                    f.steps_total,
                    f.steps_per_second,
                    jobs.join("  ")
                );
                true
            })?;
        }
        "cancel" => {
            let job = parse_job(rest.first())?;
            println!("{}", client.cancel(job)?.as_str());
        }
        "fetch" => {
            let job = parse_job(rest.first())?;
            println!("{}", client.fetch(job)?.dump());
        }
        "shutdown" => client.shutdown()?,
        _ => return Ok(false),
    }
    Ok(true)
}
