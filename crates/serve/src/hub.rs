//! Per-job streaming hub: the job state machine, the incrementally-built
//! observable record every `tail` reader broadcasts from, and the typed
//! events jobs publish into the server's mpsc fan-in.
//!
//! Running jobs do not talk to clients. Each job's step tap sends
//! [`JobEvent`]s down a cloned channel sender (Collector-style fan-in:
//! many producers, one pump); the server's event pump appends them to the
//! job's [`JobProgress`] under the state lock and notifies a condvar.
//! `tail` handlers are pull-based broadcast consumers — each keeps its own
//! cursor into the progress columns, so any number of live tails can
//! follow one job without backpressure into the time loop.

use crate::protocol::f64_column;
use crate::spec::JobSpec;
use pt_core::CancelToken;
use pt_io::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The job state machine:
/// `queued → running → checkpointed → done | failed | cancelled`
/// (`checkpointed` is "running, with at least one durable snapshot on
/// disk" — from there a server crash costs at most `checkpoint_every`
/// steps). `failed` and `cancelled` can also be entered from `queued`
/// (spec rejected at start, cancel before start).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for cores.
    Queued,
    /// Started; no durable snapshot yet.
    Running,
    /// Running with at least one durable snapshot behind it.
    Checkpointed,
    /// Completed; `result.json` is on disk.
    Done,
    /// Errored or panicked (message in [`JobRecord::error`]).
    Failed,
    /// Cancelled by request (a final snapshot is on disk if the job had
    /// started and checkpointing was armed).
    Cancelled,
}

impl JobState {
    /// Wire name (`status` responses, marker-file content).
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Checkpointed => "checkpointed",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`JobState::as_str`].
    pub fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "checkpointed" => JobState::Checkpointed,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }

    /// Whether the job will never change state again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// Whether the job currently occupies cores.
    pub fn is_active(&self) -> bool {
        matches!(self, JobState::Running | JobState::Checkpointed)
    }
}

/// The incrementally-built observable record of one job — same columns as
/// the final `TimeSeries` table (`t`, `a_x/y/z`, per-step stats, every
/// recorded channel), grown one step at a time by the event pump.
#[derive(Clone, Debug, Default)]
pub struct JobProgress {
    /// Post-step times (a.u.).
    pub t: Vec<f64>,
    /// Every other column, keyed by channel name.
    pub channels: BTreeMap<String, Vec<f64>>,
}

impl JobProgress {
    /// Steps recorded so far.
    pub fn steps_done(&self) -> usize {
        self.t.len()
    }

    /// Append one step's samples.
    pub fn push_step(&mut self, t: f64, samples: &[(String, f64)]) {
        self.t.push(t);
        for (name, value) in samples {
            self.channels.entry(name.clone()).or_default().push(*value);
        }
    }

    /// A column by name; `"t"` serves the time column itself.
    pub fn channel(&self, name: &str) -> Option<&[f64]> {
        if name == "t" {
            return Some(&self.t);
        }
        self.channels.get(name).map(Vec::as_slice)
    }

    /// Names of every available column (`t` first).
    pub fn channel_names(&self) -> Vec<&str> {
        let mut names = vec!["t"];
        names.extend(self.channels.keys().map(String::as_str));
        names
    }

    /// Progress holding every column of a result table (the parsed
    /// `result.json` shape, `TimeSeries::to_table` as JSON) — the one
    /// builder behind a resumed job's restored prefix and a done job
    /// rehydrated after a restart. A column that does not decode is
    /// skipped.
    pub fn from_table(table: &Json) -> JobProgress {
        let mut progress = JobProgress::default();
        let columns = table.get("columns").and_then(Json::as_obj);
        for (name, col) in columns.unwrap_or_default() {
            let Some(values) = f64_column(col) else {
                continue;
            };
            if name == "t" {
                progress.t = values;
            } else {
                progress.channels.insert(name.clone(), values);
            }
        }
        progress
    }
}

/// One tracked job: spec, on-disk home, live state and progress.
#[derive(Debug)]
pub struct JobRecord {
    /// Server-assigned id (monotonic, stable across restarts).
    pub id: u64,
    /// The submitted spec (persisted as `spec.json` in [`JobRecord::dir`]).
    pub spec: JobSpec,
    /// The job's directory: spec, rolling snapshots, result, markers.
    pub dir: PathBuf,
    /// Current state-machine state.
    pub state: JobState,
    /// Failure message when [`JobState::Failed`].
    pub error: Option<String>,
    /// Live observable record (broadcast source for `tail`).
    pub progress: JobProgress,
    /// Trip to request cooperative cancellation of a running job.
    pub cancel: CancelToken,
    /// `pt_trace::monotonic_us()` when the current run attempt started
    /// (`None` until the job first reaches `running`). Telemetry only —
    /// never serialized, never bit-compared.
    pub run_started_us: Option<u64>,
    /// Steps already in `progress` when the attempt started (the restored
    /// prefix of a resumed job) — subtracted out of the step rate so a
    /// resume doesn't claim its restored steps as throughput.
    pub steps_at_run_start: usize,
}

impl JobRecord {
    /// A queued job with no progress yet — every record starts here,
    /// whether submitted or recovered from disk.
    pub fn queued(id: u64, spec: JobSpec, dir: PathBuf) -> JobRecord {
        JobRecord {
            id,
            spec,
            dir,
            state: JobState::Queued,
            error: None,
            progress: JobProgress::default(),
            cancel: CancelToken::new(),
            run_started_us: None,
            steps_at_run_start: 0,
        }
    }

    /// Steps per wall-clock second of the current run attempt, measured
    /// on the pt-trace monotonic clock (`now_us` is passed in so this
    /// crate never reads a clock itself). `None` until the job is active
    /// and has committed at least one new step.
    pub fn steps_per_second(&self, now_us: u64) -> Option<f64> {
        let start = self.run_started_us?;
        if !self.state.is_active() {
            return None;
        }
        let done = self
            .progress
            .steps_done()
            .saturating_sub(self.steps_at_run_start);
        let dt = now_us.saturating_sub(start) as f64 / 1e6;
        (dt > 0.0 && done > 0).then(|| done as f64 / dt)
    }
}

/// Events jobs publish into the server's single-consumer pump.
#[derive(Debug)]
pub enum JobEvent {
    /// One committed step, with every column sample. `durable` reports
    /// whether a snapshot covering some earlier step already exists on
    /// disk (drives the `running → checkpointed` transition).
    Step {
        /// Job id.
        id: u64,
        /// Post-step time (a.u.).
        t: f64,
        /// `(column, value)` samples for this step.
        samples: Vec<(String, f64)>,
        /// Whether a durable snapshot exists for this job.
        durable: bool,
    },
    /// A resumed job republishing the steps restored from its snapshot
    /// (sent before any new [`JobEvent::Step`], so it *replaces* the
    /// job's progress), plus the implied `running → checkpointed` jump.
    Restored {
        /// Job id.
        id: u64,
        /// The restored prefix, already in column form.
        progress: JobProgress,
    },
    /// Terminal: result written.
    Finished {
        /// Job id.
        id: u64,
    },
    /// Terminal: error or panic.
    Failed {
        /// Job id.
        id: u64,
        /// Human-readable failure.
        error: String,
    },
    /// Terminal: cancellation honored.
    Cancelled {
        /// Job id.
        id: u64,
    },
    /// Tell the event pump to exit (sent by the shutdown path, never by a
    /// job).
    Stop,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_names_round_trip() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Checkpointed,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::parse(s.as_str()), Some(s.clone()));
            assert_eq!(
                s.is_terminal(),
                !matches!(
                    s,
                    JobState::Queued | JobState::Running | JobState::Checkpointed
                )
            );
        }
        assert_eq!(JobState::parse("nope"), None);
        assert!(JobState::Running.is_active());
        assert!(JobState::Checkpointed.is_active());
        assert!(!JobState::Queued.is_active());
        assert!(!JobState::Done.is_active());
    }

    #[test]
    fn progress_accumulates_columns() {
        let mut p = JobProgress::default();
        p.push_step(0.1, &[("energy".into(), -1.0), ("a_z".into(), 0.5)]);
        p.push_step(0.2, &[("energy".into(), -1.1), ("a_z".into(), 0.4)]);
        assert_eq!(p.steps_done(), 2);
        assert_eq!(p.channel("t"), Some(&[0.1, 0.2][..]));
        assert_eq!(p.channel("energy"), Some(&[-1.0, -1.1][..]));
        assert_eq!(p.channel("missing"), None);
        assert_eq!(p.channel_names(), vec!["t", "a_z", "energy"]);
    }

    #[test]
    fn a_nan_sample_keeps_its_row_in_progress_from_a_result_table() {
        let mut table = pt_io::Table::new();
        table.column("t", vec![0.1, 0.2, 0.3]).unwrap();
        table.column("energy", vec![-1.0, f64::NAN, -1.2]).unwrap();
        let p = JobProgress::from_table(&Json::parse(&table.to_json()).unwrap());
        assert_eq!(p.channel("t"), Some(&[0.1, 0.2, 0.3][..]));
        let energy = p.channel("energy").unwrap();
        assert_eq!(energy.len(), 3, "the NaN row vanished");
        assert!(energy[1].is_nan());
        assert_eq!((energy[0], energy[2]), (-1.0, -1.2));
    }
}
