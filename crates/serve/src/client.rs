//! Blocking client for the pt-serve protocol: submit, status, tail
//! (live-streaming), cancel, fetch, shutdown — one persistent connection,
//! any number of sequential requests.

use crate::hub::JobState;
use crate::protocol::{check_response, f64_column, read_frame, write_frame};
use crate::server::read_port_file;
use crate::spec::JobSpec;
use pt_ham::PtError;
use pt_io::Json;
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// One job's row in a `status` response.
#[derive(Clone, Debug)]
pub struct JobStatus {
    /// Server-assigned job id.
    pub id: u64,
    /// The spec's name.
    pub name: String,
    /// Current state-machine state.
    pub state: JobState,
    /// Steps streamed so far.
    pub steps_done: usize,
    /// Steps the spec asks for.
    pub steps: usize,
    /// Cores the job occupies while running.
    pub cores: usize,
    /// Steps per second of the current run attempt (active jobs that have
    /// committed at least one new step; `None` otherwise).
    pub steps_per_second: Option<f64>,
    /// Failure message, when failed.
    pub error: Option<String>,
}

/// One `tail` stream frame: the rows past the previous cursor.
#[derive(Clone, Debug)]
pub struct TailChunk {
    /// Absolute row index of the first entry.
    pub start: usize,
    /// Times of the new rows.
    pub t: Vec<f64>,
    /// Channel values of the new rows.
    pub values: Vec<f64>,
    /// Job state when the frame was cut.
    pub state: JobState,
}

/// One per-job row inside a [`StatsFrame`].
#[derive(Clone, Debug)]
pub struct JobRate {
    /// Job id.
    pub id: u64,
    /// Job state when the frame was cut (always an active state).
    pub state: JobState,
    /// Steps committed so far (including any restored prefix).
    pub steps_done: usize,
    /// Steps per second of the current run attempt (0 until the first
    /// new step lands).
    pub steps_per_second: f64,
}

/// One `stats` telemetry frame: a consistent snapshot of server
/// throughput, queue depth, and core utilization, with a row per active
/// job. All times come from the server's pt-trace monotonic clock.
#[derive(Clone, Debug)]
pub struct StatsFrame {
    /// Server monotonic timestamp (µs) when the frame was cut.
    pub t_us: u64,
    /// Jobs admitted but waiting for cores.
    pub queue_depth: usize,
    /// Cores currently handed out by the scheduler.
    pub cores_in_use: usize,
    /// Total cores the scheduler may hand out.
    pub budget_cores: usize,
    /// Committed steps across every job the server knows.
    pub steps_total: usize,
    /// Server-wide step throughput since the previous frame of this
    /// stream (0 on the first frame).
    pub steps_per_second: f64,
    /// Per-active-job step rates.
    pub jobs: Vec<JobRate>,
    /// Global pt-trace counter values by name — present only when the
    /// server was started with tracing armed.
    pub counters: Vec<(String, u64)>,
}

/// A connected pt-serve client.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to an explicit `host:port`.
    pub fn connect(addr: &str) -> Result<Client, PtError> {
        let stream = TcpStream::connect(addr).map_err(|e| PtError::Io {
            path: addr.to_string(),
            reason: format!("connecting: {e}"),
        })?;
        // request/response frames are small: never wait to coalesce them
        // (a socket that refuses the option still works, only slower)
        let _ = stream.set_nodelay(true);
        Ok(Client { stream })
    }

    /// Connect to the server that owns `run_dir` (via its port file).
    pub fn for_run_dir(run_dir: &Path) -> Result<Client, PtError> {
        Self::connect(&read_port_file(run_dir)?)
    }

    /// The next reply frame, checked; a connection closed in its place
    /// is a typed error naming `what` was in flight.
    fn reply(&mut self, what: &str) -> Result<Json, PtError> {
        let frame = read_frame(&mut self.stream)?.ok_or_else(|| PtError::Io {
            path: "<pt-serve socket>".into(),
            reason: format!("server closed the connection mid-{what}"),
        })?;
        check_response(frame)
    }

    fn request(&mut self, msg: &Json) -> Result<Json, PtError> {
        write_frame(&mut self.stream, msg)?;
        self.reply("request")
    }

    /// Submit a job; returns its server-assigned id. Never-fitting or
    /// malformed specs are refused here, with the server's typed message.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<u64, PtError> {
        let reply = self.request(&Json::Obj(vec![
            ("cmd".to_string(), Json::Str("submit".into())),
            ("spec".to_string(), spec.to_value()),
        ]))?;
        reply
            .get("job")
            .and_then(Json::as_u64)
            .ok_or_else(|| PtError::InvalidConfig("malformed submit response".into()))
    }

    /// All jobs the server knows, in id order.
    pub fn status(&mut self) -> Result<Vec<JobStatus>, PtError> {
        let reply = self.request(&Json::Obj(vec![(
            "cmd".to_string(),
            Json::Str("status".into()),
        )]))?;
        let jobs = reply
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or_else(|| PtError::InvalidConfig("malformed status response".into()))?;
        jobs.iter()
            .map(|j| {
                let field = |k: &str| j.get(k).and_then(Json::as_u64);
                let state = j
                    .get("state")
                    .and_then(Json::as_str)
                    .and_then(JobState::parse);
                match (field("id"), state) {
                    (Some(id), Some(state)) => Ok(JobStatus {
                        id,
                        name: j
                            .get("name")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string(),
                        state,
                        steps_done: field("steps_done").unwrap_or(0) as usize,
                        steps: field("steps").unwrap_or(0) as usize,
                        cores: field("cores").unwrap_or(0) as usize,
                        steps_per_second: j.get("steps_per_second").and_then(Json::as_f64),
                        error: j.get("error").and_then(Json::as_str).map(str::to_string),
                    }),
                    _ => Err(PtError::InvalidConfig(
                        "malformed job row in status response".into(),
                    )),
                }
            })
            .collect()
    }

    /// Request cancellation; returns the job's state as of the request
    /// (a running job turns `cancelled` at its next step boundary).
    pub fn cancel(&mut self, job: u64) -> Result<JobState, PtError> {
        let reply = self.request(&Json::Obj(vec![
            ("cmd".to_string(), Json::Str("cancel".into())),
            ("job".to_string(), Json::Num(job as f64)),
        ]))?;
        reply
            .get("state")
            .and_then(Json::as_str)
            .and_then(JobState::parse)
            .ok_or_else(|| PtError::InvalidConfig("malformed cancel response".into()))
    }

    /// Fetch a done job's full result table (the parsed `result.json`:
    /// meta keys, `n_rows`, and `columns` of exact shortest-round-trip
    /// floats).
    pub fn fetch(&mut self, job: u64) -> Result<Json, PtError> {
        let reply = self.request(&Json::Obj(vec![
            ("cmd".to_string(), Json::Str("fetch".into())),
            ("job".to_string(), Json::Num(job as f64)),
        ]))?;
        reply
            .get("table")
            .cloned()
            .ok_or_else(|| PtError::InvalidConfig("malformed fetch response".into()))
    }

    /// A column from a fetched table (see [`Client::fetch`]). A
    /// non-finite sample, stored as `null`, comes back as NaN in its row.
    pub fn table_column(table: &Json, name: &str) -> Option<Vec<f64>> {
        f64_column(table.get("columns")?.get(name)?)
    }

    /// Stream one channel of a job, starting `after` rows in. Each
    /// server frame is handed to `on_chunk`; with `follow` the stream
    /// runs until the job is terminal. Returns the job's final state.
    pub fn tail(
        &mut self,
        job: u64,
        channel: &str,
        after: usize,
        follow: bool,
        mut on_chunk: impl FnMut(&TailChunk),
    ) -> Result<JobState, PtError> {
        write_frame(
            &mut self.stream,
            &Json::Obj(vec![
                ("cmd".to_string(), Json::Str("tail".into())),
                ("job".to_string(), Json::Num(job as f64)),
                ("channel".to_string(), Json::Str(channel.to_string())),
                ("after".to_string(), Json::Num(after as f64)),
                ("follow".to_string(), Json::Bool(follow)),
            ]),
        )?;
        loop {
            let frame = self.reply("tail")?;
            let malformed = || PtError::InvalidConfig("malformed tail frame".into());
            let nums = |k: &str| frame.get(k).and_then(f64_column).ok_or_else(malformed);
            let state = frame
                .get("state")
                .and_then(Json::as_str)
                .and_then(JobState::parse)
                .ok_or_else(malformed)?;
            on_chunk(&TailChunk {
                start: frame.get("start").and_then(Json::as_u64).unwrap_or(0) as usize,
                t: nums("t")?,
                values: nums("values")?,
                state: state.clone(),
            });
            if frame.get("done").and_then(Json::as_bool) == Some(true) {
                return Ok(state);
            }
        }
    }

    /// Stream server telemetry. Each frame is handed to `on_frame`; with
    /// `follow` the stream runs until every job is terminal (a frame goes
    /// out whenever total committed steps advance), without it exactly
    /// one frame arrives. Returning `false` from `on_frame` stops
    /// reading early — the stream is then mid-flight, which is why this
    /// method consumes the client (`self`): the connection cannot be
    /// reused for further requests.
    pub fn stats(
        mut self,
        follow: bool,
        mut on_frame: impl FnMut(&StatsFrame) -> bool,
    ) -> Result<(), PtError> {
        write_frame(
            &mut self.stream,
            &Json::Obj(vec![
                ("cmd".to_string(), Json::Str("stats".into())),
                ("follow".to_string(), Json::Bool(follow)),
            ]),
        )?;
        loop {
            let frame = self.reply("stats")?;
            let int = |k: &str| frame.get(k).and_then(Json::as_u64).unwrap_or(0);
            let jobs = frame
                .get("jobs")
                .and_then(Json::as_arr)
                .map(|rows| {
                    rows.iter()
                        .filter_map(|r| {
                            Some(JobRate {
                                id: r.get("id").and_then(Json::as_u64)?,
                                state: JobState::parse(r.get("state").and_then(Json::as_str)?)?,
                                steps_done: r.get("steps_done").and_then(Json::as_u64)? as usize,
                                steps_per_second: r
                                    .get("steps_per_second")
                                    .and_then(Json::as_f64)
                                    .unwrap_or(0.0),
                            })
                        })
                        .collect()
                })
                .unwrap_or_default();
            let counters = frame
                .get("counters")
                .and_then(Json::as_obj)
                .map(|pairs| {
                    pairs
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                        .collect()
                })
                .unwrap_or_default();
            let parsed = StatsFrame {
                t_us: int("t_us"),
                queue_depth: int("queue_depth") as usize,
                cores_in_use: int("cores_in_use") as usize,
                budget_cores: int("budget_cores") as usize,
                steps_total: int("steps_total") as usize,
                steps_per_second: frame
                    .get("steps_per_second")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                jobs,
                counters,
            };
            let keep_going = on_frame(&parsed);
            if !keep_going || frame.get("done").and_then(Json::as_bool) == Some(true) {
                return Ok(());
            }
        }
    }

    /// Ask the server to shut down (it drains: running jobs finish).
    pub fn shutdown(&mut self) -> Result<(), PtError> {
        self.request(&Json::Obj(vec![(
            "cmd".to_string(),
            Json::Str("shutdown".into()),
        )]))
        .map(|_| ())
    }

    /// Poll `status` until `job` reaches a terminal state (or `timeout`
    /// elapses — a typed error, so tests fail loudly instead of hanging).
    pub fn wait_terminal(&mut self, job: u64, timeout: Duration) -> Result<JobStatus, PtError> {
        let start = std::time::Instant::now();
        loop {
            let all = self.status()?;
            if let Some(row) = all.into_iter().find(|r| r.id == job) {
                if row.state.is_terminal() {
                    return Ok(row);
                }
            } else {
                return Err(PtError::InvalidConfig(format!("unknown job {job}")));
            }
            if start.elapsed() > timeout {
                return Err(PtError::InvalidConfig(format!(
                    "job {job} still not terminal after {timeout:?}"
                )));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_nan_sample_keeps_its_row_in_a_fetched_column() {
        let mut table = pt_io::Table::new();
        table.column("t", vec![0.1, 0.2, 0.3]).unwrap();
        table.column("energy", vec![-1.0, f64::NAN, -1.2]).unwrap();
        let fetched = Json::parse(&table.to_json()).unwrap();
        let energy = Client::table_column(&fetched, "energy").unwrap();
        assert_eq!(energy.len(), 3, "the NaN row vanished");
        assert!(energy[1].is_nan());
        assert_eq!((energy[0], energy[2]), (-1.0, -1.2));
        assert_eq!(Client::table_column(&fetched, "missing"), None);
        // an entry that is neither a number nor `null` spoils the column
        // instead of silently shortening it
        let bad = Json::parse(r#"{"columns": {"x": [1, "2"]}}"#).unwrap();
        assert_eq!(Client::table_column(&bad, "x"), None);
    }
}
