//! The pt-serve server: accept loop, core-packing admission, supervised
//! job runners, the event pump, and crash recovery.
//!
//! # Run-directory layout
//!
//! ```text
//! <run_dir>/port                      "127.0.0.1:<port>" (rewritten on start)
//! <run_dir>/jobs/job_00000003/
//!     spec.json                       the submitted JobSpec, verbatim
//!     ckpt_<step>.ptio                rolling snapshots (pt-io container)
//!     result.json                     final series table — written atomically,
//!                                     so its existence IS the "done" marker
//!     cancelled | failed              terminal markers for the other exits
//! ```
//!
//! # Crash durability
//!
//! Nothing the server knows lives only in memory: specs, snapshots and
//! terminal markers are all on disk, every one written atomically
//! (tmp + rename) or CRC-verified on read (snapshots). On startup the
//! server rescans `jobs/`: finished/failed/cancelled jobs are rehydrated
//! into their terminal states and every other job is re-enqueued; when its
//! runner starts it resumes from the newest *valid* snapshot
//! ([`Simulation::resume_latest`] skips truncated or corrupt files with
//! typed errors) or from scratch if none survived. A `kill -9` mid-fleet
//! therefore costs at most `checkpoint_every` steps per job and zero
//! bits of the final series.
//!
//! # Threads
//!
//! One listener (accept loop), one connection handler per client, one
//! supervised runner per running job, and one event pump. Runners never
//! touch the state lock mid-step: they publish [`JobEvent`]s over an mpsc
//! fan-in and the pump is the only writer of job progress. Runner panics
//! are caught by the supervisor and become typed `failed` states, not a
//! dead server.

use crate::hub::{JobEvent, JobProgress, JobRecord, JobState};
use crate::protocol::{error_response, ok_response, read_frame, write_frame};
use crate::scheduler::CorePackingScheduler;
use crate::spec::JobSpec;
use pt_core::Simulation;
use pt_ham::PtError;
use pt_io::Json;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Root of the durable run state (created if missing).
    pub run_dir: PathBuf,
    /// Total cores the scheduler may hand out concurrently.
    pub budget_cores: usize,
    /// Bind address; the default `127.0.0.1:0` picks a free port.
    pub addr: String,
    /// Arm pt-trace for the whole process: jobs export `trace.json`
    /// (Chrome trace-event format) and `metrics.json` (per-step phase
    /// breakdown + counter deltas) into their job directories, and the
    /// `stats` stream carries live counter values. Off by default —
    /// tracing is bit-non-perturbing but not free.
    pub trace: bool,
}

impl ServerConfig {
    /// A loopback server over `run_dir` with the given core budget.
    pub fn new(run_dir: impl Into<PathBuf>, budget_cores: usize) -> Self {
        ServerConfig {
            run_dir: run_dir.into(),
            budget_cores,
            addr: "127.0.0.1:0".into(),
            trace: false,
        }
    }

    /// Enable per-job trace/metrics export and live counter telemetry.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// The port file a started server maintains under its run dir, so
/// clients (and the CLI) can find it by directory alone.
pub fn port_file(run_dir: &Path) -> PathBuf {
    run_dir.join("port")
}

/// Read the address a server under `run_dir` is listening on.
pub fn read_port_file(run_dir: &Path) -> Result<String, PtError> {
    let path = port_file(run_dir);
    let text = std::fs::read_to_string(&path).map_err(|e| PtError::Io {
        path: path.display().to_string(),
        reason: format!("reading server port file: {e}"),
    })?;
    Ok(text.trim().to_string())
}

fn io_err(path: &Path, what: &str, e: &std::io::Error) -> PtError {
    PtError::Io {
        path: path.display().to_string(),
        reason: format!("{what}: {e}"),
    }
}

/// Write `text` to `path` atomically (tmp + rename), so readers — and
/// the recovery scan — never observe a half-written file.
fn write_atomic(path: &Path, text: &str) -> Result<(), PtError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text).map_err(|e| io_err(&tmp, "writing", &e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, "renaming into place", &e))
}

struct ServerState {
    scheduler: CorePackingScheduler,
    jobs: BTreeMap<u64, JobRecord>,
    next_id: u64,
}

struct Shared {
    state: Mutex<ServerState>,
    /// Notified on every job state/progress change (long-poll waiters).
    cv: Condvar,
    /// Cloned into each runner.
    events: Sender<JobEvent>,
    /// Signals the owner that a client requested shutdown.
    shutdown_req: Sender<()>,
    runners: Mutex<Vec<JoinHandle<()>>>,
    stop: AtomicBool,
    jobs_dir: PathBuf,
}

impl Shared {
    fn lock_state(&self) -> MutexGuard<'_, ServerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A started server: owns its threads, exposes the bound address, and
/// tears everything down (draining jobs) on [`ServerHandle::stop`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener_join: Option<JoinHandle<()>>,
    pump_join: Option<JoinHandle<()>>,
    shutdown_rx: Receiver<()>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until some client sends the `shutdown` command (the server
    /// binary's main thread parks here).
    pub fn wait_for_shutdown_request(&self) {
        let _ = self.shutdown_rx.recv();
    }

    /// Stop accepting connections, let every admitted job run to a
    /// terminal state (drain), then stop the pump and join all threads.
    pub fn stop(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // wake the accept loop with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        if let Some(j) = self.listener_join.take() {
            let _ = j.join();
        }
        // drain: runners finishing make the pump start queued jobs, which
        // pushes new handles — loop until no handles AND no live jobs
        loop {
            let handles: Vec<JoinHandle<()>> = {
                let mut r = self
                    .shared
                    .runners
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                r.drain(..).collect()
            };
            if handles.is_empty() {
                let busy = {
                    let st = self.shared.lock_state();
                    st.jobs.values().any(|j| !j.state.is_terminal())
                };
                if !busy {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        let _ = self.shared.events.send(JobEvent::Stop);
        if let Some(j) = self.pump_join.take() {
            let _ = j.join();
        }
    }
}

/// Start a server. Recovers any jobs found under `run_dir/jobs` (terminal
/// jobs rehydrate; interrupted jobs re-enqueue and auto-resume), binds the
/// listener, writes the port file and spawns the worker threads.
pub fn start(config: ServerConfig) -> Result<ServerHandle, PtError> {
    if config.trace {
        pt_trace::set_enabled(true);
    }
    let jobs_dir = config.run_dir.join("jobs");
    std::fs::create_dir_all(&jobs_dir).map_err(|e| io_err(&jobs_dir, "creating", &e))?;
    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| io_err(Path::new(&config.addr), "binding", &e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| io_err(Path::new(&config.addr), "querying bound address", &e))?;
    write_atomic(&port_file(&config.run_dir), &addr.to_string())?;

    let mut state = ServerState {
        scheduler: CorePackingScheduler::new(config.budget_cores)?,
        jobs: BTreeMap::new(),
        next_id: 0,
    };
    recover_jobs(&jobs_dir, &mut state);

    let (tx, rx) = channel::<JobEvent>();
    let (sd_tx, sd_rx) = channel::<()>();
    let shared = Arc::new(Shared {
        state: Mutex::new(state),
        cv: Condvar::new(),
        events: tx,
        shutdown_req: sd_tx,
        runners: Mutex::new(Vec::new()),
        stop: AtomicBool::new(false),
        jobs_dir,
    });

    // start whatever the recovered queue allows right away
    kick(&shared);

    let pump_shared = shared.clone();
    #[expect(
        clippy::disallowed_methods,
        reason = "event-pump infrastructure thread: drains the mpsc fan-in, touches no numeric state; compute stays on pt-par/pt-mpi inside runners"
    )]
    let pump_join = std::thread::spawn(move || pump(&pump_shared, &rx));
    let listen_shared = shared.clone();
    #[expect(
        clippy::disallowed_methods,
        reason = "TCP accept-loop infrastructure thread; blocks on the listener, runs no simulation code"
    )]
    let listener_join = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if listen_shared.stop.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = conn else { continue };
            // as in `Client::connect`: small frames, never coalesced
            let _ = stream.set_nodelay(true);
            let conn_shared = listen_shared.clone();
            #[expect(
                clippy::disallowed_methods,
                reason = "one IO thread per client connection (blocking protocol reads); determinism contract is untouched, job compute happens in runners"
            )]
            std::thread::spawn(move || handle_conn(&conn_shared, stream));
        }
    });

    Ok(ServerHandle {
        addr,
        shared,
        listener_join: Some(listener_join),
        pump_join: Some(pump_join),
        shutdown_rx: sd_rx,
    })
}

/// Rescan `jobs/` after a restart (or a crash): every job directory is
/// classified by its durable markers and either rehydrated into a
/// terminal state or re-enqueued for auto-resume. A job whose spec cannot
/// be read back, or that no longer fits the (possibly re-configured)
/// budget, is recorded as failed — visibly, never silently dropped.
fn recover_jobs(jobs_dir: &Path, state: &mut ServerState) {
    let Ok(entries) = std::fs::read_dir(jobs_dir) else {
        return;
    };
    let mut dirs: Vec<(u64, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let id: u64 = name.strip_prefix("job_")?.parse().ok()?;
            e.file_type().ok()?.is_dir().then(|| (id, e.path()))
        })
        .collect();
    dirs.sort();
    for (id, dir) in dirs {
        state.next_id = state.next_id.max(id + 1);
        let spec_path = dir.join("spec.json");
        let spec = std::fs::read_to_string(&spec_path)
            .map_err(|e| io_err(&spec_path, "reading job spec", &e))
            .and_then(|text| JobSpec::from_json(&text));
        let mut record = match spec {
            Ok(spec) => JobRecord::queued(id, spec, dir.clone()),
            Err(e) => {
                // keep the slot visible: the directory exists, so the job
                // existed — surfacing "failed: unreadable spec" beats
                // resurrecting nothing
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: the placeholder spec literal is valid JSON"
                )]
                let mut spec = JobSpec::from_json(
                    r#"{"name":"<unreadable>","system":{"ecut":1.0},"dt_as":1.0,"steps":1}"#,
                )
                .expect("invariant");
                spec.name = format!("job_{id:08}");
                let mut record = JobRecord::queued(id, spec, dir);
                record.state = JobState::Failed;
                record.error = Some(format!("recovery: {e}"));
                state.jobs.insert(id, record);
                continue;
            }
        };
        if dir.join("result.json").exists() {
            record.state = JobState::Done;
            // reload the streamed columns so `tail` keeps working across
            // restarts; an unreadable table still leaves the job done
            if let Ok(table) = read_result(&dir) {
                record.progress = JobProgress::from_table(&table);
            }
        } else if dir.join("cancelled").exists() {
            record.state = JobState::Cancelled;
        } else if let Ok(msg) = std::fs::read_to_string(dir.join("failed")) {
            record.state = JobState::Failed;
            record.error = Some(msg);
        } else if let Err(e) = state.scheduler.admit(id, record.spec.cores()) {
            record.state = JobState::Failed;
            record.error = Some(e.to_string());
        }
        state.jobs.insert(id, record);
    }
}

/// A done job's `result.json`, parsed.
fn read_result(dir: &Path) -> Result<Json, PtError> {
    let path = dir.join("result.json");
    let text = std::fs::read_to_string(&path).map_err(|e| io_err(&path, "reading result", &e))?;
    Json::parse(&text)
}

/// Start what fits: every job `start_batch` releases turns running, with
/// its run clock and step baseline reset. Returns the ids whose runners
/// the caller spawns once the state lock is released.
fn dispatch(st: &mut ServerState) -> Vec<u64> {
    let _sp = pt_trace::span("sched_dispatch");
    let batch = st.scheduler.start_batch();
    for &(id, _) in &batch {
        if let Some(j) = st.jobs.get_mut(&id) {
            j.state = JobState::Running;
            j.run_started_us = Some(pt_trace::monotonic_us());
            j.steps_at_run_start = j.progress.steps_done();
        }
        pt_trace::counter_add(pt_trace::Counter::SchedDispatches, 1);
    }
    batch.into_iter().map(|(id, _)| id).collect()
}

/// [`dispatch`] under the lock, then wake waiters and spawn a supervised
/// runner for every job it released.
fn kick(shared: &Arc<Shared>) {
    let to_start = dispatch(&mut shared.lock_state());
    shared.cv.notify_all();
    for id in to_start {
        spawn_runner(shared, id);
    }
}

/// Spawn the supervised runner thread for job `id`: the job body runs
/// under `catch_unwind`, so a panicking propagator (or any bug below us)
/// becomes a typed `failed` job with the panic text as its error — the
/// server itself never goes down with a job.
fn spawn_runner(shared: &Arc<Shared>, id: u64) {
    let runner_shared = shared.clone();
    let tx = shared.events.clone();
    #[expect(
        clippy::disallowed_methods,
        reason = "per-job supervisor thread (catch_unwind boundary); the simulation inside it draws all compute threads from its pinned pt-par/pt-mpi layout"
    )]
    let handle = std::thread::spawn(move || {
        let dir = {
            let st = runner_shared.lock_state();
            st.jobs.get(&id).map(|j| j.dir.clone())
        };
        let Some(dir) = dir else { return };
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(&runner_shared, id, &tx)));
        let event = match outcome {
            Ok(Ok(())) => JobEvent::Finished { id },
            Ok(Err(PtError::Cancelled { .. })) => {
                let _ = write_atomic(&dir.join("cancelled"), "cancelled\n");
                JobEvent::Cancelled { id }
            }
            Ok(Err(e)) => {
                let msg = e.to_string();
                let _ = write_atomic(&dir.join("failed"), &msg);
                JobEvent::Failed { id, error: msg }
            }
            Err(panic) => {
                let msg = format!("job panicked: {}", panic_text(panic.as_ref()));
                let _ = write_atomic(&dir.join("failed"), &msg);
                JobEvent::Failed { id, error: msg }
            }
        };
        let _ = tx.send(event);
    });
    shared
        .runners
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(handle);
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The job body: build the system, auto-resume from the newest valid
/// snapshot (or start fresh), re-arm checkpointing and cancellation,
/// stream every step through the tap, and atomically publish the final
/// series as `result.json`.
fn run_job(shared: &Arc<Shared>, id: u64, tx: &Sender<JobEvent>) -> Result<(), PtError> {
    let (spec, dir, cancel) = {
        let st = shared.lock_state();
        let j = st
            .jobs
            .get(&id)
            .ok_or_else(|| PtError::InvalidConfig(format!("job {id} vanished before start")))?;
        (j.spec.clone(), j.dir.clone(), j.cancel.clone())
    };
    // window the global event/counter streams to this job: everything
    // recorded past the mark is attributed to it on export. Concurrent
    // jobs interleave into one process-wide trace — the per-thread lanes
    // (`pt-par-*`, `pt-rank-*`) keep the picture readable regardless.
    let trace_mark = pt_trace::is_enabled().then(pt_trace::mark);
    let sys = spec.build_system()?;
    let builder = match Simulation::resume_latest(&sys, &dir)? {
        Some(builder) => builder,
        None => spec.fresh_builder(&sys)?,
    };
    let resumed = builder.restored_series().is_some();
    if let Some(series) = builder.restored_series() {
        // through the result table, so the restored prefix serves
        // exactly what a rehydrated `result.json` would
        let table = Json::parse(&series.to_table()?.to_json())?;
        let progress = JobProgress::from_table(&table);
        let _ = tx.send(JobEvent::Restored { id, progress });
    }
    let every = spec.checkpoint_every;
    let tap_tx = tx.clone();
    let mut sim = builder
        .checkpoint_every(every, &dir)
        .cancel_token(cancel)
        .step_tap(move |u| {
            // a snapshot of an *earlier* step is on disk once we've passed
            // the first checkpoint boundary (or restored from one)
            let durable = resumed || u.step_index >= every;
            let _ = tap_tx.send(JobEvent::Step {
                id,
                t: u.t,
                samples: u.columns(),
                durable,
            });
        })
        .build()?;
    let series = sim.run()?;
    let table = series.to_table()?;
    write_atomic(&dir.join("result.json"), &table.to_json())?;
    if let Some(mark) = trace_mark {
        write_trace_artifacts(id, &dir, &series, &mark)?;
    }
    Ok(())
}

/// Export the job's observability artifacts next to its result:
/// `trace.json` (Chrome trace-event format — load it in `about:tracing`
/// or Perfetto) and `metrics.json` (the per-step phase breakdown from
/// [`pt_core::TimeSeries::phase_table`] plus the pt-trace counter deltas
/// accumulated since the job's mark). Deliberately separate files from
/// `result.json`: results are bit-compared across layouts and resume,
/// telemetry never is.
fn write_trace_artifacts(
    id: u64,
    dir: &Path,
    series: &pt_core::TimeSeries,
    mark: &pt_trace::Mark,
) -> Result<(), PtError> {
    write_atomic(&dir.join("trace.json"), &pt_trace::chrome_trace_since(mark))?;
    let phases = Json::parse(&series.phase_table()?.to_json())?;
    let counters = Json::Obj(
        pt_trace::counters_since(mark)
            .iter()
            .map(|(name, v)| (name.to_string(), Json::Num(v as f64)))
            .collect(),
    );
    let metrics = Json::Obj(vec![
        ("job".to_string(), Json::Num(id as f64)),
        ("phases".to_string(), phases),
        ("counters".to_string(), counters),
        (
            "dropped_events".to_string(),
            Json::Num(pt_trace::dropped_events() as f64),
        ),
    ]);
    write_atomic(&dir.join("metrics.json"), &metrics.dump())
}

/// The single consumer of the job-event fan-in: applies each event to the
/// shared state, wakes tail waiters, and starts newly-fitting jobs when
/// cores drain.
fn pump(shared: &Arc<Shared>, rx: &Receiver<JobEvent>) {
    while let Ok(ev) = rx.recv() {
        let to_start = {
            let mut st = shared.lock_state();
            match ev {
                JobEvent::Stop => break,
                JobEvent::Step {
                    id,
                    t,
                    samples,
                    durable,
                } => {
                    if let Some(j) = st.jobs.get_mut(&id) {
                        if j.state.is_active() {
                            j.progress.push_step(t, &samples);
                            if durable && j.state == JobState::Running {
                                j.state = JobState::Checkpointed;
                            }
                        }
                    }
                    Vec::new()
                }
                JobEvent::Restored { id, progress } => {
                    if let Some(j) = st.jobs.get_mut(&id) {
                        if j.state.is_active() {
                            j.progress = progress;
                            j.state = JobState::Checkpointed;
                            // restored steps were not computed this run —
                            // keep them out of the live step rate
                            j.steps_at_run_start = j.progress.steps_done();
                        }
                    }
                    Vec::new()
                }
                JobEvent::Finished { id } => settle(&mut st, id, JobState::Done, None),
                JobEvent::Failed { id, error } => {
                    settle(&mut st, id, JobState::Failed, Some(error))
                }
                JobEvent::Cancelled { id } => settle(&mut st, id, JobState::Cancelled, None),
            }
        };
        shared.cv.notify_all();
        for id in to_start {
            spawn_runner(shared, id);
        }
    }
}

/// Move a job to a terminal state, return its cores and [`dispatch`]
/// whatever now fits.
fn settle(st: &mut ServerState, id: u64, terminal: JobState, error: Option<String>) -> Vec<u64> {
    let active_cores = st
        .jobs
        .get(&id)
        .filter(|j| j.state.is_active())
        .map(|j| j.spec.cores());
    if let Some(cores) = active_cores {
        st.scheduler.release(cores);
    }
    if let Some(j) = st.jobs.get_mut(&id) {
        j.state = terminal;
        j.error = error;
    }
    dispatch(st)
}

/// One client connection: a loop of length-prefixed requests. Exits on
/// clean EOF, protocol error, or `shutdown`.
fn handle_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    loop {
        let msg = match read_frame(&mut stream) {
            Ok(Some(m)) => m,
            Ok(None) | Err(_) => return,
        };
        let cmd = msg.get("cmd").and_then(Json::as_str).unwrap_or("");
        let sent = match cmd {
            "submit" => respond(&mut stream, handle_submit(shared, &msg)),
            "status" => respond(&mut stream, Ok(handle_status(shared))),
            "tail" => handle_tail(shared, &mut stream, &msg),
            "stats" => handle_stats(shared, &mut stream, &msg),
            "cancel" => respond(&mut stream, handle_cancel(shared, &msg)),
            "fetch" => respond(&mut stream, handle_fetch(shared, &msg)),
            "shutdown" => {
                let _ = respond(&mut stream, Ok(ok_response(vec![])));
                let _ = shared.shutdown_req.send(());
                return;
            }
            other => respond(
                &mut stream,
                Err(PtError::InvalidConfig(format!("unknown command '{other}'"))),
            ),
        };
        if sent.is_err() {
            return; // peer went away mid-response
        }
    }
}

/// Write either the handler's response or its error as one frame.
fn respond(stream: &mut TcpStream, result: Result<Json, PtError>) -> Result<(), PtError> {
    let frame = match result {
        Ok(msg) => msg,
        Err(e) => error_response(&e.to_string()),
    };
    write_frame(stream, &frame)
}

fn job_id_of(msg: &Json) -> Result<u64, PtError> {
    msg.get("job")
        .and_then(Json::as_u64)
        .ok_or_else(|| PtError::InvalidConfig("'job' (integer) is required".into()))
}

fn handle_submit(shared: &Arc<Shared>, msg: &Json) -> Result<Json, PtError> {
    if shared.stop.load(Ordering::Acquire) {
        return Err(PtError::InvalidConfig("server is shutting down".into()));
    }
    let spec_value = msg
        .get("spec")
        .ok_or_else(|| PtError::InvalidConfig("'spec' (object) is required".into()))?;
    let spec = JobSpec::from_value(spec_value)?;
    spec.validate()?;
    let id = {
        let mut st = shared.lock_state();
        let id = st.next_id;
        // admission can reject (never-fits) — do it before anything
        // touches the disk or the id counter
        st.scheduler.admit(id, spec.cores())?;
        st.next_id += 1;
        let dir = shared.jobs_dir.join(format!("job_{id:08}"));
        if let Err(e) = std::fs::create_dir_all(&dir)
            .map_err(|e| io_err(&dir, "creating job dir", &e))
            .and_then(|()| write_atomic(&dir.join("spec.json"), &spec.to_json()))
        {
            st.scheduler.withdraw(id);
            return Err(e);
        }
        st.jobs.insert(id, JobRecord::queued(id, spec, dir));
        id
    };
    kick(shared);
    Ok(ok_response(vec![("job".to_string(), Json::Num(id as f64))]))
}

fn handle_status(shared: &Arc<Shared>) -> Json {
    let now_us = pt_trace::monotonic_us();
    let st = shared.lock_state();
    let jobs: Vec<Json> = st
        .jobs
        .values()
        .map(|j| {
            let mut pairs = vec![
                ("id".to_string(), Json::Num(j.id as f64)),
                ("name".to_string(), Json::Str(j.spec.name.clone())),
                ("state".to_string(), Json::Str(j.state.as_str().to_string())),
                (
                    "steps_done".to_string(),
                    Json::Num(j.progress.steps_done() as f64),
                ),
                ("steps".to_string(), Json::Num(j.spec.steps as f64)),
                ("cores".to_string(), Json::Num(j.spec.cores() as f64)),
            ];
            if let Some(rate) = j.steps_per_second(now_us) {
                pairs.push(("steps_per_second".to_string(), Json::Num(rate)));
            }
            if let Some(e) = &j.error {
                pairs.push(("error".to_string(), Json::Str(e.clone())));
            }
            Json::Obj(pairs)
        })
        .collect();
    let scheduler = Json::Obj(vec![
        (
            "budget_cores".to_string(),
            Json::Num(st.scheduler.budget() as f64),
        ),
        (
            "cores_in_use".to_string(),
            Json::Num(st.scheduler.in_use() as f64),
        ),
        (
            "queued".to_string(),
            Json::Num(st.scheduler.queued() as f64),
        ),
    ]);
    ok_response(vec![
        ("jobs".to_string(), Json::Arr(jobs)),
        ("scheduler".to_string(), scheduler),
    ])
}

fn handle_cancel(shared: &Arc<Shared>, msg: &Json) -> Result<Json, PtError> {
    let id = job_id_of(msg)?;
    let (state, marker_dir) = {
        let mut st = shared.lock_state();
        let Some(before) = st.jobs.get(&id).map(|j| j.state.clone()) else {
            return Err(PtError::InvalidConfig(format!("unknown job {id}")));
        };
        match before {
            JobState::Queued => {
                st.scheduler.withdraw(id);
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: presence of id was checked above"
                )]
                let j = st.jobs.get_mut(&id).expect("invariant");
                j.state = JobState::Cancelled;
                (JobState::Cancelled, Some(j.dir.clone()))
            }
            JobState::Running | JobState::Checkpointed => {
                // cooperative: the time loop honors it at the next step
                // boundary and writes a final snapshot first
                st.jobs[&id].cancel.cancel();
                (before, None)
            }
            terminal => (terminal, None),
        }
    };
    if let Some(dir) = marker_dir {
        let _ = write_atomic(&dir.join("cancelled"), "cancelled\n");
    }
    shared.cv.notify_all();
    kick(shared); // a withdrawn queue head may unblock others
    Ok(ok_response(vec![(
        "state".to_string(),
        Json::Str(state.as_str().to_string()),
    )]))
}

fn handle_fetch(shared: &Arc<Shared>, msg: &Json) -> Result<Json, PtError> {
    let id = job_id_of(msg)?;
    let (state, dir) = {
        let st = shared.lock_state();
        let Some(j) = st.jobs.get(&id) else {
            return Err(PtError::InvalidConfig(format!("unknown job {id}")));
        };
        (j.state.clone(), j.dir.clone())
    };
    if state != JobState::Done {
        return Err(PtError::InvalidConfig(format!(
            "job {id} is {}; results exist only for done jobs",
            state.as_str()
        )));
    }
    Ok(ok_response(vec![("table".to_string(), read_result(&dir)?)]))
}

/// The condvar long-poll behind both streaming commands. `next` looks at
/// the state under the lock and returns the next frame with whether it
/// ends the stream, an error that ends it, or `None` to wait — woken by
/// every job change, re-checked at least every 200 ms. Frames are written
/// with the lock released.
fn long_poll(
    shared: &Shared,
    stream: &mut TcpStream,
    mut next: impl FnMut(&ServerState) -> Option<Result<(Json, bool), PtError>>,
) -> Result<(), PtError> {
    loop {
        let polled = {
            let mut st = shared.lock_state();
            loop {
                if let Some(polled) = next(&st) {
                    break polled;
                }
                st = shared
                    .cv
                    .wait_timeout(st, Duration::from_millis(200))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        let (frame, done) = match polled {
            Ok(frame) => frame,
            Err(e) => return respond(stream, Err(e)),
        };
        write_frame(stream, &frame)?;
        if done {
            return Ok(());
        }
    }
}

/// `cmd: "tail"`. Each frame carries the rows past the client's cursor
/// for one channel; with `follow: true` the stream waits for more until
/// the job is terminal.
fn handle_tail(shared: &Shared, stream: &mut TcpStream, msg: &Json) -> Result<(), PtError> {
    let id = match job_id_of(msg) {
        Ok(id) => id,
        Err(e) => return respond(stream, Err(e)),
    };
    let channel = msg.get("channel").and_then(Json::as_str).unwrap_or("t");
    let mut cursor = msg.get("after").and_then(Json::as_u64).unwrap_or(0) as usize;
    let follow = msg.get("follow").and_then(Json::as_bool).unwrap_or(false);
    long_poll(shared, stream, |st| {
        let Some(j) = st.jobs.get(&id) else {
            return Some(Err(PtError::InvalidConfig(format!("unknown job {id}"))));
        };
        let n = j.progress.steps_done();
        let terminal = j.state.is_terminal();
        if n <= cursor && !terminal && follow {
            return None;
        }
        let col = j.progress.channel(channel);
        if col.is_none() && n > 0 && channel != "t" {
            return Some(Err(PtError::InvalidConfig(format!(
                "job {id} has no channel '{channel}' (available: {})",
                j.progress.channel_names().join(", ")
            ))));
        }
        let (start, hi) = (cursor, n.max(cursor));
        cursor = hi;
        let rows = |v: &[f64]| {
            let rows = v.get(start..hi.min(v.len())).unwrap_or(&[]);
            Json::Arr(rows.iter().map(|&x| Json::Num(x)).collect())
        };
        let done = terminal || !follow;
        let frame = ok_response(vec![
            ("start".to_string(), Json::Num(start as f64)),
            ("t".to_string(), rows(&j.progress.t)),
            ("values".to_string(), rows(col.unwrap_or(&[]))),
            ("state".to_string(), Json::Str(j.state.as_str().to_string())),
            ("done".to_string(), Json::Bool(done)),
        ]);
        Some(Ok((frame, done)))
    })
}

/// The live telemetry stream (`cmd: "stats"`): server-wide throughput,
/// queue depth and core utilization, plus a per-active-job step rate —
/// all timestamped on the pt-trace monotonic clock. With `follow: true`
/// a frame goes out whenever total committed steps advance, until every
/// job is terminal; without it, exactly one frame. When tracing is armed
/// the frame also carries the global counter values (FFT batches, pair
/// FFTs, wire bytes, …) so a dashboard can difference them.
fn handle_stats(shared: &Shared, stream: &mut TcpStream, msg: &Json) -> Result<(), PtError> {
    let follow = msg.get("follow").and_then(Json::as_bool).unwrap_or(false);
    // (t_us, steps_total) at the previous frame: the stream's cursor
    let mut prev: Option<(u64, usize)> = None;
    long_poll(shared, stream, |st| {
        let steps_total: usize = st.jobs.values().map(|j| j.progress.steps_done()).sum();
        let all_terminal = st.jobs.values().all(|j| j.state.is_terminal());
        let advanced = prev.is_none_or(|(_, s)| steps_total > s);
        if !(advanced || all_terminal || !follow) {
            return None;
        }
        let now_us = pt_trace::monotonic_us();
        let rate = match prev {
            Some((t0, s0)) if now_us > t0 => {
                (steps_total - s0) as f64 / ((now_us - t0) as f64 / 1e6)
            }
            _ => 0.0,
        };
        prev = Some((now_us, steps_total));
        let jobs: Vec<Json> = st
            .jobs
            .values()
            .filter(|j| j.state.is_active())
            .map(|j| {
                Json::Obj(vec![
                    ("id".to_string(), Json::Num(j.id as f64)),
                    ("state".to_string(), Json::Str(j.state.as_str().to_string())),
                    (
                        "steps_done".to_string(),
                        Json::Num(j.progress.steps_done() as f64),
                    ),
                    (
                        "steps_per_second".to_string(),
                        Json::Num(j.steps_per_second(now_us).unwrap_or(0.0)),
                    ),
                ])
            })
            .collect();
        let done = all_terminal || !follow;
        let mut pairs = vec![
            ("t_us".to_string(), Json::Num(now_us as f64)),
            (
                "queue_depth".to_string(),
                Json::Num(st.scheduler.queued() as f64),
            ),
            (
                "cores_in_use".to_string(),
                Json::Num(st.scheduler.in_use() as f64),
            ),
            (
                "budget_cores".to_string(),
                Json::Num(st.scheduler.budget() as f64),
            ),
            ("steps_total".to_string(), Json::Num(steps_total as f64)),
            ("steps_per_second".to_string(), Json::Num(rate)),
            ("jobs".to_string(), Json::Arr(jobs)),
            ("done".to_string(), Json::Bool(done)),
        ];
        if pt_trace::is_enabled() {
            let counters = pt_trace::counters()
                .iter()
                .map(|(name, v)| (name.to_string(), Json::Num(v as f64)))
                .collect();
            pairs.push(("counters".to_string(), Json::Obj(counters)));
        }
        Some(Ok((ok_response(pairs), done)))
    })
}
