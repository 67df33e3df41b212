//! pt-trace — the repo's single observability layer: scoped wall-clock
//! **spans**, monotonic **counters**, and a Chrome trace-event exporter.
//!
//! The SC'19 optimization story rests on per-kernel attribution (how much
//! of a PT-CN step is FFT vs GEMM vs wire traffic), so the hot paths are
//! instrumented — but observation must never perturb the physics. The
//! contract here is therefore strict:
//!
//! - **Off by default, zero-cost off.** Every span and counter site first
//!   checks one relaxed [`AtomicBool`]; when disarmed no clock is read, no
//!   allocation happens, and [`Span::elapsed_secs`] reports exactly `0.0`.
//!   Bits produced by an instrumented run are identical armed vs disarmed
//!   (pinned by `tests/trace_determinism.rs`).
//! - **All timestamping lives here.** Kernel crates never touch
//!   `std::time` themselves — they take a [`Span`] from this crate. Their
//!   `clippy.toml` files disallow the clock; this crate reads the root
//!   one, which does not. Trace output is observational only: nothing
//!   recorded here may flow back into bit-compared state (series tables,
//!   checkpoints, streaming samples).
//! - **Thread-aware.** Worker threads (pt-par pools, engine rank threads)
//!   call [`register_thread`] once; spans then carry a stable small tid so
//!   nested regions from different workers render as separate lanes in a
//!   Chrome trace viewer (`chrome://tracing`, Perfetto).
//!
//! Counters ([`Counter`]) are process-global `AtomicU64`s — cheap enough
//! to bump from inner loops and exact by construction (e.g. an ACE
//! stale-window step records zero [`Counter::PairFfts`]). Exporters work
//! from a [`Mark`]: take one before a job, then [`chrome_trace_since`] /
//! [`counters_since`] deliver only that job's events and counter deltas.
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on buffered span events: a runaway armed run stops recording
/// (drops are counted, see [`dropped_events`]) instead of growing without
/// bound. 1M complete events ≈ 48 MB — far above any served job.
const MAX_EVENTS: usize = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Arm or disarm tracing process-wide. Disarmed (the default) every
/// instrumentation site is a single relaxed load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently armed.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the process trace epoch (first use). Monotonic.
/// Always available — armed or not — so consumers that need *one* clock
/// (e.g. pt-serve's per-job step rate) share this one instead of minting
/// their own.
pub fn monotonic_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_micros() as u64
}

// ---------------------------------------------------------------------------
// Thread identity
// ---------------------------------------------------------------------------

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static THREAD_NAMES: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());

thread_local! {
    static TID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// This thread's stable trace id (assigned lazily; the first thread to ask
/// gets 1). Ids are process-unique and small — they become Chrome `tid`s.
pub fn thread_id() -> u64 {
    TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

/// Name the calling thread in trace output (idempotent; last name wins).
/// pt-par workers and engine rank threads call this at spawn so their
/// spans land in labelled lanes.
pub fn register_thread(name: &str) {
    let tid = thread_id();
    let mut names = THREAD_NAMES.lock().expect("invariant: name registry lock");
    if let Some(slot) = names.iter_mut().find(|(id, _)| *id == tid) {
        slot.1 = name.to_string();
    } else {
        names.push((tid, name.to_string()));
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Event {
    name: &'static str,
    ts_us: u64,
    dur_us: u64,
    tid: u64,
}

static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static DROPPED: AtomicUsize = AtomicUsize::new(0);

/// Span events dropped because the buffer hit its cap since the last
/// [`reset`].
pub fn dropped_events() -> usize {
    DROPPED.load(Ordering::Relaxed)
}

/// An RAII wall-clock region. Created by [`span`]; records a Chrome
/// "complete" event on drop (or [`Span::finish_secs`]). When tracing is
/// disarmed the span is inert: no clock read, no record, elapsed `0.0`.
#[must_use = "a span measures the region it is alive for"]
pub struct Span {
    name: &'static str,
    start_us: Option<u64>,
}

impl Span {
    /// Seconds since this span started (0.0 when tracing is disarmed).
    pub fn elapsed_secs(&self) -> f64 {
        match self.start_us {
            Some(s) => (monotonic_us().saturating_sub(s)) as f64 * 1e-6,
            None => 0.0,
        }
    }

    /// Close the span now: record its event and return its duration in
    /// seconds (0.0 when disarmed). Lets instrumentation both emit the
    /// trace event and fold the same measurement into a phase breakdown
    /// without reading the clock twice.
    pub fn finish_secs(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        let Some(start) = self.start_us.take() else {
            return 0.0;
        };
        let now = monotonic_us();
        let ev = Event {
            name: self.name,
            ts_us: start,
            dur_us: now.saturating_sub(start),
            tid: thread_id(),
        };
        let mut events = EVENTS.lock().expect("invariant: event buffer lock");
        if events.len() < MAX_EVENTS {
            events.push(ev);
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        ev.dur_us as f64 * 1e-6
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// Open a named span covering the region until the guard drops. `name`
/// is `&'static str` on purpose: span sites are compiled-in phase labels,
/// and a static name keeps the disarmed path allocation-free.
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start_us: is_enabled().then(monotonic_us),
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// The fixed counter catalog. Everything is a monotonic `u64`; semantics
/// are exact counts (or, for [`Counter::GemmFlops`], the standard
/// `8·m·n·k` complex-GEMM flops model), never sampled estimates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Individual 3-D FFT transforms executed (a batch of B grids is B).
    FftTransforms,
    /// Batched-FFT entry calls (`forward_batch`/`inverse_batch`).
    FftBatches,
    /// Pair FFTs in exact-exchange application — the paper's dominant
    /// kernel cost; ACE stale-window steps record zero of these.
    PairFfts,
    /// Complex-GEMM flops model: `8·m·n·k` per `gemm` call.
    GemmFlops,
    /// Ground-state SCF iterations (`scf_loop`).
    ScfIterations,
    /// PT-CN fixed-point iterations (Alg. 3 inner loop).
    FixedPointIterations,
    /// ACE self-consistent refresh rounds.
    AceRefreshRounds,
    /// Wire bytes moved by the rank engine (folded in from
    /// `pt_mpi::StatsSnapshot` per-job deltas).
    WireBytes,
    /// Rank-engine `run` jobs dispatched.
    EngineJobs,
    /// Checkpoint snapshots written.
    CheckpointWrites,
    /// Simulation steps committed to a series.
    StepsCommitted,
    /// pt-serve scheduler dispatch decisions (`start_batch` sweeps).
    SchedDispatches,
}

/// Every counter, in catalog order (also the [`CounterSnapshot`] order).
pub const COUNTERS: [Counter; 12] = [
    Counter::FftTransforms,
    Counter::FftBatches,
    Counter::PairFfts,
    Counter::GemmFlops,
    Counter::ScfIterations,
    Counter::FixedPointIterations,
    Counter::AceRefreshRounds,
    Counter::WireBytes,
    Counter::EngineJobs,
    Counter::CheckpointWrites,
    Counter::StepsCommitted,
    Counter::SchedDispatches,
];

const N_COUNTERS: usize = COUNTERS.len();

impl Counter {
    /// Stable snake_case name used in exported metrics.
    pub fn name(self) -> &'static str {
        match self {
            Counter::FftTransforms => "fft_transforms",
            Counter::FftBatches => "fft_batches",
            Counter::PairFfts => "pair_ffts",
            Counter::GemmFlops => "gemm_flops",
            Counter::ScfIterations => "scf_iterations",
            Counter::FixedPointIterations => "fixed_point_iterations",
            Counter::AceRefreshRounds => "ace_refresh_rounds",
            Counter::WireBytes => "wire_bytes",
            Counter::EngineJobs => "engine_jobs",
            Counter::CheckpointWrites => "checkpoint_writes",
            Counter::StepsCommitted => "steps_committed",
            Counter::SchedDispatches => "sched_dispatches",
        }
    }
}

#[allow(
    clippy::declare_interior_mutable_const,
    reason = "const is the array INIT pattern"
)]
const COUNTER_ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTER_CELLS: [AtomicU64; N_COUNTERS] = [COUNTER_ZERO; N_COUNTERS];

/// Bump `c` by `n`. A no-op while tracing is disarmed, so kernel inner
/// loops pay one relaxed load.
pub fn counter_add(c: Counter, n: u64) {
    if is_enabled() {
        COUNTER_CELLS[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Current value of one counter (readable armed or disarmed).
pub fn counter_value(c: Counter) -> u64 {
    COUNTER_CELLS[c as usize].load(Ordering::Relaxed)
}

/// A point-in-time copy of every counter, in [`COUNTERS`] order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: [u64; N_COUNTERS],
}

impl CounterSnapshot {
    /// Value of one counter in this snapshot.
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// Iterate `(name, value)` pairs in catalog order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        COUNTERS.iter().map(move |&c| (c.name(), self.get(c)))
    }

    /// Per-counter difference `self - earlier` (saturating; counters are
    /// monotonic between [`reset`]s so this is the activity in between).
    pub fn delta_since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut values = [0u64; N_COUNTERS];
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.values[i].saturating_sub(earlier.values[i]);
        }
        CounterSnapshot { values }
    }
}

/// Snapshot every counter now.
pub fn counters() -> CounterSnapshot {
    let mut values = [0u64; N_COUNTERS];
    for (i, v) in values.iter_mut().enumerate() {
        *v = COUNTER_CELLS[i].load(Ordering::Relaxed);
    }
    CounterSnapshot { values }
}

// ---------------------------------------------------------------------------
// Marks & exporters
// ---------------------------------------------------------------------------

/// A cursor into the trace: event position + counter values at one
/// instant. Take one before a unit of work, then export *that work's*
/// events and counter deltas without draining the global buffers (several
/// consumers can hold independent marks).
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    event_index: usize,
    counters: CounterSnapshot,
}

/// Take a mark at the current trace position.
pub fn mark() -> Mark {
    Mark {
        event_index: EVENTS.lock().expect("invariant: event buffer lock").len(),
        counters: counters(),
    }
}

/// Counter activity since `m` was taken.
pub fn counters_since(m: &Mark) -> CounterSnapshot {
    counters().delta_since(&m.counters)
}

/// Export every span recorded since `m` as a Chrome trace-event JSON
/// array (loadable in `chrome://tracing` / Perfetto): one `ph:"X"`
/// complete event per span plus `thread_name` metadata for every
/// registered thread. Timestamps are µs on the shared [`monotonic_us`]
/// epoch; `pid` is always 0.
pub fn chrome_trace_since(m: &Mark) -> String {
    let events = EVENTS.lock().expect("invariant: event buffer lock");
    let tail = events.get(m.event_index..).unwrap_or(&[]);
    let names = THREAD_NAMES.lock().expect("invariant: name registry lock");
    let mut out = String::with_capacity(64 + 96 * tail.len());
    out.push('[');
    let mut first = true;
    for (tid, name) in names.iter() {
        push_sep(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(name)
        ));
    }
    for ev in tail {
        push_sep(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}}}",
            escape_json(ev.name),
            ev.ts_us,
            ev.dur_us,
            ev.tid
        ));
    }
    out.push(']');
    out
}

fn push_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Clear the event buffer, drop counter values to zero and forget the
/// dropped-event tally. Existing [`Mark`]s become stale — take fresh ones.
/// Thread-name registrations survive (threads keep their ids).
pub fn reset() {
    EVENTS.lock().expect("invariant: event buffer lock").clear();
    for cell in &COUNTER_CELLS {
        cell.store(0, Ordering::Relaxed);
    }
    DROPPED.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The armed flag and buffers are process-global; serialize the tests
    /// that touch them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disarmed_sites_are_inert() {
        let _g = locked();
        set_enabled(false);
        reset();
        let before = counters();
        counter_add(Counter::PairFfts, 7);
        let sp = span("noop");
        assert_eq!(sp.elapsed_secs(), 0.0);
        assert_eq!(sp.finish_secs(), 0.0);
        assert_eq!(counters(), before);
        let m = Mark {
            event_index: 0,
            counters: before,
        };
        assert_eq!(chrome_trace_since(&m).matches("\"ph\":\"X\"").count(), 0);
    }

    #[test]
    fn armed_spans_and_counters_record_and_export() {
        let _g = locked();
        set_enabled(true);
        reset();
        let m = mark();
        counter_add(Counter::FftTransforms, 3);
        counter_add(Counter::FftTransforms, 2);
        {
            let _sp = span("outer");
            let inner = span("inner");
            assert!(inner.finish_secs() >= 0.0);
        }
        let delta = counters_since(&m);
        assert_eq!(delta.get(Counter::FftTransforms), 5);
        assert_eq!(delta.get(Counter::PairFfts), 0);
        let json = chrome_trace_since(&m);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"outer\""));
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"ph\":\"X\""));
        set_enabled(false);
        reset();
    }

    #[test]
    fn marks_window_the_event_stream() {
        let _g = locked();
        set_enabled(true);
        reset();
        span("before").finish_secs();
        let m = mark();
        span("after").finish_secs();
        let json = chrome_trace_since(&m);
        assert!(!json.contains("\"name\":\"before\""));
        assert!(json.contains("\"name\":\"after\""));
        set_enabled(false);
        reset();
    }

    #[test]
    fn registered_threads_appear_as_metadata() {
        let _g = locked();
        set_enabled(true);
        reset();
        let m = mark();
        std::thread::spawn(|| {
            register_thread("pt-test-worker");
            span("worker-span").finish_secs();
        })
        .join()
        .expect("invariant: test thread joins");
        let json = chrome_trace_since(&m);
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("pt-test-worker"));
        assert!(json.contains("\"name\":\"worker-span\""));
        set_enabled(false);
        reset();
    }

    #[test]
    fn counter_names_are_unique_and_ordered() {
        let names: Vec<_> = COUNTERS.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        // enum discriminants index the cell array — catalog order must
        // agree with declaration order
        for (i, c) in COUNTERS.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }

    #[test]
    fn snapshot_delta_is_saturating_per_counter() {
        let a = CounterSnapshot {
            values: [5; N_COUNTERS],
        };
        let b = CounterSnapshot {
            values: [3; N_COUNTERS],
        };
        assert_eq!(a.delta_since(&b).get(Counter::PairFfts), 2);
        assert_eq!(b.delta_since(&a).get(Counter::PairFfts), 0);
    }

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let a = monotonic_us();
        let b = monotonic_us();
        assert!(b >= a);
    }

    #[test]
    fn json_escaping_is_safe() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny"), "x\\u000ay");
    }
}
