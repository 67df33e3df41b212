//! The persistent rank engine: spawn-once rank teams parked on channels.
//!
//! The paper's execution model keeps one MPI rank per GPU alive for the
//! whole propagation, and the PT-CN fixed point applies HΨ dozens of times
//! per step. [`RankEngine`] is the rank analogue of the
//! install-around-the-loop pool pattern and the only way a rank team
//! runs: rank threads and their pinned [`ThreadPool`]s are created exactly
//! once, park on a job channel between work items, and answer through a
//! single mpsc fan-in, so the per-job cost is a channel round-trip instead
//! of thread creation.
//!
//! Fault semantics: a rank panic mid-job poisons peers blocked in a
//! receive (no deadlock) and a peer that sends to the dead rank unwinds as
//! a cascade too; the job aborts by re-raising the first *original* panic
//! payload in rank order, and the engine is dead afterwards — further
//! [`RankEngine::run`] calls return the typed [`EnginePoisoned`] error
//! instead of hanging on a half-dead world.

use crate::comm::{note_rank_thread_spawned, Comm, Envelope, PeerDied, Wire};
use crate::stats::{CommStats, StatsSnapshot};
use pt_par::{RankLayout, ThreadPool};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

type BoxedAny = Box<dyn Any + Send>;
type JobFn = dyn Fn(&mut Comm) -> BoxedAny + Sync;
type RankReport = (usize, Result<BoxedAny, BoxedAny>);

/// A typed work item for a parked rank thread.
enum RankMsg {
    /// Run this closure on the rank's pinned pool and report the result.
    /// The reference is lifetime-erased by [`RankEngine::run`], which
    /// blocks until every rank has reported — the borrow outlives its use.
    Job(&'static JobFn),
    /// Exit the rank loop (engine drop / post-failure teardown).
    Shutdown,
}

/// Typed error for submitting work to an engine whose world died.
///
/// After a rank panic the surviving ranks were shut down and the panic
/// was re-raised to the caller; a *later* submission cannot run (the
/// world is gone) and must not hang, so it reports this error instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnginePoisoned {
    /// Panic message of the rank failure that killed the engine.
    pub cause: String,
}

impl std::fmt::Display for EnginePoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank engine is dead after an earlier rank failure: {}",
            self.cause
        )
    }
}

impl std::error::Error for EnginePoisoned {}

/// Persistent rank team: `layout.ranks` threads, each with its own
/// `layout.threads_per_rank`-wide pinned [`ThreadPool`] and a live
/// [`Comm`] world, all spawned once in [`RankEngine::new`] and parked
/// between [`RankEngine::run`] calls.
pub struct RankEngine {
    layout: RankLayout,
    wire: Wire,
    stats: Arc<CommStats>,
    job_txs: Vec<Sender<RankMsg>>,
    results_rx: Receiver<RankReport>,
    handles: Vec<JoinHandle<()>>,
    poisoned: Option<String>,
}

impl std::fmt::Debug for RankEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankEngine")
            .field("layout", &self.layout)
            .field("wire", &self.wire)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl RankEngine {
    /// Spawn the rank team over an all-to-all channel mesh. Each rank
    /// thread builds its pinned pool immediately and parks on its job
    /// channel.
    pub fn new(layout: RankLayout, wire: Wire) -> Self {
        let np = layout.ranks;
        assert!(np > 0, "engine needs at least one rank");
        assert!(
            layout.threads_per_rank > 0,
            "engine ranks need at least one thread"
        );
        let stats = Arc::new(CommStats::default());
        let mut world_txs = Vec::with_capacity(np);
        let mut world_rxs = Vec::with_capacity(np);
        for _ in 0..np {
            let (tx, rx) = channel::<Envelope>();
            world_txs.push(tx);
            world_rxs.push(rx);
        }
        let (results_tx, results_rx) = channel::<RankReport>();
        let mut job_txs = Vec::with_capacity(np);
        let mut handles = Vec::with_capacity(np);
        for (rank, world_rx) in world_rxs.into_iter().enumerate() {
            let (job_tx, job_rx) = channel::<RankMsg>();
            job_txs.push(job_tx);
            let world_txs = world_txs.clone();
            let stats = Arc::clone(&stats);
            let results_tx = results_tx.clone();
            let threads = layout.threads_per_rank;
            note_rank_thread_spawned();
            let handle = std::thread::Builder::new()
                .name(format!("pt-rank-{rank}"))
                .spawn(move || {
                    rank_main(
                        rank,
                        np,
                        threads,
                        wire,
                        world_txs,
                        world_rx,
                        stats,
                        &job_rx,
                        &results_tx,
                    )
                })
                .expect("spawn rank thread");
            handles.push(handle);
        }
        RankEngine {
            layout,
            wire,
            stats,
            job_txs,
            results_rx,
            handles,
            poisoned: None,
        }
    }

    /// The layout this engine was spawned with.
    pub fn layout(&self) -> RankLayout {
        self.layout
    }

    /// Wire precision of the engine's world.
    pub fn wire(&self) -> Wire {
        self.wire
    }

    /// Whether a rank failure has killed this engine.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// The panic message that killed the engine, if any.
    pub fn poison_cause(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Cumulative communication counters of the engine's world.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Submit `f` to every rank and collect the results in rank order,
    /// plus the communication delta of exactly this job.
    ///
    /// Blocks until every rank has reported. If any rank panics, the
    /// survivors are poisoned awake / shut down, the engine is marked
    /// dead, and the first original panic payload (rank order) is
    /// re-raised, so failure injection can assert on the injected
    /// message. A dead engine returns [`EnginePoisoned`] instead.
    pub fn run<T, F>(&mut self, f: F) -> Result<(Vec<T>, StatsSnapshot), EnginePoisoned>
    where
        T: Send + 'static,
        F: Fn(&mut Comm) -> T + Sync,
    {
        if let Some(cause) = &self.poisoned {
            return Err(EnginePoisoned {
                cause: cause.clone(),
            });
        }
        let np = self.layout.ranks;
        let before = self.stats.snapshot();
        let boxed = |comm: &mut Comm| -> BoxedAny { Box::new(f(comm)) };
        let job: &(dyn Fn(&mut Comm) -> BoxedAny + Sync) = &boxed;
        // SAFETY: lifetime erasure to ship the borrow into persistent
        // threads — sound because this function does not return (or
        // unwind) before every rank has reported for this job, so the
        // parked rank threads never hold `job` past this frame; same
        // argument as ThreadPool::run, which blocks on wait_done.
        let job: &'static JobFn = unsafe { std::mem::transmute(job) };
        for tx in &self.job_txs {
            tx.send(RankMsg::Job(job))
                .expect("healthy engine rank hung up");
        }
        let mut oks: Vec<Option<BoxedAny>> = (0..np).map(|_| None).collect();
        let mut errs: Vec<Option<BoxedAny>> = (0..np).map(|_| None).collect();
        for _ in 0..np {
            let (rank, report) = self
                .results_rx
                .recv()
                .expect("engine results channel broken");
            match report {
                Ok(v) => oks[rank] = Some(v),
                Err(p) => errs[rank] = Some(p),
            }
        }
        if errs.iter().any(Option::is_some) {
            // The first (rank-order) *original* payload wins over PeerDied
            // cascades, and a pure cascade is unwrapped so its message
            // stays assertable.
            let mut first_original: Option<BoxedAny> = None;
            let mut first_cascade: Option<BoxedAny> = None;
            for payload in errs.into_iter().flatten() {
                if payload.downcast_ref::<PeerDied>().is_none() {
                    first_original.get_or_insert(payload);
                } else {
                    first_cascade.get_or_insert(payload);
                }
            }
            let payload = first_original
                .or(first_cascade)
                .expect("a rank failure was recorded");
            self.poisoned = Some(panic_message(payload.as_ref()));
            self.shutdown_and_join();
            match payload.downcast::<PeerDied>() {
                Ok(peer_died) => resume_unwind(Box::new(peer_died.0)),
                Err(payload) => resume_unwind(payload),
            }
        }
        let out = oks
            .into_iter()
            .map(|v| {
                *v.expect("every rank reported")
                    .downcast::<T>()
                    .expect("engine job result type")
            })
            .collect();
        Ok((out, self.stats.snapshot().delta_since(&before)))
    }

    /// Ask surviving ranks to exit and join every rank thread. Ranks that
    /// died with a job have already exited (their job receiver is gone, so
    /// the send fails silently — by design).
    fn shutdown_and_join(&mut self) {
        for tx in &self.job_txs {
            let _ = tx.send(RankMsg::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for RankEngine {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// The parked rank loop: build the pinned pool once, then serve jobs
/// until shutdown. A panicking job poisons the peers, reports the
/// original payload through the fan-in, and ends this rank for good.
#[allow(clippy::too_many_arguments)]
fn rank_main(
    rank: usize,
    np: usize,
    threads: usize,
    wire: Wire,
    world_txs: Vec<Sender<Envelope>>,
    world_rx: Receiver<Envelope>,
    stats: Arc<CommStats>,
    job_rx: &Receiver<RankMsg>,
    results_tx: &Sender<RankReport>,
) {
    pt_trace::register_thread(&format!("pt-rank-{rank}"));
    let pool = ThreadPool::new(threads);
    let mut comm = Comm::from_parts(rank, np, world_txs, world_rx, stats, wire);
    while let Ok(RankMsg::Job(job)) = job_rx.recv() {
        match catch_unwind(AssertUnwindSafe(|| pool.install(|| job(&mut comm)))) {
            Ok(v) => {
                let _ = results_tx.send((rank, Ok(v)));
            }
            Err(payload) => {
                // a dead rank can never answer its peers: poison them so
                // blocked receives abort the job instead of deadlocking,
                // then report the original defect and leave the world
                comm.poison_peers();
                let _ = results_tx.send((rank, Err(payload)));
                return;
            }
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(peer_died) = payload.downcast_ref::<PeerDied>() {
        peer_died.0.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "rank panicked with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_num::c64;

    #[test]
    fn engine_runs_collectives_and_matches_fresh_team_bits() {
        let layout = RankLayout::new(3, 2);
        let job = |comm: &mut Comm| {
            let mut data = if comm.rank() == 0 {
                (0..64)
                    .map(|i| c64::new((i as f64).sin(), (i as f64).cos()))
                    .collect()
            } else {
                Vec::new()
            };
            comm.bcast_c64(0, &mut data);
            let mut sum = vec![comm.rank() as f64 + 0.125];
            comm.allreduce_sum_f64(&mut sum);
            (data, sum[0])
        };
        let mut engine = RankEngine::new(layout, Wire::F64);
        for _ in 0..3 {
            // the reference spawns a fresh team for every call
            let (want, _) = RankEngine::new(layout, Wire::F64).run(job).unwrap();
            let (got, delta) = engine.run(job).unwrap();
            assert_eq!(got.len(), want.len());
            for ((gd, gs), (wd, ws)) in got.iter().zip(&want) {
                assert_eq!(gs.to_bits(), ws.to_bits());
                assert_eq!(gd.len(), wd.len());
                for (a, b) in gd.iter().zip(wd) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits());
                    assert_eq!(a.im.to_bits(), b.im.to_bits());
                }
            }
            assert_eq!(delta.bcast_calls, 3);
            assert_eq!(delta.allreduce_calls, 3);
        }
    }

    #[test]
    fn engine_reuses_one_rank_team_across_many_jobs() {
        // spawn-count deltas live in tests/engine_spawn_once.rs (the
        // counters are process-global, so they need their own binary);
        // here: ten jobs through one world stay correct and ordered
        let mut engine = RankEngine::new(RankLayout::new(4, 1), Wire::F64);
        for step in 0..10 {
            let (out, _) = engine
                .run(|comm| {
                    let mut v = vec![comm.rank() as f64 + 1.0];
                    comm.allreduce_sum_f64(&mut v);
                    v[0] + step as f64
                })
                .unwrap();
            assert_eq!(out, vec![10.0 + step as f64; 4]);
        }
    }

    #[test]
    fn engine_pins_a_pool_per_rank_for_its_lifetime() {
        let mut engine = RankEngine::new(RankLayout::new(2, 3), Wire::F64);
        for _ in 0..5 {
            let (widths, _) = engine
                .run(|comm| {
                    comm.barrier();
                    pt_par::current_num_threads()
                })
                .unwrap();
            assert_eq!(widths, vec![3, 3]);
        }
    }

    #[test]
    fn per_job_stats_delta_isolates_each_job() {
        let mut engine = RankEngine::new(RankLayout::new(2, 1), Wire::F64);
        let job = |comm: &mut Comm| {
            let mut data = if comm.rank() == 0 {
                vec![c64::new(1.0, -1.0); 25]
            } else {
                Vec::new()
            };
            comm.bcast_c64(0, &mut data);
            data.len()
        };
        let (_, first) = engine.run(job).unwrap();
        let (_, second) = engine.run(job).unwrap();
        assert_eq!(first, second, "identical jobs must report identical deltas");
        assert_eq!(first.bcast_bytes, 25 * 16);
        // the engine-lifetime counters keep accumulating underneath
        assert_eq!(engine.stats().bcast_bytes, 2 * 25 * 16);
    }

    #[test]
    #[should_panic(expected = "engine rank blew a capacitor")]
    fn rank_panic_mid_job_aborts_with_the_original_payload() {
        let mut engine = RankEngine::new(RankLayout::new(3, 1), Wire::F64);
        // ranks 0 and 2 park inside a receive that only rank 1 could
        // answer; rank 1's death must poison them awake and the original
        // payload must win over the PeerDied cascades
        let _ = engine.run(|comm| {
            if comm.rank() == 1 {
                panic!("engine rank blew a capacitor");
            }
            comm.recv_c64(1, 42).len()
        });
    }

    #[test]
    fn dead_engine_reports_a_typed_error_not_a_hang() {
        let mut engine = RankEngine::new(RankLayout::new(3, 1), Wire::F64);
        let aborted = catch_unwind(AssertUnwindSafe(|| {
            let _ = engine.run(|comm| {
                if comm.rank() == 0 {
                    panic!("injected engine failure");
                }
                comm.recv_c64(0, 7).len()
            });
        }));
        assert!(aborted.is_err(), "the failing job must panic out");
        assert!(engine.is_poisoned());
        // the next submission must neither run nor deadlock
        let err = engine.run(|comm| comm.rank()).unwrap_err();
        assert_eq!(
            err.cause, "injected engine failure",
            "the typed error carries the original cause"
        );
        assert!(err.to_string().contains("injected engine failure"));
    }

    #[test]
    fn panic_while_peers_are_parked_between_jobs_does_not_deadlock() {
        let mut engine = RankEngine::new(RankLayout::new(3, 1), Wire::F64);
        // ranks 0 and 2 finish instantly and go back to parking on the
        // job channel; rank 1 panics afterwards. The driver must still
        // collect all three reports and abort with the original payload.
        let aborted = catch_unwind(AssertUnwindSafe(|| {
            let _ = engine.run(|comm| {
                if comm.rank() == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    panic!("late failure with parked peers");
                }
                comm.rank()
            });
        }));
        let payload = aborted.expect_err("job must abort");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("original payload survives");
        assert_eq!(msg, "late failure with parked peers");
        assert!(engine.run(|comm| comm.rank()).is_err());
    }

    #[test]
    fn first_original_payload_wins_in_rank_order_on_the_engine() {
        let mut engine = RankEngine::new(RankLayout::new(4, 1), Wire::F64);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _ = engine.run(|comm| match comm.rank() {
                1 => panic!("engine failure on rank 1"),
                3 => panic!("engine failure on rank 3"),
                _ => comm.rank(),
            });
        }));
        let payload = r.expect_err("job must abort");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("panic payload is a string");
        assert_eq!(msg, "engine failure on rank 1");
    }

    #[test]
    fn a_send_to_a_dead_rank_reports_the_rank_that_died() {
        // rank 0 keeps sending until rank 1's receiver is gone: the failed
        // send is a cascade of rank 1's death, not a second root cause
        let mut engine = RankEngine::new(RankLayout::new(2, 1), Wire::F64);
        let aborted = catch_unwind(AssertUnwindSafe(|| {
            let _ = engine.run(|comm| -> usize {
                if comm.rank() == 1 {
                    panic!("root cause on rank 1");
                }
                loop {
                    comm.send_c64(1, 7, &[c64::ONE]);
                }
            });
        }));
        let payload = aborted.expect_err("job must abort");
        assert_eq!(panic_message(payload.as_ref()), "root cause on rank 1");
        assert_eq!(engine.poison_cause(), Some("root cause on rank 1"));
    }

    /// The collectives a rank can die in front of.
    const COLLECTIVES: [&str; 6] = [
        "bcast_c64 as root",
        "bcast_c64 as non-root",
        "allreduce_sum_f64",
        "alltoallv_c64",
        "tree_reduce_chunks_c64",
        "barrier",
    ];

    fn enter(comm: &mut Comm, op: &str, victim: usize) {
        let np = comm.size();
        match op {
            "bcast_c64 as root" => comm.bcast_c64(victim, &mut vec![c64::ONE; 8]),
            "bcast_c64 as non-root" => comm.bcast_c64((victim + 1) % np, &mut vec![c64::ONE; 8]),
            "allreduce_sum_f64" => comm.allreduce_sum_f64(&mut [1.0; 8]),
            "alltoallv_c64" => drop(comm.alltoallv_c64(vec![vec![c64::ONE; 8]; np])),
            "tree_reduce_chunks_c64" => drop(comm.tree_reduce_chunks_c64(&[c64::ONE; 8], 4)),
            "barrier" => comm.barrier(),
            _ => unreachable!("unknown collective {op}"),
        }
    }

    #[test]
    fn a_rank_dying_before_any_collective_is_the_reported_cause_never_a_hang() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for np in 2..=4 {
                for victim in 0..np {
                    for op in COLLECTIVES {
                        let cause = format!("victim {victim} before {op}");
                        let mut engine = RankEngine::new(RankLayout::new(np, 1), Wire::F64);
                        let aborted = catch_unwind(AssertUnwindSafe(|| {
                            let _ = engine.run(|comm| {
                                if comm.rank() == victim {
                                    panic!("{cause}");
                                }
                                enter(comm, op, victim);
                            });
                        }));
                        let raised = aborted.err().map(|p| panic_message(p.as_ref()));
                        let next = engine.run(|comm| comm.rank()).err().map(|e| e.cause);
                        tx.send((cause, raised, next)).unwrap();
                    }
                }
            }
        });
        let wait = std::time::Duration::from_secs(60);
        for _ in 0..(2 + 3 + 4) * COLLECTIVES.len() {
            let (cause, raised, next) = rx.recv_timeout(wait).expect("a rank death hung the job");
            assert_eq!(raised.as_deref(), Some(cause.as_str()), "re-raised payload");
            assert_eq!(
                next.as_deref(),
                Some(cause.as_str()),
                "EnginePoisoned cause"
            );
        }
    }
}
