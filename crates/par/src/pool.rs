//! The fixed-worker thread pool.
//!
//! One [`ThreadPool`] owns `threads − 1` OS worker threads blocked on a
//! condvar-guarded batch queue; the thread that submits a batch claims
//! tasks alongside the workers, so a pool of `n` threads runs `n` tasks
//! concurrently while the submitter would otherwise idle.
//!
//! Nested parallelism is handled by *flattening*: every task body runs
//! with a thread-local "inside the pool" flag set, and any parallel
//! region entered from a task executes inline (sequentially) on that
//! thread. The outermost region gets the threads; inner regions keep
//! their deterministic chunk structure but run serially — exactly the
//! schedule the paper uses (band/pair parallelism outside, serial FFT
//! lines inside).

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// Process-wide pool construction counters: spawn-once acceptance tests
/// take deltas around a multi-step run to prove the rank-pinned pools are
/// built exactly once, not once per H application.
static POOLS_BUILT: AtomicUsize = AtomicUsize::new(0);
static WORKER_THREADS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Total [`ThreadPool`]s ever constructed by this process (monotone).
pub fn pools_built() -> usize {
    POOLS_BUILT.load(Ordering::Relaxed)
}

/// Total pool worker threads ever spawned by this process (monotone; a
/// `threads`-wide pool spawns `threads − 1` workers).
pub fn worker_threads_spawned() -> usize {
    WORKER_THREADS_SPAWNED.load(Ordering::Relaxed)
}

thread_local! {
    /// True on pool workers and on a submitter while it executes claimed
    /// tasks: parallel regions entered under this flag run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// Stack of scoped pool overrides installed via [`ThreadPool::install`].
    /// Raw pointers are sound: `install` borrows the pool for the whole
    /// scope and pops the entry before returning.
    static INSTALLED: RefCell<Vec<*const ThreadPool>> = const { RefCell::new(Vec::new()) };
}

/// One submitted parallel region: `total` tasks indexed `0..total`, each
/// executed exactly once by whichever thread claims it first.
struct Batch {
    /// Lifetime-erased task body; only dereferenced for claimed indices,
    /// and the submitter blocks until every task completed, so the
    /// underlying closure outlives every use.
    task: &'static (dyn Fn(usize) + Sync),
    total: usize,
    next: AtomicUsize,
    completed: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Batch {
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.total).then_some(i)
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.total
    }

    /// Run one claimed task, trapping panics so sibling tasks finish and
    /// the submitter can re-raise.
    fn run_one(&self, i: usize) {
        let was = IN_POOL.with(|f| f.replace(true));
        let r = catch_unwind(AssertUnwindSafe(|| (self.task)(i)));
        IN_POOL.with(|f| f.set(was));
        if let Err(p) = r {
            let mut slot = self.panic.lock().unwrap();
            slot.get_or_insert(p);
        }
        let mut c = self.completed.lock().unwrap();
        *c += 1;
        if *c == self.total {
            self.done.notify_all();
        }
    }

    fn wait_done(&self) {
        let mut c = self.completed.lock().unwrap();
        while *c < self.total {
            c = self.done.wait(c).unwrap();
        }
    }
}

struct QueueState {
    queue: VecDeque<Arc<Batch>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    work: Condvar,
}

/// A fixed-size worker pool; see the module docs for the scheduling model.
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: usize,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Build a pool that runs up to `threads` tasks concurrently
    /// (`threads − 1` spawned workers plus the submitting thread).
    /// `threads` is clamped to at least 1; a 1-thread pool executes
    /// everything inline and spawns nothing.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        POOLS_BUILT.fetch_add(1, Ordering::Relaxed);
        WORKER_THREADS_SPAWNED.fetch_add(threads - 1, Ordering::Relaxed);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("pt-par-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pt-par worker thread")
            })
            .collect();
        ThreadPool {
            shared,
            threads,
            workers,
        }
    }

    /// Concurrency of this pool (including the submitting thread).
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Execute `task(i)` for every `i in 0..total`, blocking until all
    /// complete. Tasks are claimed dynamically (load-balanced); any
    /// ordering-sensitive reduction must therefore happen per task and be
    /// combined in task order by the caller (see `pt_par::parallel_reduce`).
    ///
    /// Called from inside another parallel region (or on a 1-thread pool,
    /// or with `total <= 1`) this runs inline, sequentially, in index
    /// order. A panic in any task is re-raised here after every sibling
    /// task has finished.
    pub fn run(&self, total: usize, task: &(dyn Fn(usize) + Sync)) {
        if total == 0 {
            return;
        }
        if total == 1 || self.threads <= 1 || IN_POOL.with(Cell::get) {
            for i in 0..total {
                task(i);
            }
            return;
        }
        // SAFETY: the `'static` is a lie scoped to this frame — we block on
        // `wait_done` (and remove the queue entry) before returning, so no
        // worker can touch `task` after this stack frame is gone; the
        // transmute only erases the lifetime, never the type.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        let batch = Arc::new(Batch {
            task,
            total,
            next: AtomicUsize::new(0),
            completed: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        self.shared
            .state
            .lock()
            .unwrap()
            .queue
            .push_back(Arc::clone(&batch));
        self.shared.work.notify_all();
        while let Some(i) = batch.claim() {
            batch.run_one(i);
        }
        batch.wait_done();
        self.shared
            .state
            .lock()
            .unwrap()
            .queue
            .retain(|b| !Arc::ptr_eq(b, &batch));
        let p = batch.panic.lock().unwrap().take();
        if let Some(p) = p {
            resume_unwind(p);
        }
    }

    /// Run `f` with this pool as the calling thread's current pool: every
    /// `pt_par` primitive reached from `f` executes on it. Scoped and
    /// re-entrant; the previous pool is restored when `f` returns or
    /// unwinds.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        INSTALLED.with(|s| s.borrow_mut().push(self as *const ThreadPool));
        struct Guard;
        impl Drop for Guard {
            fn drop(&mut self) {
                INSTALLED.with(|s| {
                    s.borrow_mut().pop();
                });
            }
        }
        let _guard = Guard;
        f()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    IN_POOL.with(|f| f.set(true));
    // label this worker's lane in trace output (the OS thread name is
    // already set by the spawning Builder)
    if let Some(name) = thread::current().name() {
        pt_trace::register_thread(name);
    }
    loop {
        let batch = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                while st.queue.front().is_some_and(|b| b.exhausted()) {
                    st.queue.pop_front();
                }
                if let Some(b) = st.queue.front() {
                    break Arc::clone(b);
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        while let Some(i) = batch.claim() {
            batch.run_one(i);
        }
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// `PT_NUM_THREADS` as parsed (whitespace-trimmed, ≥ 1), if set — the one
/// place the env var's parsing rule lives.
fn env_threads() -> Option<usize> {
    std::env::var("PT_NUM_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// The process-wide default pool, sized by `PT_NUM_THREADS` (falling back
/// to the machine's available parallelism). Built lazily on first use.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| {
        let threads = env_threads().unwrap_or_else(|| {
            thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        ThreadPool::new(threads)
    })
}

/// Run `f` against the calling thread's current pool: the innermost
/// [`ThreadPool::install`] scope, or the [`global`] pool outside any.
/// Inside a pool task (where regions run inline anyway) a workerless
/// 1-thread pool is used instead, so nested calls never lazily spawn the
/// global pool's threads just to leave them idle.
pub fn with_current<R>(f: impl FnOnce(&ThreadPool) -> R) -> R {
    if IN_POOL.with(Cell::get) {
        static INLINE: OnceLock<ThreadPool> = OnceLock::new();
        return f(INLINE.get_or_init(|| ThreadPool::new(1)));
    }
    let installed = INSTALLED.with(|s| s.borrow().last().copied());
    match installed {
        // SAFETY: `install` pushed this pointer from a `&ThreadPool` it
        // keeps borrowed for its whole scope (popped by its drop guard),
        // and INSTALLED is thread-local — the pool is alive and unaliased
        // by any &mut for the duration of `f`.
        Some(p) => f(unsafe { &*p }),
        None => f(global()),
    }
}

/// Concurrency of the calling thread's current pool.
pub fn current_num_threads() -> usize {
    with_current(ThreadPool::num_threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        pool.run(97, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn one_thread_pool_is_inline_and_ordered() {
        let pool = ThreadPool::new(1);
        let order = Mutex::new(Vec::new());
        pool.run(5, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_regions_run_inline() {
        let pool = ThreadPool::new(4);
        let total = AtomicU64::new(0);
        pool.run(8, &|_| {
            // nested region: must not deadlock, must still run every task
            pool.run(8, &|j| {
                total.fetch_add(j as u64 + 1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 36);
    }

    #[test]
    fn panics_propagate_after_siblings_finish() {
        let pool = ThreadPool::new(4);
        let done = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, &|i| {
                if i == 3 {
                    panic!("injected");
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(r.is_err());
        assert_eq!(done.load(Ordering::Relaxed), 15);
        // the pool survives a panicked batch
        pool.run(4, &|_| {});
    }

    #[test]
    fn install_is_scoped() {
        let outer = ThreadPool::new(2);
        let inner = ThreadPool::new(3);
        outer.install(|| {
            assert_eq!(current_num_threads(), 2);
            inner.install(|| assert_eq!(current_num_threads(), 3));
            assert_eq!(current_num_threads(), 2);
        });
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = Arc::new(ThreadPool::new(4));
        let total = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                thread::spawn(move || {
                    pool.run(50, &|i| {
                        total.fetch_add(i as u64, Ordering::Relaxed);
                    });
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 3 * (49 * 50 / 2));
    }
}
