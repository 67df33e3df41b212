//! Core-packing job scheduler: FIFO admission with bounded backfill
//! against a fixed server-wide core budget.
//!
//! Every job declares a [`RankLayout`](pt_par::RankLayout)-derived core
//! width at submit time. The scheduler packs concurrently running jobs so
//! their summed widths never exceed the budget (asserted on every
//! transition), serves the queue first-in-first-out, and lets narrow jobs
//! *backfill* past a wide head that does not currently fit — but only a
//! bounded number of times per head, so a wide job can be delayed by at
//! most [`MAX_BACKFILLS_PAST_HEAD`] opportunists before the queue holds
//! until enough cores drain for it. That bound is what turns "FIFO with
//! backfill" into a no-starvation guarantee.
//!
//! The scheduler is pure bookkeeping (no threads, no clock): the server
//! calls [`CorePackingScheduler::start_batch`] whenever capacity changes
//! and spawns whatever comes back.

use pt_ham::PtError;
use std::collections::VecDeque;

/// How many jobs may jump a blocked queue head before backfilling pauses
/// for that head. Small enough that a wide job waits O(1) opportunists,
/// large enough to keep the machine busy while it drains.
pub const MAX_BACKFILLS_PAST_HEAD: u32 = 8;

/// FIFO + bounded-backfill core packer. Jobs are identified by opaque
/// `u64` ids; widths are core counts (`RankLayout::cores()`).
#[derive(Debug)]
pub struct CorePackingScheduler {
    budget: usize,
    in_use: usize,
    queue: VecDeque<(u64, usize)>,
    /// The head job id the last `start_batch` could not fit, if any.
    blocked_head: Option<u64>,
    /// Jobs started past `blocked_head` since it became the head.
    backfills_past_head: u32,
}

impl CorePackingScheduler {
    /// A scheduler managing `budget_cores` cores (must be nonzero).
    pub fn new(budget_cores: usize) -> Result<Self, PtError> {
        if budget_cores == 0 {
            return Err(PtError::InvalidConfig(
                "scheduler core budget must be at least 1".into(),
            ));
        }
        Ok(CorePackingScheduler {
            budget: budget_cores,
            in_use: 0,
            queue: VecDeque::new(),
            blocked_head: None,
            backfills_past_head: 0,
        })
    }

    /// The configured core budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Cores currently charged to running jobs.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Queued (not yet started) job count.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Admit a job to the queue. A job that could *never* run — zero
    /// cores or wider than the whole budget — is rejected up front with a
    /// typed error rather than left to starve in the queue.
    pub fn admit(&mut self, id: u64, cores: usize) -> Result<(), PtError> {
        if cores == 0 {
            return Err(PtError::InvalidConfig(format!(
                "job {id}: a job must occupy at least 1 core"
            )));
        }
        if cores > self.budget {
            return Err(PtError::InvalidConfig(format!(
                "job {id}: needs {cores} cores but the server budget is {} — it can never run",
                self.budget
            )));
        }
        self.queue.push_back((id, cores));
        Ok(())
    }

    /// Remove a still-queued job (cancellation). Returns `true` if it was
    /// found in the queue (running jobs are not the scheduler's to stop).
    pub fn withdraw(&mut self, id: u64) -> bool {
        let before = self.queue.len();
        self.queue.retain(|&(qid, _)| qid != id);
        if self.blocked_head == Some(id) {
            self.blocked_head = None;
            self.backfills_past_head = 0;
        }
        self.queue.len() != before
    }

    /// Return `cores` to the pool when a job finishes, fails or is
    /// cancelled while running.
    pub fn release(&mut self, cores: usize) {
        debug_assert!(cores <= self.in_use, "released more cores than in use");
        self.in_use = self.in_use.saturating_sub(cores);
    }

    /// Start every job that may start now, in FIFO-with-bounded-backfill
    /// order. Returns `(id, cores)` pairs the caller must actually spawn;
    /// their cores are already charged. Never oversubscribes: the sum of
    /// running widths stays ≤ budget (checked with a real assert — this
    /// invariant is cheap and load-bearing).
    pub fn start_batch(&mut self) -> Vec<(u64, usize)> {
        let mut started = Vec::new();
        loop {
            let Some(&(head_id, head_cores)) = self.queue.front() else {
                self.blocked_head = None;
                self.backfills_past_head = 0;
                break;
            };
            // New head since we last blocked? Reset the backfill meter.
            if self.blocked_head != Some(head_id) {
                self.blocked_head = None;
                self.backfills_past_head = 0;
            }
            if self.in_use + head_cores <= self.budget {
                self.queue.pop_front();
                self.in_use += head_cores;
                self.blocked_head = None;
                self.backfills_past_head = 0;
                started.push((head_id, head_cores));
                continue;
            }
            // Head doesn't fit: try to backfill exactly one later job, if
            // the head's patience allows, then re-evaluate.
            self.blocked_head = Some(head_id);
            if self.backfills_past_head >= MAX_BACKFILLS_PAST_HEAD {
                break;
            }
            let slot = self
                .queue
                .iter()
                .skip(1)
                .position(|&(_, c)| self.in_use + c <= self.budget)
                .map(|i| i + 1);
            match slot {
                Some(i) => {
                    #[expect(
                        clippy::expect_used,
                        reason = "invariant: position() returned an in-bounds index"
                    )]
                    let (id, cores) = self.queue.remove(i).expect("invariant");
                    self.in_use += cores;
                    self.backfills_past_head += 1;
                    started.push((id, cores));
                }
                None => break,
            }
        }
        assert!(
            self.in_use <= self.budget,
            "scheduler oversubscribed: {} in use > {} budget",
            self.in_use,
            self.budget
        );
        started
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny deterministic RNG for the randomized packing test (no
    /// external dep, no wall clock).
    struct XorShift64(u64);
    impl XorShift64 {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn never_fits_is_rejected_up_front() {
        let mut s = CorePackingScheduler::new(4).unwrap();
        assert!(matches!(s.admit(1, 5), Err(PtError::InvalidConfig(_))));
        assert!(matches!(s.admit(2, 0), Err(PtError::InvalidConfig(_))));
        // exactly the budget is fine
        s.admit(3, 4).unwrap();
        assert_eq!(s.start_batch(), vec![(3, 4)]);
        assert!(CorePackingScheduler::new(0).is_err());
    }

    #[test]
    fn fifo_when_everything_fits() {
        let mut s = CorePackingScheduler::new(8).unwrap();
        for id in 0..4 {
            s.admit(id, 2).unwrap();
        }
        assert_eq!(s.start_batch(), vec![(0, 2), (1, 2), (2, 2), (3, 2)]);
        assert_eq!(s.in_use(), 8);
        assert!(s.start_batch().is_empty());
    }

    #[test]
    fn backfill_lets_narrow_jobs_slip_past_a_wide_head() {
        let mut s = CorePackingScheduler::new(4).unwrap();
        s.admit(0, 3).unwrap();
        assert_eq!(s.start_batch(), vec![(0, 3)]);
        // wide head (4) cannot fit beside the running 3-core job, but the
        // 1-core job behind it can.
        s.admit(1, 4).unwrap();
        s.admit(2, 1).unwrap();
        assert_eq!(s.start_batch(), vec![(2, 1)]);
        assert_eq!(s.in_use(), 4);
        // drain everything → the wide head finally runs, alone.
        s.release(3);
        assert!(s.start_batch().is_empty()); // 1 in use, head needs 4
        s.release(1);
        assert_eq!(s.start_batch(), vec![(1, 4)]);
    }

    #[test]
    fn bounded_backfill_prevents_starvation() {
        // One running 1-core job pins the wide head out; an endless
        // supply of 1-core jobs must stop jumping it after the bound.
        let mut s = CorePackingScheduler::new(4).unwrap();
        s.admit(0, 1).unwrap();
        assert_eq!(s.start_batch(), vec![(0, 1)]);
        s.admit(1, 4).unwrap(); // wide head, cannot fit while job 0 runs
        let n_narrow = MAX_BACKFILLS_PAST_HEAD + 3;
        for i in 0..n_narrow {
            s.admit(100 + u64::from(i), 1).unwrap();
        }
        let mut jumped = 0usize;
        // Simulate: each started narrow job finishes immediately and we
        // re-run start_batch — the classic starvation loop.
        loop {
            let batch = s.start_batch();
            if batch.is_empty() {
                break;
            }
            for &(id, cores) in &batch {
                assert_ne!(id, 1, "head started while a narrow job was running");
                jumped += 1;
                let _ = cores; // release only after counting this round
            }
            // keep job 0 running; finish the narrow jobs
            for &(_, cores) in &batch {
                s.release(cores);
            }
        }
        assert_eq!(jumped as u32, MAX_BACKFILLS_PAST_HEAD);
        // head's turn once the long-running job drains
        s.release(1);
        let batch = s.start_batch();
        assert_eq!(batch, vec![(1, 4)]);
        // and after it, the remaining narrow jobs resume FIFO
        s.release(4);
        let rest = s.start_batch();
        assert_eq!(rest.len() as u32, n_narrow - MAX_BACKFILLS_PAST_HEAD);
        assert!(rest.windows(2).all(|w| w[0].0 < w[1].0), "FIFO order");
    }

    #[test]
    fn withdraw_unblocks_the_queue() {
        let mut s = CorePackingScheduler::new(4).unwrap();
        s.admit(0, 3).unwrap();
        assert_eq!(s.start_batch(), vec![(0, 3)]);
        s.admit(1, 4).unwrap();
        s.admit(2, 1).unwrap();
        assert_eq!(s.start_batch(), vec![(2, 1)]); // 1 backfilled past 4-wide head
        assert!(s.withdraw(1));
        assert!(!s.withdraw(1)); // already gone
        s.release(1);
        s.admit(3, 1).unwrap();
        // head is gone; FIFO resumes without waiting for a drain
        assert_eq!(s.start_batch(), vec![(3, 1)]);
    }

    #[test]
    fn randomized_packing_never_oversubscribes() {
        let mut rng = XorShift64(0x9e37_79b9_7f4a_7c15);
        for trial in 0..50 {
            let budget = 1 + (rng.next() % 16) as usize;
            let mut s = CorePackingScheduler::new(budget).unwrap();
            let mut running: Vec<(u64, usize)> = Vec::new();
            let mut next_id = 0u64;
            for _ in 0..200 {
                match rng.next() % 3 {
                    0 => {
                        let cores = 1 + (rng.next() as usize % (budget + 2));
                        let res = s.admit(next_id, cores);
                        assert_eq!(res.is_err(), cores > budget);
                        next_id += 1;
                    }
                    1 if !running.is_empty() => {
                        let i = rng.next() as usize % running.len();
                        let (_, cores) = running.swap_remove(i);
                        s.release(cores);
                    }
                    _ => {}
                }
                let batch = s.start_batch();
                running.extend(batch);
                let used: usize = running.iter().map(|&(_, c)| c).sum();
                assert_eq!(used, s.in_use(), "trial {trial}: accounting drift");
                assert!(used <= budget, "trial {trial}: oversubscribed");
            }
        }
    }
}
