//! `pt-par` — the workspace execution layer: a std-only fixed-worker
//! thread pool plus deterministic data-parallel primitives.
//!
//! The build environment is offline, so this crate depends on nothing but
//! `std` (`std::thread` + channels-over-condvar). Every parallel region
//! in `pt-fft`, `pt-linalg`, `pt-pseudo`, `pt-ham` and `pt-core` is a
//! direct call to [`parallel_for`], [`parallel_chunks_mut`],
//! [`parallel_map`] or [`parallel_reduce`] — there is no iterator façade
//! in between.
//!
//! # Determinism contract
//!
//! Chunk decomposition depends only on the problem size and every
//! reduction combines partial results in a fixed chunk-ordered tree, so
//! **results are bit-identical for any thread count** — `PT_NUM_THREADS=1`
//! and `=64` produce the same floats. Nested parallel regions run inline
//! (sequentially) on the worker that reached them, which both avoids
//! deadlock and keeps the schedule shape fixed.
//!
//! # Configuration
//!
//! * `PT_NUM_THREADS` sizes the lazily-built [`global`] pool (default:
//!   available parallelism).
//! * [`ThreadPool::install`] scopes a specific pool over a closure — the
//!   determinism tests use this to compare thread counts inside one
//!   process.
//! * [`RankLayout`] is a run's one layout value, set through
//!   `KsSystemBuilder::layout`: the system computes on a dedicated
//!   `layout.cores()`-wide pool (unset: the surrounding pool).

mod ops;
mod pool;

pub use ops::{
    chunk_count, chunk_range, parallel_chunks_mut, parallel_for, parallel_for_chunks, parallel_map,
    parallel_reduce, tree_combine,
};
pub use pool::{
    current_num_threads, global, pools_built, with_current, worker_threads_spawned, ThreadPool,
};

/// A ranks × threads decomposition of the host's cores — the in-process
/// analogue of the paper's "one MPI rank per GPU plus a CPU-thread slice"
/// node layout. `ranks` is the number of virtual-MPI rank threads and
/// `threads_per_rank` the width of the dedicated compute pool pinned to
/// each of them, so a layout uses `ranks × threads_per_rank` cores when it
/// [fits the host](RankLayout::fits_host).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankLayout {
    /// Number of virtual-MPI ranks (one OS thread each).
    pub ranks: usize,
    /// Compute threads pinned to each rank (a dedicated [`ThreadPool`]).
    pub threads_per_rank: usize,
}

impl RankLayout {
    /// A `ranks × threads_per_rank` layout (both clamped to at least 1).
    pub fn new(ranks: usize, threads_per_rank: usize) -> Self {
        RankLayout {
            ranks: ranks.max(1),
            threads_per_rank: threads_per_rank.max(1),
        }
    }

    /// The host's available parallelism (1 if it cannot be queried).
    pub fn host_cores() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Cores (compute threads) this layout occupies,
    /// `ranks × threads_per_rank` — the quantity a job server charges
    /// against its core budget.
    pub fn cores(&self) -> usize {
        self.ranks * self.threads_per_rank
    }

    /// Whether `ranks × threads_per_rank` fits the host's cores.
    /// Oversubscription is allowed (it cannot change results — the
    /// determinism contract is schedule-independent) but contends for
    /// cores; the benchmark records `host_cores` and reports rows that
    /// need more as not applicable.
    pub fn fits_host(&self) -> bool {
        self.cores() <= Self::host_cores()
    }

    /// Validate the layout: both extents must be nonzero and their
    /// product ([`RankLayout::cores`]) must fit a `usize`. Returns a
    /// human-readable complaint for builders to wrap in their error type.
    pub fn validate(&self) -> Result<(), String> {
        if self.ranks == 0 {
            return Err("rank layout needs at least 1 rank".into());
        }
        if self.threads_per_rank == 0 {
            return Err("rank layout needs at least 1 thread per rank".into());
        }
        if self.ranks.checked_mul(self.threads_per_rank).is_none() {
            return Err(format!(
                "rank layout {} × {} overflows the core count",
                self.ranks, self.threads_per_rank
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_layout_shapes_and_validation() {
        let l = RankLayout::new(3, 2);
        assert_eq!(l.cores(), 6);
        assert!(l.validate().is_ok());
        // constructor clamps; a hand-built zero layout fails validation
        assert_eq!(RankLayout::new(0, 0), RankLayout::new(1, 1));
        assert!(RankLayout {
            ranks: 0,
            threads_per_rank: 2
        }
        .validate()
        .is_err());
        assert!(RankLayout {
            ranks: 2,
            threads_per_rank: 0
        }
        .validate()
        .is_err());
        // a 1×1 layout always fits
        assert!(RankLayout::new(1, 1).fits_host());
        assert!(RankLayout::host_cores() >= 1);
    }
}
