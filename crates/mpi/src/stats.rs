//! Per-operation-class communication counters.
//!
//! Table 2 of the paper breaks total time into `MPI_Bcast`, `MPI_Alltoallv`,
//! `MPI_Allreduce`, `MPI_AllGatherv` and memcpy classes. Only broadcasts,
//! allreduces and point-to-point messages travel here; the `Alltoallv` and
//! `AllGatherv` classes are Alg. 3's layout flips, modelled in `pt-perf`
//! only. These counters collect the volumes (bytes) and call counts of the
//! classes that travel, so tests can check the §3.2 communication model.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic counters (one instance per communicator world).
#[derive(Debug, Default)]
pub struct CommStats {
    /// Bytes moved by broadcast operations (summed over receivers).
    pub bcast_bytes: AtomicU64,
    /// Broadcast call count (per-rank calls).
    pub bcast_calls: AtomicU64,
    /// Bytes moved by allreduce (summed over the reduce+bcast tree).
    pub allreduce_bytes: AtomicU64,
    /// Allreduce call count.
    pub allreduce_calls: AtomicU64,
    /// Bytes moved by raw point-to-point sends.
    pub p2p_bytes: AtomicU64,
}

/// A plain-old-data copy of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Bcast bytes.
    pub bcast_bytes: u64,
    /// Bcast calls.
    pub bcast_calls: u64,
    /// Allreduce bytes.
    pub allreduce_bytes: u64,
    /// Allreduce calls.
    pub allreduce_calls: u64,
    /// Point-to-point bytes.
    pub p2p_bytes: u64,
}

impl StatsSnapshot {
    /// Counter-wise difference `self − earlier`: the traffic of whatever
    /// ran between two [`CommStats::snapshot`] reads. The persistent rank
    /// engine uses this to report per-job volumes from its long-lived
    /// world counters.
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            bcast_bytes: self.bcast_bytes - earlier.bcast_bytes,
            bcast_calls: self.bcast_calls - earlier.bcast_calls,
            allreduce_bytes: self.allreduce_bytes - earlier.allreduce_bytes,
            allreduce_calls: self.allreduce_calls - earlier.allreduce_calls,
            p2p_bytes: self.p2p_bytes - earlier.p2p_bytes,
        }
    }

    /// Total bytes moved across every operation class — the single "wire
    /// bytes" figure per-job telemetry folds into its counters.
    pub fn total_bytes(&self) -> u64 {
        self.bcast_bytes + self.allreduce_bytes + self.p2p_bytes
    }
}

impl CommStats {
    /// Read all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            bcast_bytes: self.bcast_bytes.load(Ordering::Relaxed),
            bcast_calls: self.bcast_calls.load(Ordering::Relaxed),
            allreduce_bytes: self.allreduce_bytes.load(Ordering::Relaxed),
            allreduce_calls: self.allreduce_calls.load(Ordering::Relaxed),
            p2p_bytes: self.p2p_bytes.load(Ordering::Relaxed),
        }
    }

    /// Add `n` bytes to a class counter.
    pub(crate) fn add(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}
