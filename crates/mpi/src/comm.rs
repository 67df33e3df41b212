//! Point-to-point messaging and collectives of one rank's world (the rank
//! threads themselves belong to [`crate::RankEngine`]). Every payload
//! travels at full `f64` precision — the wire the bit-for-bit layout
//! invariance of the distributed kernels rests on.

use crate::stats::CommStats;
use pt_num::c64;
// pt-analyze: allow(nondeterministic-iteration) — HashMap is keyed-lookup-only here (the Comm stash below); it is never iterated
use std::collections::{HashMap, VecDeque};
use std::panic::panic_any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// Panic payload of a rank that aborted because a *peer* died (the poison
/// cascade below, or a send to a peer that already left the world). Kept
/// distinguishable from real failures so the job re-raises the original
/// defect, not a secondary "peer died" panic.
pub(crate) struct PeerDied(pub(crate) String);

/// Process-wide count of rank threads ever spawned by
/// [`crate::RankEngine::new`]. Spawn-once acceptance tests read this
/// through [`rank_threads_spawned`] to prove a multi-step run created its
/// rank team exactly once.
static RANK_THREADS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Total rank threads spawned by this process so far (monotone counter;
/// take a delta around the region under test).
pub fn rank_threads_spawned() -> usize {
    RANK_THREADS_SPAWNED.load(Ordering::Relaxed)
}

pub(crate) fn note_rank_thread_spawned() {
    RANK_THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
}

/// Wire precision of complex payloads. A single precision is left: every
/// message is `f64`, because a quantized wire would make the bits of a run
/// depend on its rank layout. The enum stays only because the frozen
/// `benchmark/src/layers.rs` names `Wire::F64` in its
/// `RankEngine::new(layout, Wire::F64)` and `RunCheckpoint::write` calls,
/// which keep the parameter and ignore it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Wire {
    /// Full double precision on the wire.
    F64,
}

/// A tagged message between ranks.
#[derive(Clone)]
pub(crate) enum Payload {
    C64(Vec<c64>),
    F64(Vec<f64>),
}

impl Payload {
    fn into_c64(self) -> Vec<c64> {
        match self {
            Payload::C64(v) => v,
            Payload::F64(_) => panic!("type mismatch: expected complex payload"),
        }
    }

    fn into_f64(self) -> Vec<f64> {
        match self {
            Payload::F64(v) => v,
            Payload::C64(_) => panic!("type mismatch: expected real payload"),
        }
    }
}

pub(crate) struct Envelope {
    src: usize,
    tag: u64,
    payload: Payload,
}

/// Per-rank communicator handle (the `MPI_COMM_WORLD` of a virtual run).
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Envelope>>,
    receiver: Receiver<Envelope>,
    /// out-of-order message stash (FIFO per (src, tag) key)
    // pt-analyze: allow(nondeterministic-iteration) — accessed only by exact (src, tag) key (entry/get_mut/remove); no code path iterates the map, so its order can't leak into results
    stash: HashMap<(usize, u64), VecDeque<Payload>>,
    stats: Arc<CommStats>,
    /// Armed by [`Comm::fail_after_sends`]: point-to-point sends still to
    /// go out, and the panic message that replaces the next one.
    fault: Option<(usize, String)>,
}

impl Comm {
    /// Assemble a communicator handle from the world channels
    /// [`crate::RankEngine::new`] wired.
    pub(crate) fn from_parts(
        rank: usize,
        size: usize,
        senders: Vec<Sender<Envelope>>,
        receiver: Receiver<Envelope>,
        stats: Arc<CommStats>,
    ) -> Self {
        Comm {
            rank,
            size,
            senders,
            receiver,
            stash: HashMap::new(), // pt-analyze: allow(nondeterministic-iteration) — construction of the keyed-lookup-only stash above
            stats,
            fault: None,
        }
    }

    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> crate::StatsSnapshot {
        self.stats.snapshot()
    }

    fn send_payload(&self, dst: usize, tag: u64, payload: Payload) {
        let envelope = Envelope {
            src: self.rank,
            tag,
            payload,
        };
        if self.senders[dst].send(envelope).is_err() {
            // only a rank that died drops its receiver mid-job: this is a
            // cascade of that death, never the root cause
            panic_any(PeerDied(format!(
                "virtual MPI: rank {dst} died before rank {} could send it tag {tag:#x}",
                self.rank
            )));
        }
    }

    fn recv_payload(&mut self, src: usize, tag: u64) -> Payload {
        if let Some(q) = self.stash.get_mut(&(src, tag)) {
            if let Some(p) = q.pop_front() {
                return p;
            }
        }
        loop {
            let env = self.receiver.recv().expect("sender hung up");
            if env.tag == TAG_POISON {
                // a peer died; abort this rank too (see poison_peers)
                panic_any(PeerDied(format!(
                    "virtual MPI: rank {} died while rank {} was waiting for rank {src}, tag {tag:#x}",
                    env.src, self.rank
                )));
            }
            if env.src == src && env.tag == tag {
                return env.payload;
            }
            self.stash
                .entry((env.src, env.tag))
                .or_default()
                .push_back(env.payload);
        }
    }

    /// Wake every peer that might be blocked waiting on this rank: called
    /// when this rank's closure panicked, so a blocked `recv` turns into
    /// a job abort instead of a deadlock. Sends are best-effort (a peer
    /// that already finished has dropped its receiver).
    pub(crate) fn poison_peers(&self) {
        for (dst, tx) in self.senders.iter().enumerate() {
            if dst != self.rank {
                let _ = tx.send(Envelope {
                    src: self.rank,
                    tag: TAG_POISON,
                    payload: Payload::F64(Vec::new()),
                });
            }
        }
    }

    /// Fault injection for tests of rank death: this rank lets `sends`
    /// more [`Comm::send_c64`] calls go out, then panics with `cause` in
    /// place of the next — a rank dying between two point-to-point
    /// messages. A rank's `Comm` lives as long as its
    /// [`crate::RankEngine`], so one job can arm it for the next.
    pub fn fail_after_sends(&mut self, sends: usize, cause: &str) {
        self.fault = Some((sends, cause.to_string()));
    }

    /// Point-to-point send of complex data.
    pub fn send_c64(&mut self, dst: usize, tag: u64, data: &[c64]) {
        match self.fault.take() {
            Some((0, cause)) => panic!("{cause}"),
            Some((left, cause)) => self.fault = Some((left - 1, cause)),
            None => {}
        }
        self.stats
            .add(&self.stats.p2p_bytes, 16 * data.len() as u64);
        self.send_payload(dst, tag, Payload::C64(data.to_vec()));
    }

    /// Point-to-point receive of complex data.
    pub fn recv_c64(&mut self, src: usize, tag: u64) -> Vec<c64> {
        self.recv_payload(src, tag).into_c64()
    }

    /// Binomial-tree broadcast under every collective that broadcasts:
    /// `root` passes its payload in and every rank gets the root's back. A rank receives from the parent
    /// named by the lowest set bit of its root-relative rank `r`, then
    /// forwards to the children `r + mask` for every `mask` below that
    /// bit. Byte accounting is the caller's: each collective counts its
    /// own class.
    fn bcast_tree(&mut self, root: usize, tag: u64, mut payload: Payload) -> Payload {
        let p = self.size;
        let r = (self.rank + p - root) % p;
        let lsb = if r == 0 {
            p.next_power_of_two()
        } else {
            r & r.wrapping_neg()
        };
        if r != 0 {
            payload = self.recv_payload((r - lsb + root) % p, tag);
        }
        let mut mask = 1usize;
        while mask < lsb && r + mask < p {
            self.send_payload((r + mask + root) % p, tag, payload.clone());
            mask <<= 1;
        }
        payload
    }

    /// Binomial-tree broadcast of complex data from `root` (the Alg. 2
    /// wavefunction broadcast). Counts received bytes like the paper's §7
    /// receiving-side analysis.
    pub fn bcast_c64(&mut self, root: usize, data: &mut Vec<c64>) {
        self.stats.add(&self.stats.bcast_calls, 1);
        let mine = Payload::C64(std::mem::take(data));
        *data = self.bcast_tree(root, TAG_BCAST, mine).into_c64();
        if self.rank != root {
            self.stats
                .add(&self.stats.bcast_bytes, 16 * data.len() as u64);
        }
    }

    /// Allreduce (sum) of f64 data: binomial reduce to rank 0 + broadcast.
    pub fn allreduce_sum_f64(&mut self, data: &mut [f64]) {
        self.stats.add(&self.stats.allreduce_calls, 1);
        let p = self.size;
        if p == 1 {
            return;
        }
        let bytes = 8 * data.len() as u64;
        // reduce to 0 along a binomial tree
        let mut mask = 1usize;
        while mask < p {
            if self.rank & mask != 0 {
                let dst = self.rank & !mask;
                self.send_payload(dst, TAG_REDUCE, Payload::F64(data.to_vec()));
                self.stats.add(&self.stats.allreduce_bytes, bytes);
                break;
            } else if (self.rank | mask) < p {
                let src = self.rank | mask;
                let v = self.recv_payload(src, TAG_REDUCE).into_f64();
                for (d, s) in data.iter_mut().zip(v) {
                    *d += s;
                }
            }
            mask <<= 1;
        }
        // broadcast result (counted as allreduce traffic, matching how the
        // paper lumps the whole MPI_Allreduce in one class)
        let mine = Payload::F64(if self.rank == 0 {
            data.to_vec()
        } else {
            Vec::new()
        });
        let sum = self.bcast_tree(0, TAG_REDUCE_BC, mine).into_f64();
        if self.rank != 0 {
            self.stats.add(&self.stats.allreduce_bytes, bytes);
        }
        data.copy_from_slice(&sum);
    }

    /// Full barrier (reduce + broadcast of an empty token).
    pub fn barrier(&mut self) {
        let mut token = [0.0f64; 1];
        self.allreduce_sum_f64(&mut token);
    }
}

const TAG_BCAST: u64 = 1 << 32;
const TAG_REDUCE: u64 = 2 << 32;
const TAG_REDUCE_BC: u64 = 3 << 32;
/// Reserved control tag: "the sending rank is dead" (never stashed).
const TAG_POISON: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RankEngine, StatsSnapshot};
    use pt_par::RankLayout;

    /// Run `f` once on a fresh `np × 1` engine.
    fn on_ranks<T: Send + 'static>(
        np: usize,
        f: impl Fn(&mut Comm) -> T + Sync,
    ) -> (Vec<T>, StatsSnapshot) {
        RankEngine::new(RankLayout::new(np, 1), Wire::F64)
            .run(f)
            .expect("fresh engine")
    }

    #[test]
    fn bcast_delivers_to_all_ranks() {
        for np in [1usize, 2, 3, 4, 5, 8] {
            for root in [0, np - 1] {
                let (out, stats) = on_ranks(np, |comm| {
                    let mut data = if comm.rank() == root {
                        vec![c64::new(1.5, -2.5); 100]
                    } else {
                        Vec::new()
                    };
                    comm.bcast_c64(root, &mut data);
                    data
                });
                for v in &out {
                    assert_eq!(v.len(), 100);
                    assert_eq!(v[0], c64::new(1.5, -2.5));
                }
                // received volume: (np − 1) receivers × 1600 bytes
                assert_eq!(stats.bcast_bytes, (np as u64 - 1) * 1600, "np={np}");
            }
        }
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        for np in [1usize, 2, 3, 5, 7] {
            let (out, _) = on_ranks(np, |comm| {
                let mut data = vec![comm.rank() as f64 + 1.0, 10.0];
                comm.allreduce_sum_f64(&mut data);
                data
            });
            let want0 = (1..=np).sum::<usize>() as f64;
            for v in out {
                assert_eq!(v[0], want0);
                assert_eq!(v[1], 10.0 * np as f64);
            }
        }
    }

    #[test]
    fn barrier_and_out_of_order_tags() {
        // ranks exchange p2p messages in a crossing pattern while using
        // collectives, exercising the stash
        let (out, _) = on_ranks(3, |comm| {
            let r = comm.rank();
            let next = (r + 1) % 3;
            let prev = (r + 2) % 3;
            comm.send_c64(next, 7, &[c64::real(r as f64)]);
            comm.barrier();
            let v = comm.recv_c64(prev, 7);
            v[0].re
        });
        assert_eq!(out, vec![2.0, 0.0, 1.0]);
    }

    #[test]
    fn stash_preserves_fifo_order_per_tag() {
        // rank 0 sends a burst of same-tag messages to rank 1 while rank 1
        // first drains a *different* tag, forcing the whole burst through
        // the out-of-order stash; FIFO order must survive
        let (out, _) = on_ranks(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..32 {
                    comm.send_c64(1, 7, &[c64::real(i as f64)]);
                }
                comm.send_c64(1, 9, &[c64::real(-1.0)]);
                Vec::new()
            } else {
                // tag 9 arrives last, so every tag-7 message gets stashed
                let sentinel = comm.recv_c64(0, 9);
                assert_eq!(sentinel[0].re, -1.0);
                (0..32).map(|_| comm.recv_c64(0, 7)[0].re).collect()
            }
        });
        assert_eq!(out[1], (0..32).map(|i| i as f64).collect::<Vec<_>>());
    }
}
