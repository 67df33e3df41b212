//! Rank threads, point-to-point messaging and collectives.

use crate::stats::CommStats;
use pt_num::{c32, c64};
use pt_par::{RankLayout, ThreadPool};
use std::any::Any;
// pt-analyze: allow(nondeterministic-iteration) — HashMap is keyed-lookup-only here (the Comm stash below); it is never iterated
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// Panic payload of a rank that aborted because a *peer* died (the poison
/// cascade below). Kept distinguishable from real failures so the job
/// re-raises the original defect, not a secondary "peer died" panic.
pub(crate) struct PeerDied(pub(crate) String);

/// Process-wide count of rank threads ever spawned, by the `run_ranks`
/// family and by [`crate::RankEngine`] alike. Spawn-once acceptance tests
/// read this through [`rank_threads_spawned`] to prove a multi-step run
/// created its rank team exactly once.
static RANK_THREADS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Total rank threads spawned by this process so far (monotone counter;
/// take a delta around the region under test).
pub fn rank_threads_spawned() -> usize {
    RANK_THREADS_SPAWNED.load(Ordering::Relaxed)
}

pub(crate) fn note_rank_thread_spawned() {
    RANK_THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
}

/// Wire precision for complex payloads (§3.2 optimization 4: sending
/// wavefunctions in single precision halves the broadcast volume; values
/// are converted back to f64 before any computation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Wire {
    /// Full double precision on the wire.
    F64,
    /// Single-precision wire format (half the bytes, ~1e-7 relative loss).
    F32,
}

/// A tagged message between ranks.
pub(crate) enum Payload {
    C64(Vec<c64>),
    C32(Vec<c32>),
    F64(Vec<f64>),
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
    wire: Wire,
}

/// Spawn `np` rank threads running `f(comm)` and return their results in
/// rank order. Panics in any rank propagate with their original payload
/// (failure injection semantics: a dead rank aborts the whole virtual job,
/// like a real MPI fault, and the panic message survives for tests to
/// assert on); peers blocked in a receive are poisoned awake, so the job
/// aborts instead of deadlocking. Each rank inherits the caller's compute
/// pool; use [`run_ranks_pinned`] to give every rank its own dedicated
/// pool.
pub fn run_ranks<T, F>(np: usize, wire: Wire, f: F) -> (Vec<T>, crate::StatsSnapshot)
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    run_ranks_impl(np, wire, None, f)
}

/// [`run_ranks`] with rank-pinned compute pools: spawn `layout.ranks` rank
/// threads and install a dedicated `layout.threads_per_rank`-wide
/// [`ThreadPool`] on each for the whole lifetime of its closure — the
/// in-process analogue of the paper's one-GPU-plus-CPU-slice per MPI rank.
/// Every `pt_par` primitive (and hence every parallel hot path in the
/// distributed Alg. 2/3 routines) reached from `f` on that rank runs on
/// its own pool, so ranks never contend for the global pool's workers.
pub fn run_ranks_pinned<T, F>(
    layout: RankLayout,
    wire: Wire,
    f: F,
) -> (Vec<T>, crate::StatsSnapshot)
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    run_ranks_impl(layout.ranks, wire, Some(layout.threads_per_rank), f)
}

fn run_ranks_impl<T, F>(
    np: usize,
    wire: Wire,
    threads_per_rank: Option<usize>,
    f: F,
) -> (Vec<T>, crate::StatsSnapshot)
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    assert!(np > 0);
    let stats = Arc::new(CommStats::default());
    let mut txs = Vec::with_capacity(np);
    let mut rxs = Vec::with_capacity(np);
    for _ in 0..np {
        let (tx, rx) = channel();
        txs.push(tx);
        rxs.push(rx);
    }
    let mut results: Vec<Option<T>> = (0..np).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(np);
        for (rank, (rx, slot)) in rxs.drain(..).zip(results.iter_mut()).enumerate() {
            let txs = txs.clone();
            let stats = Arc::clone(&stats);
            let fref = &f;
            note_rank_thread_spawned();
            handles.push(scope.spawn(move || {
                let mut comm = Comm::from_parts(rank, np, txs, rx, stats, wire);
                let r = catch_unwind(AssertUnwindSafe(|| match threads_per_rank {
                    // the pool lives exactly as long as the rank closure:
                    // built before, installed around, dropped after
                    Some(n) => ThreadPool::new(n).install(|| fref(&mut comm)),
                    None => fref(&mut comm),
                }));
                match r {
                    Ok(v) => *slot = Some(v),
                    Err(payload) => {
                        // a dead rank can never answer its peers: poison
                        // them so blocked receives abort the job (a real
                        // MPI fault) instead of deadlocking it
                        comm.poison_peers();
                        resume_unwind(payload);
                    }
                }
            }));
        }
        // Join every rank before re-raising so no handle leaks, then
        // propagate the first (rank-order) *original* panic — `expect`
        // would replace the injected message with a generic one (and a
        // secondary PeerDied cascade would mask the root cause), so
        // failure-injection tests couldn't assert on it.
        let mut first_original: Option<Box<dyn Any + Send>> = None;
        let mut first_cascade: Option<Box<dyn Any + Send>> = None;
        for h in handles {
            if let Err(payload) = h.join() {
                if payload.downcast_ref::<PeerDied>().is_none() {
                    first_original.get_or_insert(payload);
                } else {
                    first_cascade.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_original.or(first_cascade) {
            match payload.downcast::<PeerDied>() {
                // unwrap the cascade marker so the message stays visible
                Ok(peer_died) => resume_unwind(Box::new(peer_died.0)),
                Err(payload) => resume_unwind(payload),
            }
        }
    });
    let out = results
        .into_iter()
        .map(|r| r.expect("rank produced no result"))
        .collect();
    let snap = stats.snapshot();
    (out, snap)
}

impl Comm {
    /// Assemble a communicator handle from pre-wired world channels. The
    /// `run_ranks` family and the persistent [`crate::RankEngine`] build
    /// their worlds through this single constructor so both share the
    /// exact same messaging semantics (stash, poison, stats).
    pub(crate) fn from_parts(
        rank: usize,
        size: usize,
        senders: Vec<Sender<Envelope>>,
        receiver: Receiver<Envelope>,
        stats: Arc<CommStats>,
        wire: Wire,
    ) -> Self {
        Comm {
            rank,
            size,
            senders,
            receiver,
            stash: HashMap::new(), // pt-analyze: allow(nondeterministic-iteration) — construction of the keyed-lookup-only stash above
            stats,
            wire,
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

    /// Wire precision in force for complex payloads.
    #[inline]
    pub fn wire(&self) -> Wire {
        self.wire
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> crate::StatsSnapshot {
        self.stats.snapshot()
    }

    fn send_payload(&self, dst: usize, tag: u64, payload: Payload) {
        self.senders[dst]
            .send(Envelope {
                src: self.rank,
                tag,
                payload,
            })
            .expect("receiver hung up");
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

    /// Point-to-point send of complex data (wire conversion applied).
    pub fn send_c64(&self, dst: usize, tag: u64, data: &[c64]) {
        let bytes = self.c64_wire_bytes(data.len());
        self.stats.add(&self.stats.p2p_bytes, bytes);
        match self.wire {
            Wire::F64 => self.send_payload(dst, tag, Payload::C64(data.to_vec())),
            Wire::F32 => self.send_payload(
                dst,
                tag,
                Payload::C32(data.iter().map(|z| z.to_c32()).collect()),
            ),
        }
    }

    /// Point-to-point receive of complex data.
    pub fn recv_c64(&mut self, src: usize, tag: u64) -> Vec<c64> {
        match self.recv_payload(src, tag) {
            Payload::C64(v) => v,
            Payload::C32(v) => v.into_iter().map(|z| z.to_c64()).collect(),
            Payload::F64(_) => panic!("type mismatch: expected complex payload"),
        }
    }

    fn c64_wire_bytes(&self, n: usize) -> u64 {
        match self.wire {
            Wire::F64 => 16 * n as u64,
            Wire::F32 => 8 * n as u64,
        }
    }

    /// Binomial-tree broadcast of complex data from `root` (the Alg. 2
    /// wavefunction broadcast). Counts received bytes like the paper's §7
    /// receiving-side analysis.
    pub fn bcast_c64(&mut self, root: usize, data: &mut Vec<c64>) {
        self.stats.add(&self.stats.bcast_calls, 1);
        let p = self.size;
        if p == 1 {
            return;
        }
        // relative rank
        let r = (self.rank + p - root) % p;
        // receive phase: the lowest set bit of r determines the parent
        if r != 0 {
            let lsb = r & r.wrapping_neg();
            let parent = (r - lsb + root) % p;
            let got = self.recv_payload(parent, TAG_BCAST);
            *data = match got {
                Payload::C64(v) => v,
                Payload::C32(v) => v.into_iter().map(|z| z.to_c64()).collect(),
                _ => panic!("bcast type mismatch"),
            };
            self.stats
                .add(&self.stats.bcast_bytes, self.c64_wire_bytes(data.len()));
        }
        // send phase: forward to children r + mask for mask < lsb(r)
        let lsb = if r == 0 {
            p.next_power_of_two()
        } else {
            r & r.wrapping_neg()
        };
        let mut mask = 1usize;
        while mask < p {
            if mask < lsb && r + mask < p {
                let child = (r + mask + root) % p;
                match self.wire {
                    Wire::F64 => self.send_payload(child, TAG_BCAST, Payload::C64(data.clone())),
                    Wire::F32 => self.send_payload(
                        child,
                        TAG_BCAST,
                        Payload::C32(data.iter().map(|z| z.to_c32()).collect()),
                    ),
                }
            }
            mask <<= 1;
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
                match self.recv_payload(src, TAG_REDUCE) {
                    Payload::F64(v) => {
                        for (d, s) in data.iter_mut().zip(v) {
                            *d += s;
                        }
                    }
                    _ => panic!("allreduce type mismatch"),
                }
            }
            mask <<= 1;
        }
        // broadcast result (counted as allreduce traffic, matching how the
        // paper lumps the whole MPI_Allreduce in one class)
        let mut tmp = if self.rank == 0 {
            data.to_vec()
        } else {
            Vec::new()
        };
        self.bcast_f64_internal(0, &mut tmp, TAG_REDUCE_BC, bytes);
        data.copy_from_slice(&tmp);
    }

    fn bcast_f64_internal(&mut self, root: usize, data: &mut Vec<f64>, tag: u64, bytes: u64) {
        let p = self.size;
        if p == 1 {
            return;
        }
        let r = (self.rank + p - root) % p;
        if r != 0 {
            let lsb = r & r.wrapping_neg();
            let parent = (r - lsb + root) % p;
            match self.recv_payload(parent, tag) {
                Payload::F64(v) => *data = v,
                _ => panic!("bcast type mismatch"),
            }
            self.stats.add(&self.stats.allreduce_bytes, bytes);
        }
        let lsb = if r == 0 {
            p.next_power_of_two()
        } else {
            r & r.wrapping_neg()
        };
        let mut mask = 1usize;
        while mask < p {
            if mask < lsb && r + mask < p {
                let child = (r + mask + root) % p;
                self.send_payload(child, tag, Payload::F64(data.clone()));
            }
            mask <<= 1;
        }
    }

    /// Pairwise `MPI_Alltoallv` for complex data: `send[j]` goes to rank
    /// `j`; returns the received blocks indexed by source rank. Used for
    /// the band-index ↔ G-space layout flips (Alg. 3 lines 1 and 6).
    pub fn alltoallv_c64(&mut self, send: Vec<Vec<c64>>) -> Vec<Vec<c64>> {
        assert_eq!(send.len(), self.size);
        self.stats.add(&self.stats.alltoallv_calls, 1);
        let p = self.size;
        let mut recv: Vec<Vec<c64>> = (0..p).map(|_| Vec::new()).collect();
        recv[self.rank] = send[self.rank].clone();
        for round in 1..p {
            let dst = (self.rank + round) % p;
            let src = (self.rank + p - round) % p;
            let bytes = self.c64_wire_bytes(send[dst].len());
            self.stats.add(&self.stats.alltoallv_bytes, bytes);
            match self.wire {
                Wire::F64 => {
                    self.send_payload(dst, TAG_A2A + round as u64, Payload::C64(send[dst].clone()))
                }
                Wire::F32 => self.send_payload(
                    dst,
                    TAG_A2A + round as u64,
                    Payload::C32(send[dst].iter().map(|z| z.to_c32()).collect()),
                ),
            }
            let got = self.recv_payload(src, TAG_A2A + round as u64);
            recv[src] = match got {
                Payload::C64(v) => v,
                Payload::C32(v) => v.into_iter().map(|z| z.to_c64()).collect(),
                _ => panic!("alltoallv type mismatch"),
            };
        }
        recv
    }

    /// `MPI_Allgatherv` for complex data: every rank contributes a block,
    /// all ranks receive all blocks indexed by source rank. Wire
    /// conversion applies like every other complex collective (an
    /// [`Wire::F32`] wire halves the volume at ~1e-7 relative loss). Used
    /// by the fixed-chunk overlap reduction of Alg. 3, where the *receiver*
    /// re-associates the partial sums in a rank-count-independent order.
    pub fn allgatherv_c64(&mut self, mine: &[c64]) -> Vec<Vec<c64>> {
        self.stats.add(&self.stats.allgatherv_calls, 1);
        let p = self.size;
        let mut out: Vec<Vec<c64>> = (0..p).map(|_| Vec::new()).collect();
        out[self.rank] = mine.to_vec();
        for round in 1..p {
            let dst = (self.rank + round) % p;
            let src = (self.rank + p - round) % p;
            self.stats.add(
                &self.stats.allgatherv_bytes,
                self.c64_wire_bytes(mine.len()),
            );
            match self.wire {
                Wire::F64 => {
                    self.send_payload(dst, TAG_AGV + round as u64, Payload::C64(mine.to_vec()))
                }
                Wire::F32 => self.send_payload(
                    dst,
                    TAG_AGV + round as u64,
                    Payload::C32(mine.iter().map(|z| z.to_c32()).collect()),
                ),
            }
            out[src] = match self.recv_payload(src, TAG_AGV + round as u64) {
                Payload::C64(v) => v,
                Payload::C32(v) => v.into_iter().map(|z| z.to_c64()).collect(),
                _ => panic!("allgatherv type mismatch"),
            };
        }
        out
    }

    /// Tree-structured replacement for the Alg. 3 chunk-overlap
    /// `allgatherv_c64` + linear combine: every rank contributes the
    /// partial sums of its *contiguous ascending* run of fixed-size
    /// chunks (`mine.len() / block` chunks of `block` elements each, in
    /// global chunk order), and every rank receives the full element-wise
    /// sum `0 ⊕ T_0 ⊕ T_1 ⊕ …` over all chunks of all ranks.
    ///
    /// Association is the whole contract. The old path gathered every
    /// rank's chunk list everywhere (O(n_chunks × block) received per
    /// rank) and re-folded ascending on each receiver. Here the pairwise
    /// tree over chunk indices is aligned with that ownership: each
    /// rank's local ascending fold is one subtree, subtrees are joined in
    /// a rank-ascending prefix chain (rank r adds its chunks onto the
    /// prefix over all chunks owned by ranks < r, starting from the same
    /// zeros), and the final sum is redistributed along a binomial tree
    /// from the last rank. The element-wise addition sequence is
    /// *identical* to the linear combine's, so the result is bit-for-bit
    /// the same while each rank now receives at most 2 × `block` values —
    /// O(block) instead of O(n_chunks × block), with O(log np) broadcast
    /// hops.
    ///
    /// Reduction traffic stays full f64 precision regardless of the wire
    /// (re-quantizing compounded prefix sums at every hop would degrade
    /// with rank count, and the volume is only `block` per hop); both
    /// bit-exactness across layouts and the [`Wire::F32`] volume savings
    /// on the bulk wavefunction traffic are preserved.
    pub fn tree_reduce_chunks_c64(&mut self, mine: &[c64], block: usize) -> Vec<c64> {
        assert!(block > 0, "chunk block size must be nonzero");
        assert_eq!(
            mine.len() % block,
            0,
            "partials must be whole chunks of the block size"
        );
        self.stats.add(&self.stats.tree_reduce_calls, 1);
        let p = self.size;
        // prefix phase: continue the ascending-chunk fold started by rank 0
        let mut acc = vec![c64::new(0.0, 0.0); block];
        if self.rank > 0 {
            match self.recv_payload(self.rank - 1, TAG_TREE) {
                Payload::C64(v) => acc = v,
                _ => panic!("tree reduce type mismatch"),
            }
            self.stats
                .add(&self.stats.tree_reduce_bytes, 16 * block as u64);
        }
        for chunk in mine.chunks_exact(block) {
            for (a, v) in acc.iter_mut().zip(chunk) {
                *a += *v;
            }
        }
        if self.rank + 1 < p {
            self.send_payload(self.rank + 1, TAG_TREE, Payload::C64(acc.clone()));
        }
        // redistribution phase: binomial broadcast from the last rank,
        // which is the only one holding the full sum
        let root = p - 1;
        let r = (self.rank + p - root) % p;
        if r != 0 {
            let lsb = r & r.wrapping_neg();
            let parent = (r - lsb + root) % p;
            match self.recv_payload(parent, TAG_TREE_BC) {
                Payload::C64(v) => acc = v,
                _ => panic!("tree reduce type mismatch"),
            }
            self.stats
                .add(&self.stats.tree_reduce_bytes, 16 * block as u64);
        }
        let lsb = if r == 0 {
            p.next_power_of_two()
        } else {
            r & r.wrapping_neg()
        };
        let mut mask = 1usize;
        while mask < p {
            if mask < lsb && r + mask < p {
                let child = (r + mask + root) % p;
                self.send_payload(child, TAG_TREE_BC, Payload::C64(acc.clone()));
            }
            mask <<= 1;
        }
        acc
    }

    /// Full barrier (reduce + broadcast of an empty token).
    pub fn barrier(&mut self) {
        let mut token = [0.0f64; 1];
        self.allreduce_sum_f64(&mut token);
    }
}

/// Rank count requested via `PT_NUM_RANKS` (default 1). The CI matrix
/// uses this the way `PT_NUM_THREADS` sizes the global compute pool — one
/// knob per axis of the ranks × threads composition.
pub fn env_ranks() -> usize {
    std::env::var("PT_NUM_RANKS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

const TAG_BCAST: u64 = 1 << 32;
const TAG_REDUCE: u64 = 2 << 32;
const TAG_REDUCE_BC: u64 = 3 << 32;
const TAG_A2A: u64 = 4 << 32;
const TAG_AGV: u64 = 5 << 32;
const TAG_TREE: u64 = 6 << 32;
const TAG_TREE_BC: u64 = 7 << 32;
/// Reserved control tag: "the sending rank is dead" (never stashed).
const TAG_POISON: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bcast_delivers_to_all_ranks() {
        for np in [1usize, 2, 3, 4, 5, 8] {
            for root in [0, np - 1] {
                let (out, stats) = run_ranks(np, Wire::F64, |comm| {
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
    fn bcast_f32_wire_halves_volume_and_loses_little() {
        let (out, stats) = run_ranks(4, Wire::F32, |comm| {
            let mut data = if comm.rank() == 0 {
                vec![c64::new(0.123456789, 9.87654321); 50]
            } else {
                Vec::new()
            };
            comm.bcast_c64(0, &mut data);
            data
        });
        assert_eq!(stats.bcast_bytes, 3 * 50 * 8);
        for v in out {
            assert!((v[0] - c64::new(0.123456789, 9.87654321)).abs() < 1e-6);
        }
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        for np in [1usize, 2, 3, 5, 7] {
            let (out, _) = run_ranks(np, Wire::F64, |comm| {
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
    fn alltoallv_transposes_blocks() {
        let np = 5;
        let (out, _) = run_ranks(np, Wire::F64, |comm| {
            let r = comm.rank();
            let send: Vec<Vec<c64>> = (0..np)
                .map(|j| vec![c64::new(r as f64, j as f64); j + 1])
                .collect();
            comm.alltoallv_c64(send)
        });
        for (r, recv) in out.iter().enumerate() {
            for (src, block) in recv.iter().enumerate() {
                assert_eq!(block.len(), r + 1, "rank {r} from {src}");
                assert_eq!(block[0], c64::new(src as f64, r as f64));
            }
        }
    }

    #[test]
    fn allgatherv_c64_collects_everything_and_respects_the_wire() {
        let (out, stats) = run_ranks(3, Wire::F64, |comm| {
            let mine = vec![c64::new(comm.rank() as f64, -1.0); comm.rank() + 2];
            comm.allgatherv_c64(&mine)
        });
        for recv in out {
            for (src, block) in recv.iter().enumerate() {
                assert_eq!(block.len(), src + 2);
                assert!(block.iter().all(|&z| z == c64::new(src as f64, -1.0)));
            }
        }
        // each rank sends its block to p−1 peers at 16 bytes per c64
        assert_eq!(stats.allgatherv_bytes, 2 * (2 + 3 + 4) * 16);
        // f32 wire halves the volume
        let (_, stats32) = run_ranks(3, Wire::F32, |comm| {
            let mine = vec![c64::new(comm.rank() as f64, -1.0); comm.rank() + 2];
            comm.allgatherv_c64(&mine)
        });
        assert_eq!(stats32.allgatherv_bytes, 2 * (2 + 3 + 4) * 8);
    }

    #[test]
    fn tree_reduce_chunks_is_bit_identical_to_the_linear_combine() {
        let block = 4usize;
        for np in [1usize, 2, 3, 5, 8] {
            for nc in [0usize, 1, 3, 7, 16] {
                // deterministic chunk data with nontrivial rounding
                let chunks: Vec<Vec<c64>> = (0..nc)
                    .map(|c| {
                        (0..block)
                            .map(|i| {
                                let x = ((c * 31 + i * 7 + 1) as f64).sin() * 1e3;
                                let y = ((c * 17 + i * 13 + 2) as f64).cos() / 3.0;
                                c64::new(x, y)
                            })
                            .collect()
                    })
                    .collect();
                // reference: the zeros-initialized ascending linear fold
                // the old allgatherv combine performed on every receiver
                let mut want = vec![c64::new(0.0, 0.0); block];
                for ch in &chunks {
                    for (w, v) in want.iter_mut().zip(ch) {
                        *w += *v;
                    }
                }
                let (base, rem) = (nc / np, nc % np);
                let (out, stats) = run_ranks(np, Wire::F64, |comm| {
                    let r = comm.rank();
                    let start = r * base + r.min(rem);
                    let count = base + usize::from(r < rem);
                    let mine: Vec<c64> = chunks[start..start + count]
                        .iter()
                        .flatten()
                        .copied()
                        .collect();
                    comm.tree_reduce_chunks_c64(&mine, block)
                });
                for got in &out {
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.re.to_bits(), w.re.to_bits(), "np={np} nc={nc}");
                        assert_eq!(g.im.to_bits(), w.im.to_bits(), "np={np} nc={nc}");
                    }
                }
                // received volume: one prefix hop into each rank > 0 plus
                // one broadcast delivery to each non-root
                let hops = 2 * (np as u64 - 1);
                assert_eq!(stats.tree_reduce_bytes, hops * block as u64 * 16);
                assert_eq!(stats.tree_reduce_calls, np as u64);
            }
        }
    }

    #[test]
    fn barrier_and_out_of_order_tags() {
        // ranks exchange p2p messages in a crossing pattern while using
        // collectives, exercising the stash
        let (out, _) = run_ranks(3, Wire::F64, |comm| {
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
    #[should_panic(expected = "injected rank failure")]
    fn rank_failure_aborts_job_with_original_payload() {
        // the panic that aborts the job must carry the injected message
        // (not a generic "rank thread panicked") so failure-injection
        // tests can assert on what actually went wrong
        let _ = run_ranks(3, Wire::F64, |comm| {
            if comm.rank() == 1 {
                panic!("injected rank failure");
            }
            // others would block forever waiting on the dead rank if the
            // scope didn't propagate; they return immediately here.
            comm.rank()
        });
    }

    #[test]
    #[should_panic(expected = "rank 1 hardware fault")]
    fn rank_panic_unblocks_peers_waiting_on_it() {
        // ranks 0 and 2 block on a message only rank 1 could send; rank
        // 1's death must poison them awake and the job must re-raise the
        // *original* defect, not the secondary peer-died cascade
        let _ = run_ranks(3, Wire::F64, |comm| {
            if comm.rank() == 1 {
                panic!("rank 1 hardware fault");
            }
            let v = comm.recv_c64(1, 99);
            v.len()
        });
    }

    #[test]
    fn first_rank_panic_payload_wins_in_rank_order() {
        // two ranks die with different messages; the re-raised payload is
        // rank 0's (deterministic pick, independent of finish order)
        let r = std::panic::catch_unwind(|| {
            run_ranks(4, Wire::F64, |comm| {
                match comm.rank() {
                    0 => panic!("failure on rank 0"),
                    2 => panic!("failure on rank 2"),
                    _ => {}
                }
                comm.rank()
            })
        });
        let payload = r.expect_err("job must abort");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .expect("panic payload is a string");
        assert_eq!(msg, "failure on rank 0");
    }

    #[test]
    fn stash_preserves_fifo_order_per_tag() {
        // rank 0 sends a burst of same-tag messages to rank 1 while rank 1
        // first drains a *different* tag, forcing the whole burst through
        // the out-of-order stash; FIFO order must survive
        let (out, _) = run_ranks(2, Wire::F64, |comm| {
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

    #[test]
    fn pinned_ranks_get_their_own_pools() {
        use pt_par::current_num_threads;
        let layout = RankLayout::new(3, 2);
        let (widths, _) = run_ranks_pinned(layout, Wire::F64, |comm| {
            // the rank closure sees its dedicated pool, not the global one
            let w = current_num_threads();
            comm.barrier();
            w
        });
        assert_eq!(widths, vec![2, 2, 2]);
        // and the collectives still work under pinned pools
        let (sums, _) = run_ranks_pinned(RankLayout::new(2, 3), Wire::F64, |comm| {
            let mut v = vec![comm.rank() as f64 + 1.0];
            comm.allreduce_sum_f64(&mut v);
            v[0]
        });
        assert_eq!(sums, vec![3.0, 3.0]);
    }
}
