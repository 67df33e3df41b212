//! Point-to-point messaging and collectives of one rank's world (the rank
//! threads themselves belong to [`crate::RankEngine`]).

use crate::stats::CommStats;
use pt_num::{c32, c64};
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

impl Comm {
    /// Assemble a communicator handle from the world channels
    /// [`crate::RankEngine::new`] wired.
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
    use crate::{RankEngine, StatsSnapshot};
    use pt_par::RankLayout;

    /// Run `f` once on a fresh `np × 1` engine.
    fn on_ranks<T: Send + 'static>(
        np: usize,
        wire: Wire,
        f: impl Fn(&mut Comm) -> T + Sync,
    ) -> (Vec<T>, StatsSnapshot) {
        RankEngine::new(RankLayout::new(np, 1), wire)
            .run(f)
            .expect("fresh engine")
    }

    #[test]
    fn bcast_delivers_to_all_ranks() {
        for np in [1usize, 2, 3, 4, 5, 8] {
            for root in [0, np - 1] {
                let (out, stats) = on_ranks(np, Wire::F64, |comm| {
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
        let (out, stats) = on_ranks(4, Wire::F32, |comm| {
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
            let (out, _) = on_ranks(np, Wire::F64, |comm| {
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
        let (out, _) = on_ranks(np, Wire::F64, |comm| {
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
        let (out, stats) = on_ranks(3, Wire::F64, |comm| {
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
        let (_, stats32) = on_ranks(3, Wire::F32, |comm| {
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
                let (out, stats) = on_ranks(np, Wire::F64, |comm| {
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
        let (out, _) = on_ranks(3, Wire::F64, |comm| {
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
        let (out, _) = on_ranks(2, Wire::F64, |comm| {
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
