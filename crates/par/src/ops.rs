//! Deterministic data-parallel primitives over the current pool.
//!
//! Every primitive that combines results does so **chunk-ordered**: the
//! index space is cut into contiguous chunks by a policy that depends only
//! on the problem size (never on the thread count), each chunk is
//! processed sequentially in index order, and partial results are combined
//! in chunk order. Floating-point results are therefore bit-identical for
//! any `PT_NUM_THREADS` — the property `tests/parallel_determinism.rs`
//! pins down.

use crate::pool::with_current;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::Range;

/// Upper bound on the number of chunks any index space is cut into.
/// Fixed (thread-count independent) so reductions are deterministic;
/// large enough to load-balance pools up to ~16 threads.
const MAX_CHUNKS: usize = 64;

/// Number of chunks the deterministic policy cuts `n` items into.
pub fn chunk_count(n: usize) -> usize {
    n.min(MAX_CHUNKS)
}

/// Index range of chunk `c` when `n` items are cut into `k` chunks
/// (contiguous, sizes differing by at most one).
pub fn chunk_range(n: usize, k: usize, c: usize) -> Range<usize> {
    debug_assert!(c < k && k <= n.max(1));
    let base = n / k;
    let rem = n % k;
    let start = c * base + c.min(rem);
    start..start + base + usize::from(c < rem)
}

/// Run `body(i)` for every `i in 0..n`, one pool task per index (dynamic
/// load balancing — right for coarse items like bands or orbital pairs).
pub fn parallel_for(n: usize, body: impl Fn(usize) + Sync) {
    with_current(|p| p.run(n, &body));
}

/// Run `body(chunk, range)` over the deterministic chunk decomposition of
/// `0..n`, one pool task per chunk.
pub fn parallel_for_chunks(n: usize, body: impl Fn(usize, Range<usize>) + Sync) {
    let k = chunk_count(n);
    with_current(|p| p.run(k, &|c| body(c, chunk_range(n, k, c))));
}

/// Split `data` into chunks of `size` (last one possibly shorter) and run
/// `body(chunk_index, chunk)` with one pool task per chunk — the building
/// block for band-batched FFTs and GEMM panels.
pub fn parallel_chunks_mut<T: Send>(
    data: &mut [T],
    size: usize,
    body: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(size > 0, "chunk size must be positive");
    let len = data.len();
    let n_chunks = len.div_ceil(size);
    let base = SendPtr(data.as_mut_ptr());
    with_current(|p| {
        p.run(n_chunks, &|c| {
            let start = c * size;
            let end = (start + size).min(len);
            // SAFETY: disjoint subslices — each chunk index is claimed
            // exactly once, so no two tasks alias; `start..end` is clamped
            // to `len`, and `data` outlives the pool run (run blocks).
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
            body(c, chunk);
        });
    });
}

/// Compute `f(i)` for every `i in 0..n` in parallel, returning the results
/// in index order. `f` runs on many workers at once, so it is `Fn + Sync`
/// and cannot write what it captures:
///
/// ```compile_fail,E0594
/// let mut total = 0;
/// pt_par::parallel_map(4, |i| total += i);
/// ```
pub fn parallel_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
    // SAFETY: MaybeUninit needs no initialization.
    unsafe { out.set_len(n) };
    let base = SendPtr(out.as_mut_ptr());
    parallel_for_chunks(n, |_c, range| {
        for i in range {
            // SAFETY: disjoint writes — every index belongs to exactly one
            // chunk, and `i < n = out.len()`. (If `f` panics, unwritten
            // slots are never read and written ones leak — safe, and only
            // on an already-panicking path.)
            unsafe { base.get().add(i).write(MaybeUninit::new(f(i))) };
        }
    });
    let mut out = ManuallyDrop::new(out);
    // SAFETY: every slot was written exactly once above.
    unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<T>(), n, out.capacity()) }
}

/// Deterministic parallel reduction over `0..n`: each chunk folds its
/// indices in order (`acc = fold(acc, i)` from `identity()`), then the
/// per-chunk accumulators are combined by a fixed pairwise tree over the
/// chunk order. The result depends only on `n` — never on thread count.
/// Accumulate through `fold`'s return value: the closures are `Fn + Sync`,
/// so a captured field cannot be assigned from them:
///
/// ```compile_fail,E0594
/// struct Cell { value: usize }
/// let mut shared = Cell { value: 0 };
/// pt_par::parallel_reduce(4, || 0, |acc, i| { shared.value = i; acc + i }, |a, b| a + b);
/// ```
pub fn parallel_reduce<T: Send>(
    n: usize,
    identity: impl Fn() -> T + Sync,
    fold: impl Fn(T, usize) -> T + Sync,
    combine: impl Fn(T, T) -> T,
) -> T {
    let k = chunk_count(n);
    if k == 0 {
        return identity();
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "this IS the deterministic reduction machinery: per-chunk in-order folds whose chunking depends only on n, combined by the fixed pairwise tree below"
    )]
    let partials = parallel_map(k, |c| chunk_range(n, k, c).fold(identity(), &fold));
    tree_combine(partials, combine)
}

/// Combine `parts` (chunk-ordered) with a fixed binary tree:
/// `((p0⊕p1)⊕(p2⊕p3))⊕…`. The tree shape depends only on `parts.len()`.
pub fn tree_combine<T>(mut parts: Vec<T>, combine: impl Fn(T, T) -> T) -> T {
    assert!(!parts.is_empty(), "tree_combine needs at least one element");
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut it = parts.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(combine(a, b)),
                None => next.push(a),
            }
        }
        parts = next;
    }
    parts.into_iter().next().unwrap()
}

/// A raw pointer that may cross threads. Used for disjoint-range writes;
/// every use site guarantees disjointness by construction. Access goes
/// through [`SendPtr::get`] so closures capture the (Sync) wrapper rather
/// than the raw pointer field.
struct SendPtr<T>(*mut T);
// SAFETY: the pointer targets a `T: Send` buffer owned by the caller of a
// pool run, which blocks until every task finishes — the buffer outlives
// all cross-thread access, and use sites write disjoint ranges only.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: shared access is only `get()` (reading the pointer value, not
// the pointee); the disjoint-range contract above covers dereferences.
unsafe impl<T: Send> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;

    #[test]
    fn chunk_ranges_tile_the_index_space() {
        for n in [0usize, 1, 5, 63, 64, 65, 1000] {
            let k = chunk_count(n);
            let mut covered = 0;
            for c in 0..k {
                let r = chunk_range(n, k, c);
                assert_eq!(r.start, covered);
                assert!(!r.is_empty());
                covered = r.end;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn map_preserves_order() {
        let v = parallel_map(100, |i| i * i);
        assert_eq!(v, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_mut_visits_disjoint_chunks() {
        let mut data = vec![0usize; 103];
        parallel_chunks_mut(&mut data, 10, |c, chunk| {
            for x in chunk.iter_mut() {
                *x = c + 1;
            }
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i / 10 + 1);
        }
    }

    #[test]
    fn reduce_is_bit_identical_across_thread_counts() {
        // a sum that is NOT associative in floating point: if the chunk
        // structure or combine order varied with thread count, the bits
        // would differ
        let run = |threads: usize| -> f64 {
            ThreadPool::new(threads).install(|| {
                parallel_reduce(
                    10_000,
                    || 0.0f64,
                    |acc, i| acc + 1.0 / (1.0 + i as f64).sqrt(),
                    |a, b| a + b,
                )
            })
        };
        let s1 = run(1);
        let s4 = run(4);
        assert_eq!(s1.to_bits(), s4.to_bits());
    }

    #[test]
    fn tree_combine_shape_is_fixed() {
        let out = tree_combine(vec!["a", "b", "c", "d", "e"], |a, b| {
            Box::leak(format!("({a}{b})").into_boxed_str())
        });
        assert_eq!(out, "(((ab)(cd))e)");
    }
}
