//! Property test for the tree chunk reduction (the Alg. 3 combine).
//!
//! The contract under test: for any rank count and any ragged chunk
//! geometry — including worlds with fewer chunks than ranks (ng < np·64)
//! and fewer bands than ranks — the tree result is bit-identical to the
//! old linear path (`allgatherv_c64` of all partials + zeros-initialized
//! ascending fold on every receiver) and to the serial np = 1 reference.
//! Float addition is non-associative, so this only holds because the
//! tree's subtrees are aligned with the contiguous ascending chunk
//! ownership; the property test is what pins that alignment.

use proptest::prelude::*;
use pt_mpi::{RankEngine, Wire};
use pt_num::c64;
use pt_par::RankLayout;

/// The fixed Alg. 3 chunk height (pt-ham's `OVERLAP_CHUNK_ROWS`).
const CHUNK_ROWS: usize = 64;

/// Contiguous ascending chunk deal, mirroring `BandDistribution::g_rows`:
/// rank `r` owns `base + (r < rem)` chunks starting at `r·base + min(r, rem)`.
fn chunk_range(nc: usize, np: usize, rank: usize) -> (usize, usize) {
    let (base, rem) = (nc / np, nc % np);
    let start = rank * base + rank.min(rem);
    (start, base + usize::from(rank < rem))
}

/// Deterministic per-chunk partial overlap blocks (nb × nb each).
fn chunk_partials(nc: usize, nb: usize, seed: u64) -> Vec<Vec<c64>> {
    let mut rng = pt_num::rng::XorShift64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
    (0..nc)
        .map(|_| {
            (0..nb * nb)
                .map(|_| c64::new(rng.next_centered() * 1e2, rng.next_centered() / 7.0))
                .collect()
        })
        .collect()
}

/// The old combine, verbatim: gather every rank's flattened chunk list,
/// then fold all chunks ascending into a zeros matrix on the receiver.
fn linear_combine(gathered: &[Vec<c64>], nb: usize) -> Vec<c64> {
    let mut s = vec![c64::new(0.0, 0.0); nb * nb];
    for blk in gathered {
        for t in blk.chunks_exact(nb * nb) {
            for (acc, v) in s.iter_mut().zip(t) {
                *acc += *v;
            }
        }
    }
    s
}

fn assert_bits_eq(got: &[c64], want: &[c64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what} length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.re.to_bits(), w.re.to_bits(), "{what}[{i}].re");
        assert_eq!(g.im.to_bits(), w.im.to_bits(), "{what}[{i}].im");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn tree_matches_linear_combine_and_serial_reference(
        np in 1usize..9,
        ng in 0usize..600,
        nb in 1usize..8,
        seed in 0u64..1_000_000,
    ) {
        // ng < np·64 cases leave some ranks chunkless; nb < np is the
        // more-ranks-than-bands shape the residual hits at scale
        let nc = ng.div_ceil(CHUNK_ROWS);
        let chunks = chunk_partials(nc, nb, seed);

        // serial np = 1 reference: fold everything locally
        let want: Vec<Vec<c64>> = vec![chunks.concat()];
        let reference = linear_combine(&want, nb);

        let mut engine = RankEngine::new(RankLayout::new(np, 1), Wire::F64);

        // linear path: allgatherv of per-rank flats + receiver-side fold
        let (linear, _) = engine.run(|comm| {
            let (start, count) = chunk_range(nc, np, comm.rank());
            let mine: Vec<c64> = chunks[start..start + count].concat();
            let gathered = comm.allgatherv_c64(&mine);
            linear_combine(&gathered, nb)
        }).expect("healthy engine");

        // tree path: prefix chain + binomial redistribution
        let (tree, _) = engine.run(|comm| {
            let (start, count) = chunk_range(nc, np, comm.rank());
            let mine: Vec<c64> = chunks[start..start + count].concat();
            comm.tree_reduce_chunks_c64(&mine, nb * nb)
        }).expect("healthy engine");

        prop_assert_eq!(linear.len(), np);
        prop_assert_eq!(tree.len(), np);
        for rank in 0..np {
            assert_bits_eq(&linear[rank], &reference, "linear vs serial");
            assert_bits_eq(&tree[rank], &reference, "tree vs serial");
            assert_bits_eq(&tree[rank], &linear[rank], "tree vs linear");
        }
    }
}
