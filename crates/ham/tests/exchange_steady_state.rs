//! A warm exchange application is a fixed amount of work. Building a
//! `FockOperator` and applying it to its own defining block allocates the
//! same 5 times at any band count (the Φ copy and the real-space Φ; the
//! tile list, the accumulator block, the buffer of tile partials, and
//! nothing per pair or per partial), runs exactly N(N+1)/2 pair solves and
//! N + N(N+1) + N transforms (Φ → grid, forward + inverse per pair,
//! accumulators → sphere). Applied to any other block — one flipped bit is
//! enough — it runs the general N_φ × N_ψ schedule, pinned the same way.
//! On ranks, the self-application solves each canonical pair once summed
//! over the ranks.
//!
//! One `#[test]` in a binary of its own, like `local_h_steady_state.rs`:
//! the allocation count is per thread but `pt_trace`'s counters are
//! process-global.

mod common;

use pt_ham::{
    distributed_fock_apply, BandDistribution, FockMode, FockOperator, PwGrids, ScreenedKernel,
};
use pt_lattice::silicon_cubic_supercell;
use pt_linalg::CMat;
use pt_mpi::{RankEngine, Wire};
use pt_par::RankLayout;
use pt_trace::Counter;

/// Allocations on this thread, pair solves and transforms in the process
/// during `f`.
fn cost_of(f: impl FnOnce()) -> (u64, u64, u64) {
    let (allocated, counted) = common::cost_of(f);
    (
        allocated,
        counted.get(Counter::PairFfts),
        counted.get(Counter::FftTransforms),
    )
}

#[test]
fn warm_exchange_applications_run_a_fixed_count_of_solves_and_allocations() {
    /// This test's share of every window: the kernel handed to the
    /// operator is a clone (two tables).
    const KERNEL_CLONE: u64 = 2;
    /// Operator: Φ copy + real-space Φ. Self-application: tile list +
    /// accumulators + the buffer of tile partials. Plus this test's output
    /// block.
    const SELF_ALLOCATIONS: u64 = KERNEL_CLONE + 2 + 3 + 1;
    /// Operator as above; general application: real-space ψ + accumulators
    /// (the output block is reused).
    const GENERAL_ALLOCATIONS: u64 = KERNEL_CLONE + 2 + 2;
    pt_trace::set_enabled(true);
    let s = silicon_cubic_supercell(1, 1, 1);
    let g = PwGrids::new(&s, 2.0);
    let kernel = ScreenedKernel::new(&g, 0.11);
    let operator = |phi: &CMat| FockOperator::new(&g, phi, 0.25, kernel.clone(), FockMode::Batched);
    // one thread, so every task runs (and counts) on this one
    pt_par::ThreadPool::new(1).install(|| {
        for n in [4usize, 16] {
            let phi = CMat::rand_normalized(g.ng(), n, 3);
            let self_application = || {
                let mut out = CMat::zeros(g.ng(), n);
                operator(&phi).apply_block(&g, &phi, &mut out);
                out
            };
            // first call on this thread grows the scratch
            let mut sink = self_application();
            let (allocated, solves, transforms) = cost_of(|| sink = self_application());
            let n64 = n as u64;
            assert_eq!(allocated, SELF_ALLOCATIONS, "{n} bands, self");
            assert_eq!(solves, n64 * (n64 + 1) / 2, "{n} bands, self");
            assert_eq!(transforms, n64 + n64 * (n64 + 1) + n64, "{n} bands, self");

            // one bit of one coefficient away from Φ: the general schedule
            let fock = operator(&phi);
            let mut near = phi.clone();
            let z = &mut near.col_mut(n - 1)[7];
            z.re = f64::from_bits(z.re.to_bits() ^ 1);
            let mut out = CMat::zeros(g.ng(), n);
            let (_, solves, _) = cost_of(|| fock.apply_block(&g, &near, &mut out));
            assert_eq!(solves, n64 * n64, "{n} bands, one bit off Φ");
            assert!(out.max_diff(&sink) < 1e-12, "{n} bands: same operator");

            // N_ψ ≠ N_φ
            let n_psi = 3u64;
            let psi = CMat::rand_normalized(g.ng(), n_psi as usize, 4);
            let mut out = CMat::zeros(g.ng(), n_psi as usize);
            let (allocated, solves, transforms) =
                cost_of(|| operator(&phi).apply_block(&g, &psi, &mut out));
            assert_eq!(allocated, GENERAL_ALLOCATIONS, "{n} × {n_psi} bands");
            assert_eq!(solves, n64 * n_psi, "{n} × {n_psi} bands");
            assert_eq!(
                transforms,
                n64 + n_psi + 2 * n64 * n_psi + n_psi,
                "{n} × {n_psi} bands"
            );
        }
    });

    // on ranks: the self-application solves each canonical pair once,
    // whatever the rank count
    let n = 6;
    let phi = CMat::rand_normalized(g.ng(), n, 5);
    for ranks in [1usize, 2, 3] {
        let dist = BandDistribution {
            n_bands: n,
            n_ranks: ranks,
        };
        let (_, solves, _) = cost_of(|| {
            RankEngine::new(RankLayout::new(ranks, 1), Wire::F64)
                .run(|comm| {
                    let local = dist.take_local(comm.rank(), &phi);
                    distributed_fock_apply(comm, &g, dist, &local, &local, 0.25, &kernel)
                })
                .expect("fresh engine");
        });
        assert_eq!(solves, (n * (n + 1) / 2) as u64, "{ranks} ranks");
    }
}
