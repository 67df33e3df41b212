//! Integration tests for the distributed substrate (virtual MPI + Alg. 2)
//! and the Summit performance model's headline claims.

use pwdft_rt::ham::{
    distributed_fock_apply, BandDistribution, FockMode, FockOperator, PwGrids, ScreenedKernel,
};
use pwdft_rt::lattice::silicon_cubic_supercell;
use pwdft_rt::linalg::CMat;
use pwdft_rt::mpi::{RankEngine, Wire};
use pwdft_rt::par::RankLayout;

/// The Alg. 2 broadcast volume follows N_p·N_G·N_e exactly; the
/// self-application adds its partials, N_wfc values each for every partial
/// whose tile and band live on different ranks, and nothing else travels;
/// and the `f64` wire leaves the result bit-equal to the in-process apply.
/// (The paper's f32 wire, §3.2 optimization 4, which would halve both
/// volumes, is modelled in `pt-perf`, not run: it would make the bits
/// depend on the layout.)
#[test]
fn alg2_volume_law_and_exact_f64_wire() {
    let s = silicon_cubic_supercell(1, 1, 1);
    let grids = PwGrids::new(&s, 2.0);
    let (ng, nw, nb, np) = (grids.ng(), grids.n_wfc(), 6, 3);
    let phi = CMat::rand_normalized(ng, nb, 3);
    let kernel = ScreenedKernel::new(&grids, 0.11);
    let f = FockOperator::new(&grids, &phi, 0.25, kernel.clone(), FockMode::Batched);
    let dist = BandDistribution {
        n_bands: nb,
        n_ranks: np,
    };
    // partials made by one rank's tile for a band another rank owns
    let mut remote = 0u64;
    for rank in 0..np {
        for tile in dist.exchange_tiles(rank) {
            remote += tile
                .partials()
                .filter(|&(_, band)| dist.owner(band) != rank)
                .count() as u64;
        }
    }
    assert!(remote > 0);
    let mut reference = CMat::zeros(ng, nb);
    f.apply_block(&grids, &phi, &mut reference);
    let (g, ph, k) = (&grids, &phi, &kernel);
    let (outs, stats) = RankEngine::new(RankLayout::new(np, 1), Wire::F64)
        .run(move |comm| {
            let local = dist.take_local(comm.rank(), ph);
            distributed_fock_apply(comm, g, dist, &local, &local, 0.25, k)
        })
        .expect("fresh engine");
    assert_eq!(
        stats.bcast_bytes,
        (np as u64 - 1) * nb as u64 * ng as u64 * 16
    );
    assert_eq!(stats.p2p_bytes, remote * nw as u64 * 16);
    assert_eq!(stats.total_bytes(), stats.bcast_bytes + stats.p2p_bytes);
    let mut err = 0.0f64;
    for (rank, out) in outs.iter().enumerate() {
        for (lj, &b) in dist.local_bands(rank).iter().enumerate() {
            for (x, y) in out.col(lj).iter().zip(reference.col(b)) {
                err = err.max((*x - *y).abs());
            }
        }
    }
    assert!(err == 0.0, "f64 wire must be exact: {err:.2e}");
}

/// Headline claims of the abstract, regenerated by the model: 1.5 h/fs at
/// 768 GPUs, 20-30× PT-CN vs RK4, scaling to 768 GPUs.
#[test]
fn paper_headlines_hold_in_model() {
    let m = pwdft_rt::perf::CostModel::new();
    let pr = pwdft_rt::perf::Problem::paper_1536();
    // 1.5 hours per femtosecond: 20 steps of 50 as
    let hours_per_fs = m.step_total(768, &pr) * 20.0 / 3600.0;
    assert!(
        (hours_per_fs - 1.5).abs() < 0.3,
        "h/fs at 768 GPUs: {hours_per_fs:.2}"
    );
    // PT-CN vs RK4 in the 20-30x band at the endpoints of Fig. 6
    let r36 = m.rk4_50as(36, &pr) / m.step_total(36, &pr);
    let r768 = m.rk4_50as(768, &pr) / m.step_total(768, &pr);
    assert!(r36 > 10.0 && r768 > r36 && r768 < 45.0);
    // strong scaling: 768 GPUs strictly faster than 384, 3072 not faster
    assert!(m.step_total(768, &pr) < m.step_total(384, &pr));
    assert!(m.step_total(3072, &pr) > 0.95 * m.step_total(768, &pr));
    // power parity claim (§6): 72 GPUs ≲ 3072-core power, ~7x faster
    assert!(pwdft_rt::perf::gpu_run_power(72) < pwdft_rt::perf::cpu_run_power(3072));
    let ratio = m.cpu_step(3072, &pr) / m.step_total(72, &pr);
    assert!(ratio > 5.0 && ratio < 9.0, "same-power speedup {ratio:.1}");
}
