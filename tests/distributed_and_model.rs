//! Integration tests for the distributed substrate (virtual MPI + Alg. 2)
//! and the Summit performance model's headline claims.

use pwdft_rt::ham::{
    distributed_fock_apply, BandDistribution, FockMode, FockOperator, PwGrids, ScreenedKernel,
};
use pwdft_rt::lattice::silicon_cubic_supercell;
use pwdft_rt::linalg::CMat;
use pwdft_rt::mpi::{Comm, RankEngine, Wire};
use pwdft_rt::num::c64;
use pwdft_rt::par::RankLayout;

/// The Alg. 2 broadcast volume follows N_p·N_G·N_e exactly; a
/// self-application adds its partials, N_wfc values each for every partial
/// whose tile and band live on different ranks; and the `f64` wire leaves
/// the result bit-equal to the in-process apply. (The paper's f32 wire,
/// §3.2 optimization 4, which would halve both volumes, is modelled in
/// `pt-perf`, not run: it would make the bits depend on the layout.)
#[test]
fn alg2_volume_law_and_f32_wire() {
    let s = silicon_cubic_supercell(1, 1, 1);
    let grids = PwGrids::new(&s, 2.0);
    let (ng, nw, nb, np) = (grids.ng(), grids.n_wfc(), 6, 3);
    let phi = CMat::rand_normalized(ng, nb, 3);
    let psi = CMat::rand_normalized(ng, nb, 4);
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
    for (psi, partials) in [(&psi, 0), (&phi, remote)] {
        let reference = {
            let mut out = CMat::zeros(ng, nb);
            f.apply_block(&grids, psi, &mut out);
            out
        };
        let (g, ph, ps, k) = (&grids, &phi, psi, &kernel);
        let (outs, stats) = RankEngine::new(RankLayout::new(np, 1), Wire::F64)
            .run(move |comm| {
                let take = |m: &CMat| dist.take_local(comm.rank(), m);
                distributed_fock_apply(comm, g, dist, &take(ph), &take(ps), 0.25, k)
            })
            .expect("fresh engine");
        assert_eq!(
            stats.bcast_bytes,
            (np as u64 - 1) * nb as u64 * ng as u64 * 16
        );
        assert_eq!(stats.p2p_bytes, partials * nw as u64 * 16);
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

/// The virtual-MPI residual algorithm components compose: an alltoallv
/// layout flip is self-inverse (band ↔ G-space of Alg. 3).
#[test]
fn layout_flip_roundtrip() {
    let np = 4;
    let ng = 64;
    let nb = 8;
    let full = CMat::rand_normalized(ng, nb, 5);
    let fref = &full;
    let flip_and_back = move |comm: &mut Comm| {
        let r = comm.rank();
        // band layout: rank owns bands r, r+np, ...
        let mine: Vec<usize> = (0..nb).filter(|b| b % np == r).collect();
        // flip to G-space layout: rank owns rows [r*ng/np, (r+1)*ng/np)
        let rows = ng / np;
        let send: Vec<Vec<c64>> = (0..np)
            .map(|dst| {
                let mut blk = Vec::new();
                for &b in &mine {
                    blk.extend_from_slice(&fref.col(b)[dst * rows..(dst + 1) * rows]);
                }
                blk
            })
            .collect();
        let recv = comm.alltoallv_c64(send);
        // now rank holds rows of ALL bands; flip back
        let send_back: Vec<Vec<c64>> = recv.clone();
        let back = comm.alltoallv_c64(send_back);
        // reconstruct my bands
        let mut mine_data: Vec<Vec<c64>> = mine.iter().map(|_| vec![c64::ZERO; ng]).collect();
        for (src, blk) in back.iter().enumerate() {
            let per_band = rows;
            for (bi, _) in mine.iter().enumerate() {
                let off = bi * per_band;
                mine_data[bi][src * rows..(src + 1) * rows]
                    .copy_from_slice(&blk[off..off + per_band]);
            }
        }
        (mine, mine_data)
    };
    let (outs, _) = RankEngine::new(RankLayout::new(np, 1), Wire::F64)
        .run(flip_and_back)
        .expect("fresh engine");
    for (mine, data) in outs {
        for (bi, &b) in mine.iter().enumerate() {
            for (x, y) in data[bi].iter().zip(full.col(b)) {
                assert_eq!(*x, *y, "band {b} corrupted in layout roundtrip");
            }
        }
    }
}
