//! Run Alg. 2 (the distributed Fock exchange) across virtual MPI ranks and
//! verify both the numerics (identical to serial) and the communication
//! volume law N_p × N_G × N_e of §3.2 on the `f64` wire.
//!
//! Run with: `cargo run --release --example distributed_exchange`

use pwdft_rt::ham::{
    distributed_fock_apply, BandDistribution, FockMode, FockOperator, PwGrids, ScreenedKernel,
};
use pwdft_rt::lattice::silicon_cubic_supercell;
use pwdft_rt::linalg::CMat;
use pwdft_rt::mpi::{RankEngine, Wire};
use pwdft_rt::par::RankLayout;

fn main() {
    let s = silicon_cubic_supercell(1, 1, 1);
    let grids = PwGrids::new(&s, 2.0);
    let (ng, nb) = (grids.ng(), 8);
    println!("N_G = {ng}, N_e = {nb}");
    let phi = CMat::rand_normalized(ng, nb, 3);
    let psi = CMat::rand_normalized(ng, nb, 4);
    let kernel = ScreenedKernel::new(&grids, 0.11);
    let reference = {
        let f = FockOperator::new(&grids, &phi, 0.25, kernel.clone(), FockMode::Batched);
        let mut out = CMat::zeros(ng, nb);
        f.apply_block(&grids, &psi, &mut out);
        out
    };
    for np in [2usize, 4] {
        let dist = BandDistribution {
            n_bands: nb,
            n_ranks: np,
        };
        let (g, ph, ps, k) = (&grids, &phi, &psi, &kernel);
        let (outs, stats) = RankEngine::new(RankLayout::new(np, 1), Wire::F64)
            .run(move |comm| {
                let take = |m: &CMat| dist.take_local(comm.rank(), m);
                distributed_fock_apply(comm, g, dist, &take(ph), &take(ps), 0.25, k)
            })
            .expect("fresh engine");
        let mut err = 0.0f64;
        for (rank, out) in outs.iter().enumerate() {
            for (lj, &b) in dist.local_bands(rank).iter().enumerate() {
                for (x, y) in out.col(lj).iter().zip(reference.col(b)) {
                    err = err.max((*x - *y).abs());
                }
            }
        }
        let volume = (np as u64 - 1) * nb as u64 * ng as u64 * 16;
        println!(
            "ranks={np}: max|Δ| vs serial = {err:.2e}, bcast {} B (law: {} B)",
            stats.bcast_bytes, volume
        );
        assert_eq!(
            stats.bcast_bytes, volume,
            "communication volume law violated"
        );
    }
    println!("Alg. 2 verified: distributed == serial, volume law N_p·N_G·N_e holds.");
}
