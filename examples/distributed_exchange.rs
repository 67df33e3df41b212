//! Run Alg. 2 (the distributed Fock exchange self-application V_X[Φ]Φ)
//! across virtual MPI ranks and verify the numerics (bit-identical to the
//! in-process apply) and both communication volume laws on the `f64` wire:
//! the broadcasts move N_p × N_G × N_e (§3.2) and the dealt pair tiles add
//! N_wfc values for every partial whose tile and band live on different
//! ranks.
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
    let (ng, nw, nb) = (grids.ng(), grids.n_wfc(), 8);
    println!("N_G = {ng}, N_wfc = {nw}, N_e = {nb}");
    let phi = CMat::rand_normalized(ng, nb, 3);
    let kernel = ScreenedKernel::new(&grids, 0.11);
    let reference = {
        let f = FockOperator::new(&grids, &phi, 0.25, kernel.clone(), FockMode::Batched);
        let mut out = CMat::zeros(ng, nb);
        f.apply_block(&grids, &phi, &mut out);
        out
    };
    for np in [2usize, 4] {
        let dist = BandDistribution {
            n_bands: nb,
            n_ranks: np,
        };
        let (g, ph, k) = (&grids, &phi, &kernel);
        let (outs, stats) = RankEngine::new(RankLayout::new(np, 1), Wire::F64)
            .run(move |comm| {
                let local = dist.take_local(comm.rank(), ph);
                distributed_fock_apply(comm, g, dist, &local, &local, 0.25, k)
            })
            .expect("fresh engine");
        let mut bit_equal = true;
        for (rank, out) in outs.iter().enumerate() {
            for (lj, &b) in dist.local_bands(rank).iter().enumerate() {
                for (x, y) in out.col(lj).iter().zip(reference.col(b)) {
                    bit_equal &=
                        x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits();
                }
            }
        }
        // partials made by one rank's tile for a band another rank owns
        let remote: usize = (0..np)
            .map(|rank| {
                dist.exchange_tiles(rank)
                    .iter()
                    .flat_map(|tile| tile.partials())
                    .filter(|&(_, band)| dist.owner(band) != rank)
                    .count()
            })
            .sum();
        let bcast = (np as u64 - 1) * nb as u64 * ng as u64 * 16;
        let partials = remote as u64 * nw as u64 * 16;
        println!(
            "ranks={np}: bit-equal to in-process = {bit_equal}, bcast {} B (law: {bcast} B), \
             partials {} B (law: {remote} × N_wfc × 16 = {partials} B)",
            stats.bcast_bytes, stats.p2p_bytes
        );
        assert!(
            bit_equal,
            "distributed result differs from the in-process apply"
        );
        assert_eq!(stats.bcast_bytes, bcast, "broadcast volume law violated");
        assert_eq!(stats.p2p_bytes, partials, "partial volume law violated");
        assert_eq!(
            stats.allreduce_calls, 0,
            "the self-application needs no allreduce"
        );
    }
    println!("Alg. 2 verified: distributed == in-process to the bit, both volume laws hold.");
}
