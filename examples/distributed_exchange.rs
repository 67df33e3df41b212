//! Run Alg. 2 (the distributed Fock exchange) across virtual MPI ranks and
//! verify both the numerics (identical to serial) and the communication
//! volume law N_p × N_G × N_e of §3.2, in f64 and f32 wire formats.
//!
//! Run with: `cargo run --release --example distributed_exchange`

use pwdft_rt::ham::{
    distributed_fock_apply, BandDistribution, FockMode, FockOperator, PwGrids, ScreenedKernel,
};
use pwdft_rt::lattice::silicon_cubic_supercell;
use pwdft_rt::linalg::CMat;
use pwdft_rt::mpi::{run_ranks, Wire};
use pwdft_rt::num::c64;

fn rand_block(ng: usize, nb: usize, seed: u64) -> CMat {
    let mut s = seed | 1;
    let mut rnd = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let mut m = CMat::from_fn(ng, nb, |_, _| c64::new(rnd(), rnd()));
    for j in 0..nb {
        let nrm = pwdft_rt::num::complex::znrm2(m.col(j));
        for z in m.col_mut(j) {
            *z = z.scale(1.0 / nrm);
        }
    }
    m
}

fn main() {
    let s = silicon_cubic_supercell(1, 1, 1);
    let grids = PwGrids::new(&s, 2.0);
    let (ng, nb) = (grids.ng(), 8);
    println!("N_G = {ng}, N_e = {nb}");
    let phi = rand_block(ng, nb, 3);
    let psi = rand_block(ng, nb, 4);
    let kernel = ScreenedKernel::new(&grids, 0.11);
    let reference = {
        let f = FockOperator::new(&grids, &phi, 0.25, kernel.clone(), FockMode::Batched);
        let mut out = CMat::zeros(ng, nb);
        f.apply_block(&grids, &psi, &mut out);
        out
    };
    for (wire, name, bytes) in [(Wire::F64, "f64", 16u64), (Wire::F32, "f32", 8u64)] {
        for np in [2usize, 4] {
            let dist = BandDistribution {
                n_bands: nb,
                n_ranks: np,
            };
            let (g, ph, ps, k) = (&grids, &phi, &psi, &kernel);
            let (outs, stats) = run_ranks(np, wire, move |comm| {
                let mine = dist.local_bands(comm.rank());
                let take = |m: &CMat| {
                    let mut lm = CMat::zeros(ng, mine.len());
                    for (lj, &b) in mine.iter().enumerate() {
                        lm.col_mut(lj).copy_from_slice(m.col(b));
                    }
                    lm
                };
                (
                    mine.clone(),
                    distributed_fock_apply(comm, g, dist, &take(ph), &take(ps), 0.25, k),
                )
            });
            let mut err = 0.0f64;
            for (mine, out) in &outs {
                for (lj, &b) in mine.iter().enumerate() {
                    for (x, y) in out.col(lj).iter().zip(reference.col(b)) {
                        err = err.max((*x - *y).abs());
                    }
                }
            }
            let volume = (np as u64 - 1) * nb as u64 * ng as u64 * bytes;
            println!(
                "wire={name} ranks={np}: max|Δ| vs serial = {err:.2e}, bcast {} B (law: {} B)",
                stats.bcast_bytes, volume
            );
            assert_eq!(
                stats.bcast_bytes, volume,
                "communication volume law violated"
            );
        }
    }
    println!("Alg. 2 verified: distributed == serial, volume law N_p·N_G·N_e holds.");
}
