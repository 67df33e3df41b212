//! The exact exchange seam computes each block once per Φ: a second
//! `KsSystem::exchange_block` on the same bits runs no pair solve and no
//! engine job and hands back the first call's bits, on one rank and on a
//! rank team; a Φ one ulp away is computed again, at the full
//! N(N+1)/2 solves.
//!
//! One `#[test]` in a binary of its own: `pt_trace`'s counters are
//! process-global.

use pt_ham::{HybridConfig, KsSystem};
use pt_lattice::silicon_cubic_supercell;
use pt_linalg::CMat;
use pt_par::RankLayout;
use pt_trace::Counter;
use pt_xc::XcKind;

fn bits(m: &CMat) -> Vec<(u64, u64)> {
    m.data()
        .iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

#[test]
fn a_repeated_exchange_block_runs_no_pair_solve_and_no_engine_job() {
    pt_trace::set_enabled(true);
    for ranks in [1usize, 2] {
        let sys = KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(XcKind::Pbe)
            .hybrid(HybridConfig::hse06())
            .occupations(vec![2.0; 4])
            .layout(RankLayout::new(ranks, 1))
            .build()
            .unwrap();
        let phi = CMat::rand_normalized(sys.grids.ng(), 4, 5);
        let mut near = phi.clone();
        let z = &mut near.col_mut(0)[3];
        z.re = f64::from_bits(z.re.to_bits() + 1);
        let cost = |phi: &CMat| {
            let mark = pt_trace::mark();
            let w = sys.install(|| sys.exchange_block(phi)).unwrap();
            let counted = pt_trace::counters_since(&mark);
            (
                w,
                counted.get(Counter::PairFfts),
                counted.get(Counter::EngineJobs),
            )
        };
        let jobs = u64::from(ranks > 1);
        let (first, solves, engine_jobs) = cost(&phi);
        assert_eq!(
            (solves, engine_jobs),
            (10, jobs),
            "{ranks} ranks: first call"
        );
        let (again, solves, engine_jobs) = cost(&phi);
        assert_eq!((solves, engine_jobs), (0, 0), "{ranks} ranks: repeat");
        assert_eq!(bits(&again), bits(&first), "{ranks} ranks: repeat bits");
        let (moved, solves, engine_jobs) = cost(&near);
        assert_eq!(
            (solves, engine_jobs),
            (10, jobs),
            "{ranks} ranks: one ulp off"
        );
        assert_ne!(bits(&moved), bits(&first), "{ranks} ranks: one ulp off");
        // one entry: Φ is no longer remembered
        let (back, solves, _) = cost(&phi);
        assert_eq!(solves, 10, "{ranks} ranks: Φ again after its neighbour");
        assert_eq!(bits(&back), bits(&first), "{ranks} ranks: Φ recomputed");
    }
    pt_trace::set_enabled(false);
}
