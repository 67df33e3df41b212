//! Spawn-once instrumentation for the persistent rank engine.
//!
//! The counters are process-global monotone totals, so this test lives
//! alone in its own binary: concurrent tests in a shared binary would
//! perturb the deltas. One engine serving many jobs must spawn its rank
//! threads, pools and pool workers exactly once — a per-job spawn would
//! multiply every delta by the job count.

use pt_mpi::{rank_threads_spawned, RankEngine, Wire};
use pt_par::{pools_built, worker_threads_spawned, RankLayout};

#[test]
fn twenty_jobs_spawn_one_rank_team() {
    let layout = RankLayout::new(3, 2);
    let job = |comm: &mut pt_mpi::Comm| {
        let mut v = vec![comm.rank() as f64 + 1.0];
        comm.allreduce_sum_f64(&mut v);
        v[0]
    };

    let ranks_before = rank_threads_spawned();
    let pools_before = pools_built();
    let workers_before = worker_threads_spawned();
    let mut engine = RankEngine::new(layout, Wire::F64);
    for step in 0..20 {
        let (out, _) = engine.run(job).unwrap();
        assert_eq!(out, vec![6.0; 3], "step {step}");
    }
    assert_eq!(rank_threads_spawned() - ranks_before, 3);
    assert_eq!(pools_built() - pools_before, 3);
    // each 2-wide pinned pool spawns exactly one worker
    assert_eq!(worker_threads_spawned() - workers_before, 3);
}
