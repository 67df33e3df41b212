//! Three-dimensional transforms over the plane-wave grids.
//!
//! Layout convention (used across the workspace): the grid value at integer
//! coordinates `(ix, iy, iz)` lives at linear index `ix + nx*(iy + ny*iz)` —
//! x fastest. A [`Fft3`] owns three 1-D plans and exposes
//!
//! * [`Fft3::forward`]/[`Fft3::inverse`] — one transform, parallel over
//!   FFT lines on the `pt-par` pool (the "band-by-band" execution of the
//!   paper: one orbital at a time keeps the device busy via
//!   intra-transform parallelism);
//! * [`Fft3::forward_batch`]/[`Fft3::inverse_batch`] — many independent
//!   transforms, parallel *across* the batch with serial lines inside (the
//!   paper's "batched CUFFT" layout that saturates bandwidth).

use crate::plan::{Direction, Plan1d};
use pt_num::c64;

/// A 3-D FFT of fixed dimensions.
pub struct Fft3 {
    nx: usize,
    ny: usize,
    nz: usize,
    px: Plan1d,
    py: Plan1d,
    pz: Plan1d,
}

impl Fft3 {
    /// Build plans for an `nx × ny × nz` grid.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Fft3 {
            nx,
            ny,
            nz,
            px: Plan1d::new(nx),
            py: Plan1d::new(ny),
            pz: Plan1d::new(nz),
        }
    }

    /// Grid dimensions `(nx, ny, nz)`.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Total number of grid points.
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// True for a degenerate 1-point grid.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Parallel forward transform (unscaled).
    pub fn forward(&self, data: &mut [c64]) {
        pt_trace::counter_add(pt_trace::Counter::FftTransforms, 1);
        self.process_par(data, Direction::Forward);
    }

    /// Parallel inverse transform (scaled by 1/N).
    pub fn inverse(&self, data: &mut [c64]) {
        pt_trace::counter_add(pt_trace::Counter::FftTransforms, 1);
        self.process_par(data, Direction::Inverse);
    }

    /// Single-threaded forward transform.
    pub fn forward_serial(&self, data: &mut [c64]) {
        pt_trace::counter_add(pt_trace::Counter::FftTransforms, 1);
        self.process_serial(data, Direction::Forward);
    }

    /// Single-threaded inverse transform.
    pub fn inverse_serial(&self, data: &mut [c64]) {
        pt_trace::counter_add(pt_trace::Counter::FftTransforms, 1);
        self.process_serial(data, Direction::Inverse);
    }

    /// Forward-transform a batch of `data.len()/len()` independent grids,
    /// parallel across the batch.
    pub fn forward_batch(&self, data: &mut [c64]) {
        self.batch(data, Direction::Forward);
    }

    /// Inverse-transform a batch, parallel across the batch.
    pub fn inverse_batch(&self, data: &mut [c64]) {
        self.batch(data, Direction::Inverse);
    }

    fn batch(&self, data: &mut [c64], dir: Direction) {
        let n = self.len();
        assert_eq!(
            data.len() % n,
            0,
            "batch length must be a multiple of grid size"
        );
        pt_trace::counter_add(pt_trace::Counter::FftBatches, 1);
        pt_trace::counter_add(pt_trace::Counter::FftTransforms, (data.len() / n) as u64);
        // one band per pool task: dynamic claiming load-balances uneven
        // band counts, and each transform is serial inside (the paper's
        // batched-CUFFT layout)
        pt_par::parallel_chunks_mut(data, n, |_band, grid| self.process_serial(grid, dir));
    }

    fn process_serial(&self, data: &mut [c64], dir: Direction) {
        assert_eq!(data.len(), self.len(), "grid size mismatch");
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let mut scratch = vec![
            c64::ZERO;
            self.px
                .scratch_len()
                .max(self.py.scratch_len())
                .max(self.pz.scratch_len())
        ];
        // x lines are contiguous
        for row in data.chunks_mut(nx) {
            self.px.process(row, &mut scratch, dir);
        }
        // y lines within each z-slab
        let mut line = vec![c64::ZERO; ny.max(nz)];
        for iz in 0..nz {
            let slab = &mut data[iz * nx * ny..(iz + 1) * nx * ny];
            for ix in 0..nx {
                for iy in 0..ny {
                    line[iy] = slab[ix + nx * iy];
                }
                self.py.process(&mut line[..ny], &mut scratch, dir);
                for iy in 0..ny {
                    slab[ix + nx * iy] = line[iy];
                }
            }
        }
        // z lines stride across slabs
        let nl = nx * ny;
        for l in 0..nl {
            for iz in 0..nz {
                line[iz] = data[l + nl * iz];
            }
            self.pz.process(&mut line[..nz], &mut scratch, dir);
            for iz in 0..nz {
                data[l + nl * iz] = line[iz];
            }
        }
    }

    fn process_par(&self, data: &mut [c64], dir: Direction) {
        assert_eq!(data.len(), self.len(), "grid size mismatch");
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        // x axis: contiguous rows, one scratch per task
        let rows = lines_per_task(ny * nz);
        pt_par::parallel_chunks_mut(data, rows * nx, |_, block| {
            let mut scratch = vec![c64::ZERO; self.px.scratch_len()];
            for row in block.chunks_mut(nx) {
                self.px.process(row, &mut scratch, dir);
            }
        });
        // y axis: independent z-slabs
        let slabs = lines_per_task(nz);
        pt_par::parallel_chunks_mut(data, slabs * nx * ny, |_, block| {
            let mut line = vec![c64::ZERO; ny];
            let mut scratch = vec![c64::ZERO; self.py.scratch_len()];
            for slab in block.chunks_mut(nx * ny) {
                for ix in 0..nx {
                    for iy in 0..ny {
                        line[iy] = slab[ix + nx * iy];
                    }
                    self.py.process(&mut line, &mut scratch, dir);
                    for iy in 0..ny {
                        slab[ix + nx * iy] = line[iy];
                    }
                }
            }
        });
        // z axis: transpose into line-major scratch, transform, scatter back
        let nl = nx * ny;
        let mut buf = vec![c64::ZERO; data.len()];
        {
            let src: &[c64] = data;
            let lines = lines_per_task(nl);
            pt_par::parallel_chunks_mut(&mut buf, lines * nz, |task, block| {
                let mut scratch = vec![c64::ZERO; self.pz.scratch_len()];
                for (k, lbuf) in block.chunks_mut(nz).enumerate() {
                    let l = task * lines + k;
                    for (iz, v) in lbuf.iter_mut().enumerate() {
                        *v = src[l + nl * iz];
                    }
                    self.pz.process(lbuf, &mut scratch, dir);
                }
            });
        }
        pt_par::parallel_chunks_mut(data, slabs * nl, |task, block| {
            for (k, slab) in block.chunks_mut(nl).enumerate() {
                let iz = task * slabs + k;
                for (l, v) in slab.iter_mut().enumerate() {
                    *v = buf[l * nz + iz];
                }
            }
        });
    }
}

/// Lines handed to one pool task of an axis pass, so that a pass over
/// `n_lines` (positive: every plan length is) runs as at most
/// `pt_par::chunk_count(n_lines)` tasks, each allocating its scratch once.
fn lines_per_task(n_lines: usize) -> usize {
    n_lines.div_ceil(pt_par::chunk_count(n_lines))
}
