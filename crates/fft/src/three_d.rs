//! Three-dimensional transforms over the plane-wave grids.
//!
//! Layout convention (used across the workspace): the grid value at integer
//! coordinates `(ix, iy, iz)` lives at linear index `ix + nx*(iy + ny*iz)` —
//! x fastest. A [`Fft3`] owns three 1-D plans and exposes
//!
//! * [`Fft3::forward`]/[`Fft3::inverse`] — one transform, parallel over
//!   independent columns on the `pt-par` pool (the "band-by-band"
//!   execution of the paper: one orbital at a time keeps the device busy
//!   via intra-transform parallelism);
//! * [`Fft3::forward_batch`]/[`Fft3::inverse_batch`] — many independent
//!   transforms, parallel *across* the batch with serial passes inside (the
//!   paper's "batched CUFFT" layout that saturates bandwidth).
//!
//! Every axis is one batched [`Plan1d`] call per block, its inner loops
//! unit-stride on the writing side: per z-slab, x as the slab's `ny`
//! contiguous rows ([`Plan1d::process_rows`]) and y as its `nx`
//! interleaved columns ([`Plan1d::process_strided`], `s0 = nx`); z once
//! over the grid (`s0 = nx·ny`). No line is ever gathered, and each line
//! gets the same arithmetic however the lines are batched or dealt to
//! threads, so the parallel and serial entries agree to the bit on any
//! pool. Coefficients on a G-sphere go through the sphere-limited entries
//! of [`crate::SphereMap`]'s module instead, which skip the lines that
//! carry only zeros.
//!
//! Scratch is at most one grid-sized buffer per thread, grown on that
//! thread's first transform and reused by every `Fft3` after it: a warm
//! serial transform allocates nothing. An axis whose length is one radix
//! (2, 3, 4, 5, 8 or 15 — every axis of an 8³ or 15³ grid) is transformed
//! where it lies and asks for no scratch; only a longer axis ping-pongs
//! through it.

use crate::plan::{Direction, Plan1d};
use pt_num::{c64, with_scratch};
use std::cell::RefCell;

thread_local! {
    pub(crate) static SCRATCH: RefCell<Vec<c64>> = const { RefCell::new(Vec::new()) };
}

/// A 3-D FFT of fixed dimensions.
pub struct Fft3 {
    pub(crate) nx: usize,
    pub(crate) ny: usize,
    pub(crate) nz: usize,
    pub(crate) px: Plan1d,
    pub(crate) py: Plan1d,
    pub(crate) pz: Plan1d,
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
        self.transform(data, Direction::Forward, pt_par::current_num_threads());
    }

    /// Parallel inverse transform (scaled by 1/N).
    pub fn inverse(&self, data: &mut [c64]) {
        self.transform(data, Direction::Inverse, pt_par::current_num_threads());
        self.scale_inverse(data);
    }

    /// Single-threaded forward transform.
    pub fn forward_serial(&self, data: &mut [c64]) {
        self.transform(data, Direction::Forward, 1);
    }

    /// Single-threaded inverse transform (scaled by 1/N).
    pub fn inverse_serial(&self, data: &mut [c64]) {
        self.inverse_unscaled_serial(data);
        self.scale_inverse(data);
    }

    /// Single-threaded inverse transform **without** the 1/N, for callers
    /// that fold it into a factor they apply anyway.
    pub fn inverse_unscaled_serial(&self, data: &mut [c64]) {
        self.transform(data, Direction::Inverse, 1);
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
        // one band per pool task: dynamic claiming load-balances uneven
        // band counts, and each transform is serial inside (the paper's
        // batched-CUFFT layout)
        pt_par::parallel_chunks_mut(data, n, |_band, grid| match dir {
            Direction::Forward => self.forward_serial(grid),
            Direction::Inverse => self.inverse_serial(grid),
        });
    }

    /// Scratch for the x and the y pass over one z-slab.
    pub(crate) fn slab_scratch_len(&self) -> usize {
        self.px
            .scratch_len(self.ny)
            .max(self.py.scratch_len(self.nx))
    }

    /// The inverse's one 1/N per 3-D transform.
    fn scale_inverse(&self, data: &mut [c64]) {
        let inv_n = 1.0 / self.len() as f64;
        for z in data.iter_mut() {
            *z = z.scale(inv_n);
        }
    }

    /// Unnormalized transform of one grid, its independent columns dealt to
    /// `tasks` pool tasks (1 = serial on the calling thread).
    fn transform(&self, data: &mut [c64], dir: Direction, tasks: usize) {
        assert_eq!(data.len(), self.len(), "grid size mismatch");
        pt_trace::counter_add(pt_trace::Counter::FftTransforms, 1);
        let (nx, ny, nz, nl) = (self.nx, self.ny, self.nz, self.nx * self.ny);
        // x rows and y columns never leave their z-slab: both passes run on
        // it while it is in cache, x as one batch of its `ny` rows
        pt_par::parallel_chunks_mut(data, nz.div_ceil(tasks) * nl, |_, slabs| {
            with_scratch(&SCRATCH, self.slab_scratch_len(), |scratch| {
                for slab in slabs.chunks_exact_mut(nl) {
                    self.px.process_rows(slab, scratch, ny, dir);
                    self.py.process_strided(slab, scratch, nx, dir);
                }
            });
        });
        // z columns span every slab
        let tasks = tasks.min(nl);
        if tasks == 1 {
            return with_scratch(&SCRATCH, self.pz.scratch_len(nl), |scratch| {
                self.pz.process_strided(data, scratch, nl, dir);
            });
        }
        // hand task `t` the segment `chunk_range(nl, tasks, t)` of every
        // z-row; it stages them as a compact `[nz][width]` block in its own
        // scratch, transforms that, and copies the rows back
        let mut columns: Vec<Vec<&mut [c64]>> =
            (0..tasks).map(|_| Vec::with_capacity(nz)).collect();
        for mut row in data.chunks_exact_mut(nl) {
            for (t, segments) in columns.iter_mut().enumerate() {
                let (segment, rest) = row.split_at_mut(pt_par::chunk_range(nl, tasks, t).len());
                segments.push(segment);
                row = rest;
            }
        }
        pt_par::parallel_chunks_mut(&mut columns, 1, |_, task| {
            let segments = &mut task[0];
            let width = segments[0].len();
            with_scratch(&SCRATCH, nz * width + self.pz.scratch_len(width), |buf| {
                let (block, scratch) = buf.split_at_mut(nz * width);
                for (row, segment) in block.chunks_exact_mut(width).zip(segments.iter()) {
                    row.copy_from_slice(segment);
                }
                self.pz.process_strided(block, scratch, width, dir);
                for (row, segment) in block.chunks_exact(width).zip(segments.iter_mut()) {
                    segment.copy_from_slice(row);
                }
            });
        });
    }
}
