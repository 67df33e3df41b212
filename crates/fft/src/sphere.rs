//! Sphere-limited transforms: coefficients on a G-sphere ↔ values on the
//! whole grid, without the 1-D passes that carry only zeros.
//!
//! An orbital's coefficients fill a small part of its grid — the E_cut
//! sphere touches 37 of the 225 x-rows and 7 of the 15 z-slabs of Si-8's
//! dense grid — so most lines of a full transform map zeros to zeros
//! (towards real space) or produce outputs nobody gathers (back). A
//! [`SphereMap`] records, once per (index set, grid), which lines those
//! are, and the two entries skip them:
//!
//! * [`Fft3::synthesis_serial`] (scatter + unscaled inverse): x on the
//!   occupied rows only, y on the occupied slabs only, z everywhere;
//! * [`Fft3::analysis_serial`] (forward + gather): x everywhere, y only
//!   for the kept kx, z only on the kept (kx, ky) columns, which are
//!   staged as a compact `[nz][columns]` block the coefficients are
//!   gathered straight out of.
//!
//! Both keep the x → y → z order of the full transform, so every 1-D
//! transform that runs sees the input it would see there and the results
//! agree with scatter + [`Fft3::inverse_unscaled_serial`] /
//! [`Fft3::forward_serial`] + gather — to the bit, except that a skipped
//! all-zero line stays `+0` where the butterflies may write `−0`, which can
//! only show as the sign of an output that is exactly zero.

use crate::plan::Direction;
use crate::three_d::{Fft3, SCRATCH};
use pt_num::{c64, with_scratch};
use std::ops::Range;

/// Which lines of a grid a set of coefficients touches.
pub struct SphereMap {
    dims: (usize, usize, usize),
    /// Grid index of every coefficient, in coefficient order.
    index: Vec<usize>,
    /// Runs of consecutive occupied x-rows (row `iy + ny·iz`), at most `ny`
    /// rows each — the batch a slab-sized scratch holds.
    row_runs: Vec<Range<usize>>,
    /// Occupied z-slabs.
    slabs: Vec<usize>,
    /// Occupied kx values.
    kx: Vec<usize>,
    /// Every occupied (kx, ky) column, as its offset in a slab's kept-kx
    /// columns staged `[ny][kx.len()]`.
    columns: Vec<usize>,
    /// Every coefficient, as its offset in the kept columns staged
    /// `[nz][columns.len()]`.
    staged: Vec<usize>,
}

fn sorted_unique(values: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut v: Vec<usize> = values.collect();
    v.sort_unstable();
    v.dedup();
    v
}

fn rank(sorted: &[usize], value: usize) -> usize {
    sorted
        .binary_search(&value)
        .expect("built from the same index set")
}

impl Fft3 {
    /// Occupancy of the coefficients living at grid indices `index`
    /// (distinct, at least one).
    pub fn sphere_map(&self, index: &[usize]) -> SphereMap {
        let (nx, ny, _) = self.dims();
        let nl = nx * ny;
        assert!(!index.is_empty(), "a sphere holds at least G = 0");
        assert!(
            index.iter().all(|&i| i < self.len()),
            "coefficient index outside the grid"
        );
        let mut row_runs: Vec<Range<usize>> = Vec::new();
        for row in sorted_unique(index.iter().map(|i| i / nx)) {
            match row_runs.last_mut() {
                Some(run) if run.end == row && run.len() < ny => run.end += 1,
                _ => row_runs.push(row..row + 1),
            }
        }
        let kx = sorted_unique(index.iter().map(|i| i % nx));
        let columns = sorted_unique(index.iter().map(|i| i % nl));
        SphereMap {
            dims: self.dims(),
            index: index.to_vec(),
            row_runs,
            slabs: sorted_unique(index.iter().map(|i| i / nl)),
            staged: index
                .iter()
                .map(|i| i / nl * columns.len() + rank(&columns, i % nl))
                .collect(),
            columns: columns
                .iter()
                .map(|c| c / nx * kx.len() + rank(&kx, c % nx))
                .collect(),
            kx,
        }
    }

    /// `out` = unscaled inverse transform of `coeffs` scattered onto the
    /// zeroed grid (single-threaded; counts as one transform).
    pub fn synthesis_serial(&self, map: &SphereMap, coeffs: &[c64], out: &mut [c64]) {
        assert_eq!(map.dims, self.dims(), "map built for another grid");
        assert_eq!(coeffs.len(), map.index.len(), "coefficient count mismatch");
        assert_eq!(out.len(), self.len(), "grid size mismatch");
        pt_trace::counter_add(pt_trace::Counter::FftTransforms, 1);
        let (nx, nl) = (self.nx, self.nx * self.ny);
        out.fill(c64::ZERO);
        for (c, &i) in coeffs.iter().zip(&map.index) {
            out[i] = *c;
        }
        let dir = Direction::Inverse;
        let len = self.slab_scratch_len().max(self.pz.scratch_len(nl));
        with_scratch(&SCRATCH, len, |scratch| {
            for run in &map.row_runs {
                let rows = &mut out[run.start * nx..run.end * nx];
                self.px.process_rows(rows, scratch, run.len(), dir);
            }
            for &iz in &map.slabs {
                self.py
                    .process_strided(&mut out[iz * nl..][..nl], scratch, nx, dir);
            }
            self.pz.process_strided(out, scratch, nl, dir);
        });
    }

    /// `coeffs` = the forward transform of `values` at the map's indices
    /// (single-threaded; counts as one transform). `values` is work space:
    /// it comes back transformed along x only.
    pub fn analysis_serial(&self, map: &SphereMap, values: &mut [c64], coeffs: &mut [c64]) {
        assert_eq!(map.dims, self.dims(), "map built for another grid");
        assert_eq!(values.len(), self.len(), "grid size mismatch");
        assert_eq!(coeffs.len(), map.index.len(), "coefficient count mismatch");
        pt_trace::counter_add(pt_trace::Counter::FftTransforms, 1);
        let (nx, ny, nz) = self.dims();
        let (nkx, ncols) = (map.kx.len(), map.columns.len());
        let dir = Direction::Forward;
        let plan_scratch = self
            .px
            .scratch_len(ny)
            .max(self.py.scratch_len(nkx))
            .max(self.pz.scratch_len(ncols));
        // stage blocks and plan scratch from one call: the thread's buffer
        // is one non-re-entrant borrow
        with_scratch(&SCRATCH, nz * ncols + ny * nkx + plan_scratch, |buf| {
            let (kept, buf) = buf.split_at_mut(nz * ncols);
            let (slab_kx, scratch) = buf.split_at_mut(ny * nkx);
            let slabs = values.chunks_exact_mut(nx * ny);
            for (slab, kept_iz) in slabs.zip(kept.chunks_exact_mut(ncols)) {
                self.px.process_rows(slab, scratch, ny, dir);
                for (row, staged) in slab.chunks_exact(nx).zip(slab_kx.chunks_exact_mut(nkx)) {
                    for (z, &kx) in staged.iter_mut().zip(&map.kx) {
                        *z = row[kx];
                    }
                }
                self.py.process_strided(slab_kx, scratch, nkx, dir);
                for (z, &at) in kept_iz.iter_mut().zip(&map.columns) {
                    *z = slab_kx[at];
                }
            }
            self.pz.process_strided(kept, scratch, ncols, dir);
            for (c, &at) in coeffs.iter_mut().zip(&map.staged) {
                *c = kept[at];
            }
        });
    }
}
