//! One-dimensional FFT plans.
//!
//! A [`Plan1d`] owns the per-stage twiddle tables for a fixed length and is
//! immutable after construction, so one plan can be shared across pool
//! workers; every call supplies its own scratch.
//!
//! Smooth lengths run as an iterative Stockham autosort transform: stage
//! `i` of radix `r` reads `src`, writes `dst`, and the two buffers swap.
//! With `m` butterflies left per sequence, `sp` the product of the radices
//! already done and `c < s0` the sequence, a pass computes
//!
//! ```text
//! dst[c, t + sp·(r·p + j)] = ω^{p·j} · Σ_k src[c, t + sp·(p + m·k)] · ω_r^{j·k}
//! ```
//!
//! for `p < m`, `j < r`, `t < sp`, and the output lands in natural order
//! with no bit-reversal pass. Where `[c, e]` lives is the buffer's
//! [`Layout`]: interleaved at `c + s0·e` (the y and z axes of a grid, and
//! every buffer between two passes) or row-major at `c·n + e` (x rows,
//! which only the first pass reads and only the last pass writes — the
//! transposition rides on a read and a write that happen anyway). Either
//! way `dst` is a run of blocks of `r` lines, one line per `j`, that the
//! inner loop fills unit-stride: interleaved, block `p` has lines of all
//! `s0·sp` pairs `(t, c)`; row-major (`m = 1`), block `c` has lines of all
//! `sp` values of `t`. [`Reads`] is the matching map into `src`.

use pt_num::c64;

/// Transform direction. Plans are unnormalized in both directions (the
/// one 1/N of a 3-D inverse is [`crate::Fft3`]'s to apply, once).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// e^{-2πi jk/n}.
    Forward,
    /// e^{+2πi jk/n}.
    Inverse,
}

/// Smallest integer `>= n` whose prime factors are all in {2, 3, 5}.
///
/// Plane-wave codes size their FFT grids this way; with the paper's cell and
/// cutoff this reproduces exactly the 60×90×120 wavefunction grid (see
/// `pt-lattice` tests).
pub fn next_smooth(n: usize) -> usize {
    fn is_smooth(mut m: usize) -> bool {
        for p in [2usize, 3, 5] {
            while m.is_multiple_of(p) {
                m /= p;
            }
        }
        m == 1
    }
    let mut m = n.max(1);
    while !is_smooth(m) {
        m += 1;
    }
    m
}

/// Factor `n` into radices drawn from {4, 2, 3, 5} (4 preferred over 2×2 to
/// halve the number of passes). Returns `None` if a different prime remains.
fn factorize_smooth(mut n: usize) -> Option<Vec<usize>> {
    let mut f = Vec::new();
    while n.is_multiple_of(4) {
        f.push(4);
        n /= 4;
    }
    for p in [2usize, 3, 5] {
        while n.is_multiple_of(p) {
            f.push(p);
            n /= p;
        }
    }
    if n == 1 {
        Some(f)
    } else {
        None
    }
}

/// One Stockham pass.
struct Stage {
    radix: usize,
    /// Butterflies per sequence: (length still to transform) / radix.
    m: usize,
    /// `p`-major twiddles `ω^{p·j}`, `j = 1..radix`, at `[p·(radix−1) + j−1]`
    /// with `ω = e^{∓2πi/(m·radix)}`: index 0 forward, 1 its conjugate.
    tw: [Vec<c64>; 2],
}

impl Stage {
    fn new(radix: usize, m: usize) -> Self {
        let len = (m * radix) as f64;
        let fwd: Vec<c64> = (0..m)
            .flat_map(|p| (1..radix).map(move |j| (p * j) as f64))
            .map(|pj| c64::cis(-2.0 * std::f64::consts::PI * pj / len))
            .collect();
        let inv = fwd.iter().map(|w| w.conj()).collect();
        Stage {
            radix,
            m,
            tw: [fwd, inv],
        }
    }

    fn pass<const INV: bool>(&self, len: usize, src: &[c64], reads: Reads, dst: &mut [c64]) {
        let tw = &self.tw[usize::from(INV)];
        match self.radix {
            2 => pass(self.m, len, tw, src, reads, dst, butterfly2),
            3 => pass(self.m, len, tw, src, reads, dst, butterfly3::<INV>),
            4 => pass(self.m, len, tw, src, reads, dst, butterfly4::<INV>),
            5 => pass(self.m, len, tw, src, reads, dst, butterfly5::<INV>),
            r => unreachable!("factorize_smooth never yields radix {r}"),
        }
    }
}

/// Where a buffer keeps element `e` of sequence `c`: at `c·seq + e·elem`.
#[derive(Clone, Copy)]
struct Layout {
    seq: usize,
    elem: usize,
}

impl Layout {
    /// `[n][s0]`: element `e` of every sequence side by side.
    fn interleaved(s0: usize) -> Self {
        Layout { seq: 1, elem: s0 }
    }

    /// `[rows][n]`: every sequence contiguous.
    fn row_major(n: usize) -> Self {
        Layout { seq: n, elem: 1 }
    }
}

/// Where a pass finds its inputs: entry `u` of input line `k` of block `g`
/// at `src[g·block + k·line + u·stride]`.
#[derive(Clone, Copy)]
struct Reads {
    block: usize,
    line: usize,
    stride: usize,
}

/// `z · (−i)` forward, `z · (+i)` inverse: the only place a butterfly sees
/// the direction.
#[inline(always)]
fn rot<const INV: bool>(z: c64) -> c64 {
    if INV {
        z.mul_i()
    } else {
        z.mul_neg_i()
    }
}

#[inline(always)]
fn butterfly2(a: [c64; 2]) -> [c64; 2] {
    [a[0] + a[1], a[0] - a[1]]
}

#[inline(always)]
fn butterfly3<const INV: bool>(a: [c64; 3]) -> [c64; 3] {
    const SIN_3: f64 = 0.866_025_403_784_438_6; // sin(2π/3)
    let t = a[1] + a[2];
    let u = a[0] - t.scale(0.5);
    let v = rot::<INV>((a[1] - a[2]).scale(SIN_3));
    [a[0] + t, u + v, u - v]
}

#[inline(always)]
fn butterfly4<const INV: bool>(a: [c64; 4]) -> [c64; 4] {
    let (t0, t1) = (a[0] + a[2], a[0] - a[2]);
    let (t2, t3) = (a[1] + a[3], rot::<INV>(a[1] - a[3]));
    [t0 + t2, t1 + t3, t0 - t2, t1 - t3]
}

#[inline(always)]
fn butterfly5<const INV: bool>(a: [c64; 5]) -> [c64; 5] {
    const COS_1: f64 = 0.309_016_994_374_947_45; // cos(2π/5)
    const COS_2: f64 = -0.809_016_994_374_947_5; // cos(4π/5)
    const SIN_1: f64 = 0.951_056_516_295_153_5; // sin(2π/5)
    const SIN_2: f64 = 0.587_785_252_292_473_1; // sin(4π/5)
    let (t1, t2) = (a[1] + a[4], a[2] + a[3]);
    let (t3, t4) = (a[1] - a[4], a[2] - a[3]);
    let m1 = a[0] + t1.scale(COS_1) + t2.scale(COS_2);
    let m2 = a[0] + t1.scale(COS_2) + t2.scale(COS_1);
    let n1 = rot::<INV>(t3.scale(SIN_1) + t4.scale(SIN_2));
    let n2 = rot::<INV>(t3.scale(SIN_2) - t4.scale(SIN_1));
    [a[0] + t1 + t2, m1 + n1, m2 + n2, m2 - n2, m1 - n1]
}

/// One pass of radix `R`. Unit-stride reads — every pass but the first and
/// last of a row-major batch — get a copy of the body with the stride a
/// constant, so their reads lose the bounds checks as well (15 % of a y or
/// z pass on the paper's 60×90×120).
#[inline(always)]
fn pass<const R: usize>(
    m: usize,
    len: usize,
    tw: &[c64],
    src: &[c64],
    reads: Reads,
    dst: &mut [c64],
    butterfly: impl Fn([c64; R]) -> [c64; R],
) {
    if reads.stride == 1 {
        pass_body::<R, true>(m, len, tw, src, reads, dst, butterfly)
    } else {
        pass_body::<R, false>(m, len, tw, src, reads, dst, butterfly)
    }
}

/// The pass body shared by every radix and both layouts (see the module
/// docs for the index map): `dst` is cut into blocks of `R` lines of `len`
/// before the inner loop so it writes without bounds checks. A block's
/// twiddle row is `p = g mod m` — `g` itself when blocks are `p`, 0 when
/// they are sequences (`m = 1`).
#[inline(always)]
fn pass_body<const R: usize, const UNIT: bool>(
    m: usize,
    len: usize,
    tw: &[c64],
    src: &[c64],
    reads: Reads,
    dst: &mut [c64],
    butterfly: impl Fn([c64; R]) -> [c64; R],
) {
    let stride = if UNIT { 1 } else { reads.stride };
    for (g, out) in dst.chunks_exact_mut(R * len).enumerate() {
        let lines: [&[c64]; R] = std::array::from_fn(|k| {
            &src[g * reads.block + k * reads.line..][..(len - 1) * stride + 1]
        });
        let mut out = out.chunks_exact_mut(len);
        let out: [&mut [c64]; R] =
            std::array::from_fn(|_| out.next().expect("R lines of len per block"));
        let p = g % m;
        let w = &tw[p * (R - 1)..][..R - 1];
        for u in 0..len {
            let a: [c64; R] = std::array::from_fn(|k| lines[k][u * stride]);
            let b = butterfly(a);
            out[0][u] = b[0];
            for j in 1..R {
                out[j][u] = if p == 0 { b[j] } else { b[j] * w[j - 1] };
            }
        }
    }
}

enum Kind {
    /// Stockham passes for 2,3,5-smooth n (none at all for n == 1).
    Smooth { stages: Vec<Stage> },
    /// Bluestein chirp-z for arbitrary n: embeds the length-n DFT in a
    /// circular convolution of power-of-two length m >= 2n-1.
    Bluestein {
        inner: Box<Plan1d>,
        /// chirp a_j = e^{-iπ j²/n} (forward sign), length n
        chirp: Vec<c64>,
        /// FFT of the zero-padded conjugate-chirp kernel over m, length m
        kernel_fft: Vec<c64>,
        m: usize,
    },
}

/// A reusable FFT plan for a fixed 1-D length.
pub struct Plan1d {
    n: usize,
    kind: Kind,
}

impl Plan1d {
    /// Build a plan for length `n` (any positive length).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        let kind = if let Some(factors) = factorize_smooth(n) {
            let mut left = n;
            let stages = factors
                .into_iter()
                .map(|r| {
                    left /= r;
                    Stage::new(r, left)
                })
                .collect();
            Kind::Smooth { stages }
        } else {
            let m = (2 * n - 1).next_power_of_two();
            let inner = Box::new(Plan1d::new(m));
            let pi = std::f64::consts::PI;
            // Use j^2 mod 2n to keep the phase argument small and precise.
            let chirp: Vec<c64> = (0..n)
                .map(|j| {
                    let q = (j * j) % (2 * n);
                    c64::cis(-pi * q as f64 / n as f64)
                })
                .collect();
            let mut kernel = vec![c64::ZERO; m];
            for j in 0..n {
                let v = chirp[j].conj().scale(1.0 / m as f64);
                kernel[j] = v;
                if j != 0 {
                    kernel[m - j] = v;
                }
            }
            let mut scratch = vec![c64::ZERO; m];
            inner.process(&mut kernel, &mut scratch, Direction::Forward);
            Kind::Bluestein {
                inner,
                chirp,
                kernel_fft: kernel,
                m,
            }
        };
        Plan1d { n, kind }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the plan length is 1.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 1
    }

    /// Scratch length [`Plan1d::process_strided`] / [`Plan1d::process_rows`]
    /// need for `s0` sequences: the whole `n·s0` block for smooth lengths
    /// (the Stockham passes ping-pong between data and scratch); Bluestein
    /// lengths work one sequence at a time in two length-m buffers.
    pub fn scratch_len(&self, s0: usize) -> usize {
        match &self.kind {
            Kind::Smooth { .. } => self.n * s0,
            Kind::Bluestein { m, .. } => 2 * m,
        }
    }

    /// In-place transform of one sequence: `process_strided` with `s0 = 1`.
    pub fn process(&self, data: &mut [c64], scratch: &mut [c64], dir: Direction) {
        self.process_strided(data, scratch, 1, dir);
    }

    /// In-place unnormalized transform of `s0` interleaved sequences laid
    /// out `[n][s0]` (element `j` of sequence `c` at `data[j·s0 + c]`),
    /// using caller-provided `scratch` of at least
    /// [`Plan1d::scratch_len`]`(s0)`. Each sequence gets exactly the
    /// arithmetic a lone [`Plan1d::process`] call would give it.
    pub fn process_strided(
        &self,
        data: &mut [c64],
        scratch: &mut [c64],
        s0: usize,
        dir: Direction,
    ) {
        self.run(data, scratch, s0, Layout::interleaved(s0), dir);
    }

    /// [`Plan1d::process_strided`] for `rows` contiguous sequences laid out
    /// `[rows][n]` (element `j` of sequence `c` at `data[c·n + j]`): same
    /// scratch, same arithmetic per sequence, and the batch shares every
    /// pass.
    pub fn process_rows(&self, data: &mut [c64], scratch: &mut [c64], rows: usize, dir: Direction) {
        self.run(data, scratch, rows, Layout::row_major(self.n), dir);
    }

    /// Transform the `s0` sequences `data` holds in layout `ends`.
    fn run(&self, data: &mut [c64], scratch: &mut [c64], s0: usize, ends: Layout, dir: Direction) {
        assert!(s0 > 0, "need at least one sequence");
        assert_eq!(data.len(), self.n * s0, "data length mismatch");
        assert!(scratch.len() >= self.scratch_len(s0), "scratch too small");
        match &self.kind {
            Kind::Smooth { stages } => {
                let (mut src, mut dst) = (data, &mut scratch[..self.n * s0]);
                let mut sp = 1;
                for (i, stage) in stages.iter().enumerate() {
                    // `data`'s layout at both ends, interleaved in between
                    let from = if i == 0 {
                        ends
                    } else {
                        Layout::interleaved(s0)
                    };
                    let rows_out = i + 1 == stages.len() && ends.elem == 1;
                    let (len, block, stride) = if rows_out {
                        // a block per sequence, lines along `t` (a lone
                        // sequence is both layouts and lands here too)
                        (sp, from.seq, from.elem)
                    } else {
                        // a block per `p`, lines along `(t, c)`
                        (s0 * sp, from.elem * sp, from.seq)
                    };
                    let line = from.elem * sp * stage.m;
                    let reads = Reads {
                        block,
                        line,
                        stride,
                    };
                    match dir {
                        Direction::Forward => stage.pass::<false>(len, src, reads, dst),
                        Direction::Inverse => stage.pass::<true>(len, src, reads, dst),
                    }
                    sp *= stage.radix;
                    std::mem::swap(&mut src, &mut dst);
                }
                if stages.len() % 2 == 1 {
                    // the result sits in scratch (now `src`); `dst` is data
                    dst.copy_from_slice(src);
                }
            }
            Kind::Bluestein {
                inner,
                chirp,
                kernel_fft,
                m,
            } => {
                // inverse = conj(forward(conj(x)))
                let conj_if_inverse = |z: c64| match dir {
                    Direction::Forward => z,
                    Direction::Inverse => z.conj(),
                };
                let (a, inner_scratch) = scratch[..2 * m].split_at_mut(*m);
                for c in 0..s0 {
                    // a_j = x_j * chirp_j, zero padded
                    let sequence = data[c * ends.seq..].iter().step_by(ends.elem);
                    for ((aj, &x), &w) in a.iter_mut().zip(sequence).zip(chirp) {
                        *aj = conj_if_inverse(x) * w;
                    }
                    a[self.n..].fill(c64::ZERO);
                    inner.process(a, inner_scratch, Direction::Forward);
                    for (aj, kj) in a.iter_mut().zip(kernel_fft) {
                        *aj *= *kj;
                    }
                    inner.process(a, inner_scratch, Direction::Inverse);
                    let sequence = data[c * ends.seq..].iter_mut().step_by(ends.elem);
                    for ((x, &aj), &w) in sequence.zip(a.iter()).zip(chirp) {
                        *x = conj_if_inverse(aj * w);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smooth_sizing() {
        assert_eq!(next_smooth(1), 1);
        assert_eq!(next_smooth(7), 8);
        assert_eq!(next_smooth(11), 12);
        assert_eq!(next_smooth(59), 60);
        assert_eq!(next_smooth(87), 90);
        assert_eq!(next_smooth(117), 120);
        assert_eq!(next_smooth(121), 125);
    }

    #[test]
    fn factorization_prefers_radix4() {
        assert_eq!(factorize_smooth(16), Some(vec![4, 4]));
        assert_eq!(factorize_smooth(60), Some(vec![4, 3, 5]));
        assert_eq!(factorize_smooth(7), None);
    }
}
