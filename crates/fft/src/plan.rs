//! One-dimensional FFT plans.
//!
//! A [`Plan1d`] owns the per-stage twiddle tables for a fixed length and is
//! immutable after construction, so one plan can be shared across pool
//! workers; every call supplies its own scratch.
//!
//! Smooth lengths run as an iterative Stockham autosort transform: stage
//! `i` of radix `r` reads `src`, writes `dst`, and the two buffers swap.
//! With `m` butterflies left per sequence and `s` interleaved sequences
//! (the caller's `s0` times the radices already done),
//!
//! ```text
//! dst[q + s·(r·p + j)] = ω^{p·j} · Σ_k src[q + s·(p + m·k)] · ω_r^{j·k}
//! ```
//!
//! for `p < m`, `j < r`, `q < s` — the `q` loop is unit-stride on both
//! sides whatever the axis, and the output lands in natural order with no
//! bit-reversal pass.

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

    fn pass<const INV: bool>(&self, s: usize, src: &[c64], dst: &mut [c64]) {
        let tw = &self.tw[usize::from(INV)];
        match self.radix {
            2 => pass(self.m, s, tw, src, dst, butterfly2),
            3 => pass(self.m, s, tw, src, dst, butterfly3::<INV>),
            4 => pass(self.m, s, tw, src, dst, butterfly4::<INV>),
            5 => pass(self.m, s, tw, src, dst, butterfly5::<INV>),
            r => unreachable!("factorize_smooth never yields radix {r}"),
        }
    }
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

/// The pass body shared by every radix (see the module docs for the index
/// map). Inputs and outputs are cut into length-`s` rows before the `q`
/// loop so it runs without bounds checks.
#[inline(always)]
fn pass<const R: usize>(
    m: usize,
    s: usize,
    tw: &[c64],
    src: &[c64],
    dst: &mut [c64],
    butterfly: impl Fn([c64; R]) -> [c64; R],
) {
    for (p, out) in dst.chunks_exact_mut(R * s).enumerate() {
        let rows: [&[c64]; R] = std::array::from_fn(|k| &src[s * (p + m * k)..][..s]);
        let mut out = out.chunks_exact_mut(s);
        let out: [&mut [c64]; R] =
            std::array::from_fn(|_| out.next().expect("R rows of s per butterfly"));
        let w = &tw[p * (R - 1)..][..R - 1];
        for q in 0..s {
            let mut a = [c64::ZERO; R];
            for k in 0..R {
                a[k] = rows[k][q];
            }
            let b = butterfly(a);
            out[0][q] = b[0];
            for j in 1..R {
                out[j][q] = if p == 0 { b[j] } else { b[j] * w[j - 1] };
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

    /// Scratch length [`Plan1d::process_strided`] needs for `s0`
    /// interleaved sequences: the whole `n·s0` block for smooth lengths
    /// (the Stockham passes ping-pong between data and scratch); Bluestein
    /// lengths work one column at a time in two length-m buffers.
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
        assert!(s0 > 0, "need at least one sequence");
        assert_eq!(data.len(), self.n * s0, "data length mismatch");
        assert!(scratch.len() >= self.scratch_len(s0), "scratch too small");
        match &self.kind {
            Kind::Smooth { stages } => {
                let (mut src, mut dst) = (data, &mut scratch[..self.n * s0]);
                let mut s = s0;
                for stage in stages {
                    match dir {
                        Direction::Forward => stage.pass::<false>(s, src, dst),
                        Direction::Inverse => stage.pass::<true>(s, src, dst),
                    }
                    s *= stage.radix;
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
                    let column = data[c..].iter().step_by(s0);
                    for ((aj, &x), &w) in a.iter_mut().zip(column).zip(chirp) {
                        *aj = conj_if_inverse(x) * w;
                    }
                    a[self.n..].fill(c64::ZERO);
                    inner.process(a, inner_scratch, Direction::Forward);
                    for (aj, kj) in a.iter_mut().zip(kernel_fft) {
                        *aj *= *kj;
                    }
                    inner.process(a, inner_scratch, Direction::Inverse);
                    let column = data[c..].iter_mut().step_by(s0);
                    for ((x, &aj), &w) in column.zip(a.iter()).zip(chirp) {
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
