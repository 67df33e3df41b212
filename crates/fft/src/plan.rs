//! One-dimensional FFT plans.
//!
//! A [`Plan1d`] owns the twiddle tables for a fixed length and is immutable
//! after construction, so one plan can be shared across pool workers; each
//! call supplies (or allocates) its own scratch.

use pt_num::c64;

/// Transform direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// e^{-2πi jk/n}, unscaled.
    Forward,
    /// e^{+2πi jk/n}, scaled by 1/n.
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
/// halve recursion depth). Returns `None` if a different prime remains.
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

enum Kind {
    /// Trivial n == 1.
    Identity,
    /// Recursive mixed-radix Cooley–Tukey for 2,3,5-smooth n.
    MixedRadix { factors: Vec<usize> },
    /// Bluestein chirp-z for arbitrary n: embeds the length-n DFT in a
    /// circular convolution of power-of-two length m >= 2n-1.
    Bluestein {
        inner: Box<Plan1d>,
        /// chirp a_j = e^{-iπ j²/n} (forward sign), length n
        chirp: Vec<c64>,
        /// FFT of the zero-padded conjugate-chirp kernel, length m
        kernel_fft: Vec<c64>,
        m: usize,
    },
}

/// A reusable FFT plan for a fixed 1-D length.
pub struct Plan1d {
    n: usize,
    /// w[k] = e^{-2πik/n} for k in 0..n (forward roots).
    roots: Vec<c64>,
    kind: Kind,
}

impl Plan1d {
    /// Build a plan for length `n` (any positive length).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        let roots = (0..n)
            .map(|k| c64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let kind = if n == 1 {
            Kind::Identity
        } else if let Some(factors) = factorize_smooth(n) {
            Kind::MixedRadix { factors }
        } else {
            // Bluestein setup
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
                let v = chirp[j].conj();
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
        Plan1d { n, roots, kind }
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

    /// Scratch length required by [`Plan1d::process`].
    pub fn scratch_len(&self) -> usize {
        match &self.kind {
            Kind::Identity => 0,
            Kind::MixedRadix { .. } => self.n,
            // two length-m work buffers for the convolution
            Kind::Bluestein { m, .. } => 3 * m,
        }
    }

    /// In-place transform of `data` (length n) using caller-provided
    /// `scratch` (at least [`Plan1d::scratch_len`]).
    pub fn process(&self, data: &mut [c64], scratch: &mut [c64], dir: Direction) {
        assert_eq!(data.len(), self.n, "data length mismatch");
        assert!(scratch.len() >= self.scratch_len(), "scratch too small");
        match &self.kind {
            Kind::Identity => {}
            Kind::MixedRadix { factors } => {
                if dir == Direction::Inverse {
                    // inverse = conj(forward(conj(x)))/n
                    for z in data.iter_mut() {
                        *z = z.conj();
                    }
                }
                let out = &mut scratch[..self.n];
                self.rec(data, 1, out, self.n, 1, factors, 0);
                let inv_n = 1.0 / self.n as f64;
                if dir == Direction::Inverse {
                    for (d, s) in data.iter_mut().zip(out.iter()) {
                        *d = s.conj().scale(inv_n);
                    }
                } else {
                    data.copy_from_slice(out);
                }
            }
            Kind::Bluestein {
                inner,
                chirp,
                kernel_fft,
                m,
            } => {
                let m = *m;
                let conj_in = dir == Direction::Inverse;
                let (a, rest) = scratch.split_at_mut(m);
                let (inner_scratch, _) = rest.split_at_mut(2 * m);
                // a_j = x_j * chirp_j, zero padded
                for (j, aj) in a.iter_mut().enumerate().take(self.n) {
                    let x = if conj_in { data[j].conj() } else { data[j] };
                    *aj = x * chirp[j];
                }
                for aj in a.iter_mut().take(m).skip(self.n) {
                    *aj = c64::ZERO;
                }
                inner.process(a, inner_scratch, Direction::Forward);
                for (aj, kj) in a.iter_mut().zip(kernel_fft.iter()) {
                    *aj *= *kj;
                }
                inner.process(a, inner_scratch, Direction::Inverse);
                let inv_n = 1.0 / self.n as f64;
                for k in 0..self.n {
                    let y = a[k] * chirp[k];
                    data[k] = if conj_in { y.conj().scale(inv_n) } else { y };
                }
            }
        }
    }

    /// Convenience transform that allocates its own scratch.
    pub fn transform(&self, data: &mut [c64], dir: Direction) {
        let mut scratch = vec![c64::ZERO; self.scratch_len()];
        self.process(data, &mut scratch, dir);
    }

    /// Recursive decimation-in-time mixed-radix step.
    ///
    /// Transforms `n` elements read from `src` with stride `src_stride` into
    /// `dst[..n]` (contiguous). `root_stride = N / n` indexes the global
    /// forward root table.
    #[allow(clippy::too_many_arguments)] // recursion carries the full plan state
    fn rec(
        &self,
        src: &[c64],
        src_stride: usize,
        dst: &mut [c64],
        n: usize,
        root_stride: usize,
        factors: &[usize],
        depth: usize,
    ) {
        if n == 1 {
            dst[0] = src[0];
            return;
        }
        let r = factors[depth];
        let m = n / r;
        // Recurse on the r decimated subsequences.
        for q in 0..r {
            let (head, tail) = dst.split_at_mut(q * m);
            let _ = head;
            let sub = &mut tail[..m];
            self.rec(
                &src[q * src_stride..],
                src_stride * r,
                sub,
                m,
                root_stride * r,
                factors,
                depth + 1,
            );
        }
        // Combine: for each k, out[k + j*m] = Σ_q W_N^{rs·q·k} W_r^{qj} sub_q[k].
        let nn = self.roots.len();
        let mut t = [c64::ZERO; 5];
        for k in 0..m {
            for (q, tq) in t.iter_mut().enumerate().take(r) {
                let tw = self.roots[(q * k * root_stride) % nn];
                *tq = dst[q * m + k] * tw;
            }
            for j in 0..r {
                let mut acc = t[0];
                for (q, tq) in t.iter().enumerate().take(r).skip(1) {
                    // W_r^{qj} = roots[(q*j*m*root_stride) % nn]
                    let w = self.roots[(q * j * m * root_stride) % nn];
                    acc = acc.mul_add(*tq, w);
                }
                dst[k + j * m] = acc;
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
