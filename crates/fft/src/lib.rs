//! `pt-fft` — complex fast Fourier transforms for the plane-wave stack.
//!
//! The paper's hot loop is Alg. 2: the Fock exchange operator solves
//! N_e² Poisson-like equations per application, each of which is a pair of
//! 3-D FFTs on the wavefunction grid (60×90×120 for the 1536-atom system).
//! These sizes are 2,3,5-smooth by construction, so the core transform here
//! is an iterative Stockham autosort FFT: one pass per radix (hard-coded
//! 2/3/4/5/8/15 butterflies, per-pass twiddle tables; a length of one radix
//! is one butterfly per line, in place), batched on every axis of the 3-D
//! grid (contiguous rows through [`Plan1d::process_rows`],
//! interleaved columns through [`Plan1d::process_strided`]). Arbitrary
//! sizes fall back to Bluestein's chirp-z algorithm so property tests can
//! exercise any length. Orbitals — a G-sphere of coefficients on a mostly
//! empty grid — transform through [`Fft3::synthesis_serial`] /
//! [`Fft3::analysis_serial`], which skip the 1-D passes a [`SphereMap`]
//! shows to carry only zeros.
//!
//! Two batching modes mirror the paper's GPU optimization stages (§3.2):
//!
//! * **band-by-band** ([`Fft3::forward`] called per orbital, internally
//!   parallel over FFT lines) — the "step 1" port;
//! * **batched** ([`Fft3::forward_batch`], parallel across many independent
//!   3-D transforms) — the "step 2" batched CUFFT analogue, which is the
//!   profitable layout on wide machines.
//!
//! Conventions: `forward` computes X_k = Σ_j x_j e^{-2πi jk/n} (no scaling).
//! [`Fft3::inverse`] applies the conjugate transform and divides by N once,
//! so `inverse(forward(x)) == x`; a bare [`Plan1d`] and
//! [`Fft3::inverse_unscaled_serial`] leave the division to the caller.
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

mod plan;
mod sphere;
mod three_d;

pub use plan::{next_smooth, Direction, Plan1d};
pub use sphere::SphereMap;
pub use three_d::Fft3;

#[cfg(test)]
mod tests;
