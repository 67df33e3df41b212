//! Correctness tests: every transform is checked against the naive O(n²)
//! DFT and against algebraic invariants (roundtrip, Parseval, linearity,
//! shift theorem). Property tests cover arbitrary (including prime) sizes,
//! which exercise the Bluestein path. Relative contracts — strided and
//! row-major == one sequence at a time, parallel == serial, batch == loop,
//! sphere-limited == scatter/gather around the full transform — are held
//! at exact `to_bits` (`==` where a skipped zero line may flip the sign of
//! an exact zero).

use crate::{next_smooth, Direction, Fft3, Plan1d};
use proptest::prelude::*;
use pt_lattice::{Cell, GSphere};
use pt_num::c64;

fn naive_dft(x: &[c64], dir: Direction) -> Vec<c64> {
    let n = x.len();
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![c64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = c64::ZERO;
        for (j, &xj) in x.iter().enumerate() {
            let phase = sign * 2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64;
            acc += xj * c64::cis(phase);
        }
        *o = acc;
    }
    out
}

/// One sequence through `plan` with freshly allocated scratch.
fn transform(plan: &Plan1d, data: &mut [c64], dir: Direction) {
    let mut scratch = vec![c64::ZERO; plan.scratch_len(1)];
    plan.process(data, &mut scratch, dir);
}

/// Forward then inverse then the 1/n a plan leaves to its caller.
fn roundtrip(plan: &Plan1d, data: &mut [c64]) {
    transform(plan, data, Direction::Forward);
    transform(plan, data, Direction::Inverse);
    let inv_n = 1.0 / plan.len() as f64;
    for z in data.iter_mut() {
        *z = z.scale(inv_n);
    }
}

fn bits(a: &[c64]) -> Vec<(u64, u64)> {
    a.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

fn random_signal(n: usize, seed: u64) -> Vec<c64> {
    // Deterministic xorshift so tests are reproducible without rand.
    let mut rng =
        pt_num::rng::XorShift64::new(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1));
    (0..n)
        .map(|_| c64::new(rng.next_centered(), rng.next_centered()))
        .collect()
}

fn max_err(a: &[c64], b: &[c64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn matches_naive_dft_many_sizes() {
    // every 2,3,5-smooth length up to 128 (the paper's 60/90/120 lines
    // among them) through the Stockham passes, both directions
    for n in (1usize..=128).filter(|&n| next_smooth(n) == n) {
        let plan = Plan1d::new(n);
        let x = random_signal(n, n as u64);
        let scale = x.iter().map(|z| z.abs()).sum::<f64>();
        for dir in [Direction::Forward, Direction::Inverse] {
            let mut y = x.clone();
            transform(&plan, &mut y, dir);
            let err = max_err(&y, &naive_dft(&x, dir));
            assert!(err < 1e-12 * scale, "n={n} {dir:?} err={err}");
        }
    }
}

#[test]
fn paper_grid_lines_roundtrip() {
    // The 1536-atom wavefunction grid in the paper is 60 × 90 × 120.
    for n in [60usize, 90, 120] {
        let plan = Plan1d::new(n);
        let x = random_signal(n, n as u64 * 7);
        let mut y = x.clone();
        roundtrip(&plan, &mut y);
        assert!(max_err(&x, &y) < 1e-12, "n={n}");
    }
}

#[test]
fn bluestein_lengths_match_naive_dft() {
    for n in [7usize, 11, 13, 14, 17, 29, 31] {
        let plan = Plan1d::new(n);
        let x = random_signal(n, 1000 + n as u64);
        for dir in [Direction::Forward, Direction::Inverse] {
            let mut y = x.clone();
            transform(&plan, &mut y, dir);
            let err = max_err(&y, &naive_dft(&x, dir));
            assert!(err < 1e-11 * n as f64, "n={n} {dir:?} err={err}");
        }
    }
}

#[test]
fn strided_equals_one_sequence_at_a_time() {
    // smooth in place (one stage), with two passes and with three (the
    // result copied back), and Bluestein
    for n in [8usize, 15, 24, 60, 90, 7] {
        let plan = Plan1d::new(n);
        for s0 in [1usize, 3, 8, 15] {
            let x = random_signal(n * s0, (n * 100 + s0) as u64);
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut strided = x.clone();
                let mut scratch = vec![c64::ZERO; plan.scratch_len(s0)];
                plan.process_strided(&mut strided, &mut scratch, s0, dir);
                for c in 0..s0 {
                    let mut seq: Vec<c64> = (0..n).map(|j| x[j * s0 + c]).collect();
                    transform(&plan, &mut seq, dir);
                    let col: Vec<c64> = (0..n).map(|j| strided[j * s0 + c]).collect();
                    assert_eq!(bits(&col), bits(&seq), "n={n} s0={s0} c={c} {dir:?}");
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "scratch too small")]
fn strided_scratch_requirement_is_asserted() {
    let plan = Plan1d::new(12);
    let mut data = vec![c64::ZERO; 12 * 3];
    let mut scratch = vec![c64::ZERO; 12];
    plan.process_strided(&mut data, &mut scratch, 3, Direction::Forward);
}

#[test]
fn rows_equal_one_sequence_at_a_time() {
    // every smooth length (one stage: each row in place; odd and even pass
    // counts) and two Bluestein lengths
    let smooth = (1usize..=128).filter(|&n| next_smooth(n) == n);
    for n in smooth.chain([7, 11]) {
        let plan = Plan1d::new(n);
        for rows in [1usize, 3, 8, 15] {
            let x = random_signal(n * rows, (n * 100 + rows) as u64);
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut batched = x.clone();
                let mut scratch = vec![c64::ZERO; plan.scratch_len(rows)];
                plan.process_rows(&mut batched, &mut scratch, rows, dir);
                let mut looped = x.clone();
                for row in looped.chunks_exact_mut(n) {
                    transform(&plan, row, dir);
                }
                assert_eq!(bits(&batched), bits(&looped), "n={n} rows={rows} {dir:?}");
            }
        }
    }
}

#[test]
fn one_stage_lengths_transform_in_place() {
    // a single-radix length is one butterfly per sequence where the
    // sequence lies, in either layout: the scratch is never read or written
    let nan = c64::new(f64::NAN, f64::NAN);
    for n in [2usize, 3, 4, 5, 8, 15] {
        let plan = Plan1d::new(n);
        assert_eq!(plan.scratch_len(15), 0, "n={n}");
        for s0 in [1usize, 3, 8, 15] {
            let x = random_signal(n * s0, (n * 1000 + s0) as u64);
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut scratch = vec![nan; n * s0];
                let mut strided = x.clone();
                plan.process_strided(&mut strided, &mut scratch, s0, dir);
                let mut rows = x.clone();
                plan.process_rows(&mut rows, &mut scratch, s0, dir);
                assert_eq!(bits(&scratch), bits(&vec![nan; n * s0]), "n={n} s0={s0}");
                for c in 0..s0 {
                    let column: Vec<c64> = (0..n).map(|j| x[j * s0 + c]).collect();
                    let row = &x[c * n..][..n];
                    let got_column: Vec<c64> = (0..n).map(|j| strided[j * s0 + c]).collect();
                    let got_row = &rows[c * n..][..n];
                    for (seq, got) in [(&column[..], &got_column[..]), (row, got_row)] {
                        let scale = seq.iter().map(|z| z.abs()).sum::<f64>();
                        let err = max_err(got, &naive_dft(seq, dir));
                        assert!(err < 1e-12 * scale, "n={n} s0={s0} c={c} {dir:?} err={err}");
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "scratch too small")]
fn rows_scratch_requirement_is_asserted() {
    let plan = Plan1d::new(12);
    let mut data = vec![c64::ZERO; 12 * 3];
    let mut scratch = vec![c64::ZERO; 12];
    plan.process_rows(&mut data, &mut scratch, 3, Direction::Forward);
}

#[test]
fn delta_transforms_to_constant() {
    let n = 24;
    let plan = Plan1d::new(n);
    let mut x = vec![c64::ZERO; n];
    x[0] = c64::ONE;
    transform(&plan, &mut x, Direction::Forward);
    for v in &x {
        assert!((*v - c64::ONE).abs() < 1e-13);
    }
}

#[test]
fn plane_wave_transforms_to_delta() {
    let n = 30;
    let k0 = 7usize;
    let plan = Plan1d::new(n);
    let mut x: Vec<c64> = (0..n)
        .map(|j| c64::cis(2.0 * std::f64::consts::PI * (j * k0) as f64 / n as f64))
        .collect();
    transform(&plan, &mut x, Direction::Forward);
    for (k, v) in x.iter().enumerate() {
        let want = if k == k0 { n as f64 } else { 0.0 };
        assert!(
            (v.re - want).abs() < 1e-10 && v.im.abs() < 1e-10,
            "k={k} v={v:?}"
        );
    }
}

#[test]
fn parseval_identity() {
    let n = 48;
    let plan = Plan1d::new(n);
    let x = random_signal(n, 99);
    let mut y = x.clone();
    transform(&plan, &mut y, Direction::Forward);
    let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
    let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
    assert!((ex - ey).abs() < 1e-12 * ex);
}

#[test]
fn fft3_roundtrip_and_naive_small() {
    let (nx, ny, nz) = (3, 4, 5);
    let fft = Fft3::new(nx, ny, nz);
    let x = random_signal(nx * ny * nz, 5);
    // naive separable 3-D DFT
    let mut want = vec![c64::ZERO; x.len()];
    for kx in 0..nx {
        for ky in 0..ny {
            for kz in 0..nz {
                let mut acc = c64::ZERO;
                for jx in 0..nx {
                    for jy in 0..ny {
                        for jz in 0..nz {
                            let ph = -2.0
                                * std::f64::consts::PI
                                * ((jx * kx) as f64 / nx as f64
                                    + (jy * ky) as f64 / ny as f64
                                    + (jz * kz) as f64 / nz as f64);
                            acc += x[jx + nx * (jy + ny * jz)] * c64::cis(ph);
                        }
                    }
                }
                want[kx + nx * (ky + ny * kz)] = acc;
            }
        }
    }
    let mut y = x.clone();
    fft.forward(&mut y);
    assert!(max_err(&y, &want) < 1e-10, "forward vs naive");
    fft.inverse(&mut y);
    assert!(max_err(&y, &x) < 1e-12, "roundtrip");
}

#[test]
fn fft3_non_smooth_roundtrip() {
    // Bluestein on two axes: 7 as rows, 11 as interleaved columns (s0 = 7)
    let fft = Fft3::new(7, 11, 6);
    let x = random_signal(fft.len(), 41);
    let mut y = x.clone();
    fft.forward_serial(&mut y);
    let parseval: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / fft.len() as f64;
    let energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
    assert!((parseval - energy).abs() < 1e-12 * energy);
    fft.inverse_serial(&mut y);
    assert!(max_err(&y, &x) < 1e-12, "roundtrip");
}

#[test]
fn fft3_serial_equals_parallel() {
    // smooth grid, and one whose x and y lines are Bluestein
    for (nx, ny, nz) in [(12, 10, 9), (7, 11, 6)] {
        let fft = Fft3::new(nx, ny, nz);
        let x = random_signal(fft.len(), 17);
        let mut serial = x.clone();
        fft.forward_serial(&mut serial);
        let mut serial_inv = x.clone();
        fft.inverse_serial(&mut serial_inv);
        for threads in [1, 4] {
            pt_par::ThreadPool::new(threads).install(|| {
                let mut a = x.clone();
                fft.forward(&mut a);
                assert_eq!(bits(&a), bits(&serial), "forward on {threads} threads");
                let mut b = x.clone();
                fft.inverse(&mut b);
                assert_eq!(bits(&b), bits(&serial_inv), "inverse on {threads} threads");
            });
        }
    }
}

#[test]
fn fft3_unscaled_inverse_differs_by_n_only() {
    let fft = Fft3::new(6, 5, 4);
    let x = random_signal(fft.len(), 3);
    let mut scaled = x.clone();
    fft.inverse_serial(&mut scaled);
    let mut unscaled = x.clone();
    fft.inverse_unscaled_serial(&mut unscaled);
    let inv_n = 1.0 / fft.len() as f64;
    let rescaled: Vec<c64> = unscaled.iter().map(|z| z.scale(inv_n)).collect();
    assert_eq!(bits(&rescaled), bits(&scaled));
}

#[test]
fn fft3_batch_equals_loop() {
    let fft = Fft3::new(6, 5, 4);
    let n = fft.len();
    let batch = 7;
    let x = random_signal(n * batch, 23);
    let mut a = x.clone();
    fft.forward_batch(&mut a);
    let mut b = x.clone();
    for chunk in b.chunks_mut(n) {
        fft.forward_serial(chunk);
    }
    assert_eq!(bits(&a), bits(&b));
    fft.inverse_batch(&mut a);
    for chunk in b.chunks_mut(n) {
        fft.inverse_serial(chunk);
    }
    assert_eq!(bits(&a), bits(&b));
    assert!(max_err(&a, &x) < 1e-12);
}

/// The index sets the sphere-limited tests run on `dims`: the G-sphere of
/// an orthorhombic and of a sheared cell (cutoff at half the grid's own, as
/// the wavefunction sphere sits on the dense grid), G = 0 alone, and a set
/// with a coefficient in every x-row (nothing to skip).
fn index_sets(dims: (usize, usize, usize)) -> Vec<(&'static str, Vec<usize>)> {
    let (nx, ny, nz) = dims;
    let h = 0.7;
    let (lx, ly, lz) = (nx as f64 * h, ny as f64 * h, nz as f64 * h);
    let ecut = 0.5 * (std::f64::consts::PI / (2.0 * h)).powi(2);
    let sheared = Cell::new([
        [lx, 0.0, 0.0],
        [0.2 * lx, ly, 0.0],
        [0.1 * lx, -0.15 * ly, lz],
    ]);
    let sphere = |cell: &Cell| GSphere::new(cell, ecut, dims).fft_index;
    vec![
        ("orthorhombic", sphere(&Cell::orthorhombic(lx, ly, lz))),
        ("sheared", sphere(&sheared)),
        ("G = 0", vec![0]),
        ("every row", (0..ny * nz).map(|r| r * nx + r % nx).collect()),
    ]
}

const SPHERE_GRIDS: [(usize, usize, usize); 3] = [(12, 10, 9), (15, 15, 15), (7, 11, 6)];

#[test]
fn sphere_limited_transforms_equal_scatter_and_gather_around_full_ones() {
    // `==` on re/im, not `to_bits`: a skipped all-zero line stays +0 where
    // the butterflies may compute −0, so an output that is exactly zero
    // (nowhere else) may differ in sign
    let same = |a: &[c64], b: &[c64]| a.iter().zip(b).all(|(x, y)| x.re == y.re && x.im == y.im);
    for dims in SPHERE_GRIDS {
        let fft = Fft3::new(dims.0, dims.1, dims.2);
        for (name, index) in index_sets(dims) {
            let map = fft.sphere_map(&index);
            let coeffs = random_signal(index.len(), 7 + index.len() as u64);
            let mut limited = vec![c64::ONE; fft.len()];
            fft.synthesis_serial(&map, &coeffs, &mut limited);
            let mut full = vec![c64::ZERO; fft.len()];
            for (c, &i) in coeffs.iter().zip(&index) {
                full[i] = *c;
            }
            fft.inverse_unscaled_serial(&mut full);
            assert!(same(&limited, &full), "synthesis {name} on {dims:?}");

            let values = random_signal(fft.len(), 11 + index.len() as u64);
            let mut gathered = vec![c64::ZERO; index.len()];
            fft.analysis_serial(&map, &mut values.clone(), &mut gathered);
            let mut full = values;
            fft.forward_serial(&mut full);
            let want: Vec<c64> = index.iter().map(|&i| full[i]).collect();
            assert!(same(&gathered, &want), "analysis {name} on {dims:?}");
        }
    }
}

#[test]
fn analysis_is_the_adjoint_of_synthesis() {
    // gather∘F and F^H∘scatter, both unscaled: ⟨analysis(v), c⟩ = ⟨v, synthesis(c)⟩
    let dot = |a: &[c64], b: &[c64]| {
        a.iter()
            .zip(b)
            .fold(c64::ZERO, |s, (x, y)| s + x.conj() * *y)
    };
    for dims in SPHERE_GRIDS {
        let fft = Fft3::new(dims.0, dims.1, dims.2);
        for (name, index) in index_sets(dims) {
            let map = fft.sphere_map(&index);
            let c = random_signal(index.len(), 3);
            let v = random_signal(fft.len(), 5);
            let mut av = vec![c64::ZERO; index.len()];
            fft.analysis_serial(&map, &mut v.clone(), &mut av);
            let mut sc = vec![c64::ZERO; fft.len()];
            fft.synthesis_serial(&map, &c, &mut sc);
            let (lhs, rhs) = (dot(&av, &c), dot(&v, &sc));
            assert!(
                (lhs - rhs).abs() < 1e-13 * lhs.abs().max(1.0),
                "{name} on {dims:?}: {lhs:?} vs {rhs:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_roundtrip_any_size(n in 1usize..80, seed in 0u64..1000) {
        let plan = Plan1d::new(n);
        let x = random_signal(n, seed);
        let mut y = x.clone();
        roundtrip(&plan, &mut y);
        prop_assert!(max_err(&x, &y) < 1e-10);
    }

    #[test]
    fn prop_linearity(n in 2usize..50, seed in 0u64..1000) {
        let plan = Plan1d::new(n);
        let x = random_signal(n, seed);
        let y = random_signal(n, seed + 1);
        let alpha = c64::new(0.7, -0.3);
        let mut lhs: Vec<c64> = x.iter().zip(&y).map(|(a, b)| *a * alpha + *b).collect();
        transform(&plan, &mut lhs, Direction::Forward);
        let mut fx = x.clone();
        let mut fy = y.clone();
        transform(&plan, &mut fx, Direction::Forward);
        transform(&plan, &mut fy, Direction::Forward);
        let rhs: Vec<c64> = fx.iter().zip(&fy).map(|(a, b)| *a * alpha + *b).collect();
        prop_assert!(max_err(&lhs, &rhs) < 1e-9);
    }

    #[test]
    fn prop_next_smooth_is_smooth_and_minimal(n in 1usize..5000) {
        let m = next_smooth(n);
        prop_assert!(m >= n);
        let mut q = m;
        for p in [2usize, 3, 5] { while q.is_multiple_of(p) { q /= p; } }
        prop_assert_eq!(q, 1);
    }

    #[test]
    fn prop_shift_theorem(n in 4usize..40, shift in 1usize..8, seed in 0u64..100) {
        let shift = shift % n;
        let plan = Plan1d::new(n);
        let x = random_signal(n, seed);
        let shifted: Vec<c64> = (0..n).map(|j| x[(j + shift) % n]).collect();
        let mut fx = x.clone();
        let mut fs = shifted;
        transform(&plan, &mut fx, Direction::Forward);
        transform(&plan, &mut fs, Direction::Forward);
        for k in 0..n {
            let phase = c64::cis(2.0 * std::f64::consts::PI * (k * shift % n) as f64 / n as f64);
            let want = fx[k] * phase;
            prop_assert!((fs[k] - want).abs() < 1e-9);
        }
    }
}
