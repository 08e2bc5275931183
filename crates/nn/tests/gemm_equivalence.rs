//! Kernel-equivalence suite: the blocked / parallel GEMM must be **bitwise
//! identical** to the naive [`em_nn::reference`] kernels for every shape and
//! every thread count.
//!
//! This lives in its own integration binary because the thread-count parity
//! tests mutate the process-global worker budget via
//! [`em_nn::threadpool::set_max_threads`]; the unit tests inside the library
//! never touch it, and the tests here that do serialize on [`THREAD_CAP`].

use em_nn::{gemm, reference, threadpool};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes every test that overrides the global thread cap.
static THREAD_CAP: Mutex<()> = Mutex::new(());

/// Deterministic pseudo-noise in roughly [-1, 1) (Knuth multiplicative hash),
/// so property-test failures reproduce without capturing the data vectors.
fn fill(len: usize, salt: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
            ((h >> 8) as f32 / (1 << 24) as f32 - 0.5) * 2.0
        })
        .collect()
}

fn bits(c: &[f32]) -> Vec<u32> {
    c.iter().map(|v| v.to_bits()).collect()
}

/// Reference result for one (transpose-layout) variant, computed by the
/// naive kernels that predate the blocked implementation.
fn reference_gemm(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_trans: bool,
    b: &[f32],
    b_trans: bool,
) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    match (a_trans, b_trans) {
        (false, false) => reference::matmul(m, k, n, a, b, &mut c),
        (true, false) => reference::t_matmul(k, m, n, a, b, &mut c),
        (false, true) => reference::matmul_t(m, k, n, a, b, &mut c),
        (true, true) => {
            // No naive kernel ships this layout; build it by materializing
            // both transposes, which is exact (transposition moves bits).
            let mut at = vec![0.0f32; m * k];
            for p in 0..k {
                for i in 0..m {
                    at[i * k + p] = a[p * m + i];
                }
            }
            let mut bt = vec![0.0f32; k * n];
            for j in 0..n {
                for p in 0..k {
                    bt[p * n + j] = b[j * k + p];
                }
            }
            reference::matmul(m, k, n, &at, &bt, &mut c);
        }
    }
    c
}

/// Asserts blocked output == reference output, bit for bit, for all four
/// transpose layouts of one shape.
fn assert_all_layouts_match(m: usize, k: usize, n: usize) -> Result<(), TestCaseError> {
    for (a_trans, b_trans) in [(false, false), (true, false), (false, true), (true, true)] {
        let a = fill(m * k, 1 ^ (a_trans as u32) << 4);
        let b = fill(k * n, 2 ^ (b_trans as u32) << 4);
        let want = reference_gemm(m, k, n, &a, a_trans, &b, b_trans);

        // Poison the output buffer: k == 0 must still zero it.
        let mut got = vec![f32::NAN; m * n];
        gemm::gemm_blocked(m, k, n, &a, a_trans, &b, b_trans, &mut got);
        prop_assert_eq!(
            bits(&want),
            bits(&got),
            "gemm_blocked diverged at m={} k={} n={} a_trans={} b_trans={}",
            m,
            k,
            n,
            a_trans,
            b_trans
        );

        // The dispatching entry point must agree on both sides of its
        // small-size cutoff as well.
        let mut got2 = vec![f32::NAN; m * n];
        gemm::gemm(m, k, n, &a, a_trans, &b, b_trans, &mut got2);
        prop_assert_eq!(
            bits(&want),
            bits(&got2),
            "gemm dispatcher diverged at m={} k={} n={} a_trans={} b_trans={}",
            m,
            k,
            n,
            a_trans,
            b_trans
        );
    }
    Ok(())
}

proptest! {
    /// Satellite requirement: arbitrary shapes in 1..64 — with 0 included so
    /// the degenerate m=0 / n=0 / k=0 cases are drawn too — match the naive
    /// reference kernels exactly in all four transpose layouts.
    #[test]
    fn blocked_matches_reference_for_arbitrary_shapes(
        m in 0usize..=64,
        k in 0usize..=64,
        n in 0usize..=64,
    ) {
        assert_all_layouts_match(m, k, n)?;
    }
}

proptest! {
    /// Row-partition invariance of the fast kernel's register tiles: `m`
    /// rows in one call (4-row tiles, then single-row remainders) give
    /// exactly the bits of `m` single-row calls, in both B layouts, at
    /// non-tight strides. The single-row call is the oracle; the padding
    /// between rows of C must stay untouched. Both also equal [`gemm`] on
    /// packed copies of the operands.
    #[test]
    fn fast_strided_rows_are_partition_invariant(
        m in 1usize..=49,
        k in 0usize..=64,
        n in 1usize..=64,
        b_trans in 0u8..=1,
        pad in 1usize..=5,
    ) {
        let b_trans = b_trans == 1;
        let (sa, sc) = (k + pad, n + 2 * pad);
        let (brows, bcols) = if b_trans { (n, k) } else { (k, n) };
        let sb = bcols + pad + 1;
        let salt = (m * 4096 + k * 64 + n) as u32;
        let a = fill((m - 1) * sa + k, salt);
        let b = fill(brows.saturating_sub(1) * sb + bcols, salt ^ 0x5bd1);
        let sentinel = f32::from_bits(0x7fc0_1234);
        let mut tiled = vec![sentinel; (m - 1) * sc + n];
        gemm::gemm_fast_strided(m, k, n, &a, sa, &b, sb, b_trans, &mut tiled, sc);
        let mut rowwise = vec![sentinel; (m - 1) * sc + n];
        for i in 0..m {
            let (ai, ci) = (&a[i * sa..], &mut rowwise[i * sc..]);
            gemm::gemm_fast_strided(1, k, n, ai, sa, &b, sb, b_trans, ci, sc);
        }
        prop_assert_eq!(bits(&tiled), bits(&rowwise));

        // The rows of a strided buffer, packed tight.
        let tight = |v: &[f32], rows: usize, stride: usize, width: usize| -> Vec<f32> {
            (0..rows).flat_map(|r| v[r * stride..r * stride + width].to_vec()).collect()
        };
        let (ac, bc) = (tight(&a, m, sa, k), tight(&b, brows, sb, bcols));
        let mut packed = vec![0.0f32; m * n];
        gemm::gemm(m, k, n, &ac, false, &bc, b_trans, &mut packed);
        prop_assert_eq!(bits(&tight(&tiled, m, sc, n)), bits(&packed));
    }
}

/// The degenerate axes, pinned explicitly (the property test only draws them
/// with probability ~1/65 per axis).
#[test]
fn degenerate_dimensions_match_reference() {
    for (m, k, n) in [
        (0, 5, 7),
        (5, 0, 7),
        (5, 7, 0),
        (0, 0, 0),
        (1, 0, 1),
        (0, 64, 0),
    ] {
        assert_all_layouts_match(m, k, n).unwrap();
    }
}

/// Shapes straddling the microkernel tile (MR=8, NR=32) and the blocked
/// dispatch threshold, checked exhaustively around the edges.
#[test]
fn tile_edge_shapes_match_reference() {
    for m in [1, 7, 8, 9, 16, 17] {
        for n in [1, 31, 32, 33, 63] {
            assert_all_layouts_match(m, 17, n).unwrap();
        }
    }
}

/// Runs the acceptance-shaped multiply at a given thread cap and returns the
/// output bits. The shape exceeds `gemm`'s parallel threshold, so with cap
/// > 1 the row-band workers genuinely spawn.
fn run_at_threads(cap: usize) -> Vec<u32> {
    let (m, k, n) = (64, 512, 128); // 64·512·128 = 2^22 ≥ parallel threshold
    let a = fill(m * k, 11);
    let b = fill(k * n, 12);
    let mut c = vec![0.0f32; m * n];
    threadpool::set_max_threads(Some(cap));
    gemm::gemm_blocked(m, k, n, &a, false, &b, false, &mut c);
    threadpool::set_max_threads(None);
    bits(&c)
}

/// Satellite requirement: results are identical at 1, 2 and 8 threads, and
/// identical to the naive reference. Row-band partitioning never splits the
/// k reduction, so the per-element accumulation order is thread-invariant.
#[test]
fn results_are_identical_at_1_2_and_8_threads() {
    let _guard = THREAD_CAP.lock().unwrap();
    let (m, k, n) = (64, 512, 128);
    let a = fill(m * k, 11);
    let b = fill(k * n, 12);
    let mut want = vec![0.0f32; m * n];
    reference::matmul(m, k, n, &a, &b, &mut want);
    let want = bits(&want);

    for cap in [1, 2, 8] {
        let got = run_at_threads(cap);
        assert_eq!(
            want, got,
            "parallel GEMM diverged from reference at {cap} thread(s)"
        );
    }
}

/// The transposed layouts must be thread-count invariant too — they share
/// the packing code, but the A-side packing differs per layout.
#[test]
fn transposed_layouts_are_thread_count_invariant() {
    let _guard = THREAD_CAP.lock().unwrap();
    let (m, k, n) = (64, 512, 128);
    for (a_trans, b_trans) in [(true, false), (false, true), (true, true)] {
        let a = fill(m * k, 21);
        let b = fill(k * n, 22);
        let want = reference_gemm(m, k, n, &a, a_trans, &b, b_trans);
        let want = bits(&want);
        for cap in [1, 2, 8] {
            let mut c = vec![0.0f32; m * n];
            threadpool::set_max_threads(Some(cap));
            gemm::gemm_blocked(m, k, n, &a, a_trans, &b, b_trans, &mut c);
            threadpool::set_max_threads(None);
            assert_eq!(
                want,
                bits(&c),
                "layout (a_trans={a_trans}, b_trans={b_trans}) diverged at {cap} thread(s)"
            );
        }
    }
}
