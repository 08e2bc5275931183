//! Cache-blocked, register-tiled, optionally parallel `f32` GEMM.
//!
//! One kernel serves all four operand layouts (`A·B`, `Aᵀ·B`, `A·Bᵀ`,
//! `Aᵀ·Bᵀ`): the layout only affects how operands are *packed*, never how
//! products are accumulated.
//!
//! # Design
//!
//! * **Packing.** `B` is repacked once per call into `NR`-wide column
//!   panels (`bpack[panel][p * NR + j]`), and each band of `A` rows into
//!   `MR`-wide row strips (`apack[strip][p * MR + i]`), both zero-padded
//!   at the edges. The microkernel then streams both operands with unit
//!   stride regardless of the original layout.
//! * **Register tiling.** The microkernel keeps an `MR×NR = 8×32` f32
//!   accumulator tile in registers (16 AVX-512 vectors, issued as fused
//!   multiply-adds) and performs the full `p = 0..k` reduction over it in
//!   one pass, so each output element is read and written exactly once.
//! * **Cache blocking.** Within a band the panel loop is outermost: one
//!   `k×NR` B panel (L1/L2-resident) is reused against every `MR×k` A
//!   strip of the band before moving on, so B traffic drops by a factor
//!   of `MR` versus the naive ikj loop and A strips stream sequentially.
//! * **Parallelism.** Row strips are divided into contiguous bands, one
//!   per worker, with worker count drawn from the shared
//!   [`crate::threadpool`] budget (so a GEMM nested inside an already
//!   parallel region degrades to sequential instead of oversubscribing).
//!
//! # Determinism
//!
//! Results are **bitwise identical** to the naive loops in
//! [`crate::reference`], at every thread count:
//!
//! * each output element accumulates its `k` products serially in
//!   `p = 0..k` order, starting from `+0.0` — the same sequence the
//!   reference kernels perform — and Rust never reassociates float adds
//!   nor contracts `mul + add` into FMA;
//! * the parallel driver partitions **output rows only**; `k` is never
//!   split, so no partial sums are ever combined;
//! * zero padding only ever feeds accumulators of padded (discarded)
//!   tile slots, never a real output element.

use crate::threadpool;

/// Metric handles resolved once; GEMM runs millions of times per study, so
/// the registry lock must never sit on this path.
struct GemmMetrics {
    calls: std::sync::Arc<em_obs::metrics::Counter>,
    flops: std::sync::Arc<em_obs::metrics::Counter>,
}

fn gemm_metrics() -> &'static GemmMetrics {
    static METRICS: std::sync::OnceLock<GemmMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| GemmMetrics {
        calls: em_obs::metrics::counter("gemm.calls"),
        flops: em_obs::metrics::counter("gemm.flops"),
    })
}

/// Microkernel tile height (rows of `A` per strip).
pub const MR: usize = 8;
/// Microkernel tile width (columns of `B` per panel).
pub const NR: usize = 32;

/// Below this `m·n·k` volume the naive reference loops win (packing
/// overhead dominates); the result is bitwise identical either way.
const BLOCKED_MIN_VOLUME: usize = 32 * 32 * 32;

/// Minimum `m·n·k` volume before worker threads are requested.
const PARALLEL_MIN_VOLUME: usize = 1 << 21;

/// `C = op(A)·op(B)` with `op` selected per operand.
///
/// * `a` holds `m×k` row-major when `a_trans` is false, `k×m` when true.
/// * `b` holds `k×n` row-major when `b_trans` is false, `n×k` when true.
/// * `c` must be `m×n`; it is overwritten with the product (existing
///   content is ignored, never accumulated into).
///
/// Dispatches between the blocked kernel and the naive reference by
/// problem volume; both produce bitwise-identical results.
pub fn gemm(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_trans: bool,
    b: &[f32],
    b_trans: bool,
    c: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k, "A shape mismatch");
    debug_assert_eq!(b.len(), k * n, "B shape mismatch");
    debug_assert_eq!(c.len(), m * n, "C shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    let volume = m.saturating_mul(n).saturating_mul(k);
    if em_obs::capture_enabled() {
        let metrics = gemm_metrics();
        metrics.calls.inc();
        // One multiply + one add per (i, j, p) triple.
        metrics.flops.add(2 * volume as u64);
    }
    if volume < BLOCKED_MIN_VOLUME {
        // The reference kernels accumulate into `c` (the seed semantics);
        // zero it first so every path through `gemm` overwrites.
        c.iter_mut().for_each(|v| *v = 0.0);
        match (a_trans, b_trans) {
            (false, false) => crate::reference::matmul(m, k, n, a, b, c),
            (true, false) => crate::reference::t_matmul(k, m, n, a, b, c),
            (false, true) => crate::reference::matmul_t(m, k, n, a, b, c),
            // No naive reference for the doubly-transposed layout; the
            // blocked kernel handles it via packing.
            (true, true) => gemm_blocked(m, k, n, a, a_trans, b, b_trans, c),
        }
    } else {
        gemm_blocked(m, k, n, a, a_trans, b, b_trans, c);
    }
}

/// `C = A·op(B)` with FMA contraction, for small inference-only products.
///
/// Same shape contract as [`gemm`] with `a_trans = false`. Each element
/// accumulates serially over `k` from `+0.0` with fused multiply-add, the
/// sequence [`gemm`] performs too, so the two agree bit for bit (pinned by
/// `tests/gemm_equivalence.rs`); what differs is the cost: no packing,
/// the whole output row in registers, rows taken four at a time. Serves
/// the attention core in Int8 inference mode. The result depends only on
/// the operand values, so batch composition never changes a sequence's
/// bits.
///
/// Falls back to [`gemm`] when `n > MAX_FAST_N` (accumulators no longer
/// fit the register budget) or the build lacks AVX-512.
pub fn gemm_fast(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    b_trans: bool,
    c: &mut [f32],
) {
    // Asserted, not debug-asserted: the kernels read and write through
    // raw pointers sized by these shapes.
    assert_eq!(a.len(), m * k, "A shape mismatch");
    assert_eq!(b.len(), k * n, "B shape mismatch");
    assert_eq!(c.len(), m * n, "C shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if em_obs::capture_enabled() {
        let metrics = gemm_metrics();
        metrics.calls.inc();
        metrics.flops.add(2 * (m * n * k) as u64);
    }
    fast_kernels::gemm_fast(m, k, n, a, b, b_trans, c);
}

/// Strided form of [`gemm_fast`]: operand rows live at a caller-supplied
/// stride, so attention can read Q/K/V head blocks (and write the context
/// into the concatenated layout) straight out of the interleaved
/// `(batch·seq, dim)` tensors — no head packing or unpacking passes.
///
/// * `a` row `i` starts at `i·a_stride` (`k` values).
/// * `b` row `p` starts at `p·b_stride` (`n` values) when `!b_trans`;
///   when `b_trans`, element `(p, j)` is `b[j·b_stride + p]` (`n` rows of
///   `k` values).
/// * `c` row `i` starts at `i·c_stride` (`n` values).
///
/// Per-element accumulation order is identical to [`gemm_fast`] on packed
/// copies of the same operands, so the two produce bitwise-identical
/// results — the layout is an addressing change, not a numeric one.
#[allow(clippy::too_many_arguments)]
pub fn gemm_fast_strided(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    b_stride: usize,
    b_trans: bool,
    c: &mut [f32],
    c_stride: usize,
) {
    debug_assert!(a_stride >= k && b_stride >= if b_trans { k } else { n } && c_stride >= n);
    if m == 0 || n == 0 {
        return;
    }
    // The kernels address operands through raw pointers: these extents
    // are what keeps them in bounds.
    let (brows, bcols) = if b_trans { (n, k) } else { (k, n) };
    assert!(a.len() >= (m - 1) * a_stride + k, "A shape mismatch");
    assert!(brows == 0 || b.len() >= (brows - 1) * b_stride + bcols, "B shape mismatch");
    assert!(c.len() >= (m - 1) * c_stride + n, "C shape mismatch");
    if em_obs::capture_enabled() {
        let metrics = gemm_metrics();
        metrics.calls.inc();
        metrics.flops.add(2 * (m * n * k) as u64);
    }
    fast_kernels::gemm_fast_strided(m, k, n, a, a_stride, b, b_stride, b_trans, c, c_stride);
}

/// Widest `n` the broadcast-FMA kernel holds in registers (4 zmm
/// accumulators). Attention-core shapes are `n = seq ≤ 64` or `n = hd`.
pub const MAX_FAST_N: usize = 64;

/// Broadcast-FMA direct kernels (no packing): row `i` of `C` accumulates
/// `a[i,k] · B[k, :]` over `k` with the whole output row held in
/// registers. `b_trans` operands are transposed into a small stack
/// buffer first — the attention `Q·Kᵀ` product is the only caller.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod fast_kernels {
    use std::arch::x86_64::*;

    /// Stack scratch for the transposed-B copy: covers `k·n` up to
    /// 64 × [`super::MAX_FAST_N`] (attention: `seq × seq` ≤ 64 × 64).
    const MAX_BT: usize = 64 * super::MAX_FAST_N;

    pub fn gemm_fast(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], b_trans: bool, c: &mut [f32]) {
        if n > super::MAX_FAST_N || (b_trans && k * n > MAX_BT) {
            super::gemm(m, k, n, a, false, b, b_trans, c);
            return;
        }
        gemm_fast_strided(m, k, n, a, k, b, if b_trans { k } else { n }, b_trans, c, n);
    }

    #[allow(clippy::too_many_arguments)]
    pub fn gemm_fast_strided(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        b_stride: usize,
        b_trans: bool,
        c: &mut [f32],
        c_stride: usize,
    ) {
        if n > super::MAX_FAST_N || (b_trans && k * n > MAX_BT) {
            portable_strided(m, k, n, a, a_stride, b, b_stride, b_trans, c, c_stride);
            return;
        }
        if b_trans {
            // b holds n rows of k values at b_stride; the kernel wants k×n.
            // Only the first k·n entries are written and read, so the
            // scratch is never zero-filled.
            let mut bt = std::mem::MaybeUninit::<[f32; MAX_BT]>::uninit();
            let btp = bt.as_mut_ptr() as *mut f32;
            for j in 0..n {
                let brow = &b[j * b_stride..j * b_stride + k];
                for (p, &v) in brow.iter().enumerate() {
                    // SAFETY: p·n + j < k·n ≤ MAX_BT (checked above).
                    unsafe { btp.add(p * n + j).write(v) };
                }
            }
            // SAFETY: the loop above initialised every entry p·n + j of
            // the first k·n; the extents of a and c were asserted by the
            // caller, and bt holds k rows of n at stride n.
            unsafe {
                let bt = std::slice::from_raw_parts(btp, k * n);
                broadcast_fma(m, k, n, a, a_stride, bt, n, c, c_stride)
            }
        } else {
            // SAFETY: operand extents were asserted by the caller.
            unsafe { broadcast_fma(m, k, n, a, a_stride, b, b_stride, c, c_stride) }
        }
    }

    /// Scalar escape hatch for shapes past the register budget; mirrors
    /// the FMA contraction so results stay consistent per build.
    #[allow(clippy::too_many_arguments)]
    fn portable_strided(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        b_stride: usize,
        b_trans: bool,
        c: &mut [f32],
        c_stride: usize,
    ) {
        for i in 0..m {
            let arow = &a[i * a_stride..i * a_stride + k];
            for j in 0..n {
                let mut s = 0.0f32;
                for (p, &av) in arow.iter().enumerate() {
                    let bv = if b_trans { b[j * b_stride + p] } else { b[p * b_stride + j] };
                    s = av.mul_add(bv, s);
                }
                c[i * c_stride + j] = s;
            }
        }
    }

    /// `C[i, :] = Σ_k a[i,k] · B[k, :]` with up to 4 zmm accumulators per
    /// row; `n ≤ 64`. Rows of every operand live at caller strides.
    /// Monomorphised on the zmm group count `G = ⌈n/16⌉`.
    ///
    /// # Safety
    ///
    /// `1 ≤ n ≤ 64`; `a` holds at least `(m−1)·a_stride + k` values, `b`
    /// at least `k` rows of `n` at `b_stride`, `c` at least
    /// `(m−1)·c_stride + n`. Loads and stores are lane-masked to `n`, so
    /// nothing past a row's `n` values is touched.
    #[allow(clippy::too_many_arguments)]
    unsafe fn broadcast_fma(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        b_stride: usize,
        c: &mut [f32],
        c_stride: usize,
    ) {
        let op = Operands {
            k,
            a: a.as_ptr(),
            a_stride,
            b: b.as_ptr(),
            b_stride,
            c: c.as_mut_ptr(),
            c_stride,
        };
        let tail = if n % 16 == 0 { 0xffffu16 } else { (1u16 << (n % 16)) - 1 };
        match n.div_ceil(16) {
            1 => rows::<1>(m, &op, tail),
            2 => rows::<2>(m, &op, tail),
            3 => rows::<3>(m, &op, tail),
            _ => rows::<4>(m, &op, tail),
        }
    }

    /// Raw operand addressing shared by every tile of one call.
    struct Operands {
        k: usize,
        a: *const f32,
        a_stride: usize,
        b: *const f32,
        b_stride: usize,
        c: *mut f32,
        c_stride: usize,
    }

    /// Rows in blocks of 4, then the remainder one at a time.
    ///
    /// # Safety
    ///
    /// `op` describes operands satisfying [`broadcast_fma`]'s contract for
    /// `m` rows and `n ≤ 16·G` columns, with `tail` the last group's mask.
    #[inline(always)]
    unsafe fn rows<const G: usize>(m: usize, op: &Operands, tail: u16) {
        let mut i = 0;
        while i + 4 <= m {
            tile::<4, G>(i, op, tail);
            i += 4;
        }
        while i < m {
            tile::<1, G>(i, op, tail);
            i += 1;
        }
    }

    /// An `R × 16G` register tile: `R` independent FMA chains per B vector
    /// keep the FMA pipes busy where a single row would wait on its own
    /// previous result every step. Each element still accumulates
    /// serially over `p = 0..k` from `+0.0`, exactly as a row on its own.
    ///
    /// # Safety
    ///
    /// As [`rows`], for rows `i0..i0 + R`.
    #[inline(always)]
    unsafe fn tile<const R: usize, const G: usize>(i0: usize, op: &Operands, tail: u16) {
        let gmask = |g: usize| if g + 1 == G { tail } else { 0xffff };
        let mut acc = [[_mm512_setzero_ps(); G]; R];
        for p in 0..op.k {
            let brow = op.b.add(p * op.b_stride);
            let mut x = [_mm512_setzero_ps(); G];
            for (g, xg) in x.iter_mut().enumerate() {
                *xg = _mm512_maskz_loadu_ps(gmask(g), brow.add(g * 16));
            }
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*op.a.add((i0 + r) * op.a_stride + p));
                for (accg, &xg) in accr.iter_mut().zip(&x) {
                    *accg = _mm512_fmadd_ps(av, xg, *accg);
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            let crow = op.c.add((i0 + r) * op.c_stride);
            for (g, &accg) in accr.iter().enumerate() {
                _mm512_mask_storeu_ps(crow.add(g * 16), gmask(g), accg);
            }
        }
    }
}

/// Portable fallback: no FMA to exploit, so the fast entry is just the
/// exact kernel — no speedup, no additional drift. The strided entry
/// stages operands into contiguous buffers and delegates likewise.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
mod fast_kernels {
    pub fn gemm_fast(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], b_trans: bool, c: &mut [f32]) {
        super::gemm(m, k, n, a, false, b, b_trans, c);
    }

    #[allow(clippy::too_many_arguments)]
    pub fn gemm_fast_strided(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        b_stride: usize,
        b_trans: bool,
        c: &mut [f32],
        c_stride: usize,
    ) {
        let ac: Vec<f32> = (0..m).flat_map(|i| a[i * a_stride..i * a_stride + k].iter().copied()).collect();
        let brows = if b_trans { n } else { k };
        let bcols = if b_trans { k } else { n };
        let bc: Vec<f32> =
            (0..brows).flat_map(|r| b[r * b_stride..r * b_stride + bcols].iter().copied()).collect();
        let mut cc = vec![0.0f32; m * n];
        super::gemm(m, k, n, &ac, false, &bc, b_trans, &mut cc);
        for i in 0..m {
            c[i * c_stride..i * c_stride + n].copy_from_slice(&cc[i * n..(i + 1) * n]);
        }
    }
}

/// The blocked kernel, unconditionally (no size dispatch). Public so the
/// equivalence tests and benchmarks can exercise it on any shape.
pub fn gemm_blocked(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_trans: bool,
    b: &[f32],
    b_trans: bool,
    c: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k, "A shape mismatch");
    debug_assert_eq!(b.len(), k * n, "B shape mismatch");
    debug_assert_eq!(c.len(), m * n, "C shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // The p-loop is empty: C is all zeros, matching the reference.
        c.iter_mut().for_each(|v| *v = 0.0);
        return;
    }

    let npanels = n.div_ceil(NR);
    let nstrips = m.div_ceil(MR);
    let mut bpack = vec![0.0f32; npanels * k * NR];
    pack_b(k, n, b, b_trans, &mut bpack);

    let volume = m * n * k;
    // Only parallel-scale GEMMs get a span; per-tile calls are far too
    // frequent to trace individually (they are visible in `gemm.calls`).
    let _span = if volume >= PARALLEL_MIN_VOLUME {
        em_obs::span!("gemm.large", m = m, n = n, k = k)
    } else {
        em_obs::trace::SpanGuard::disabled()
    };
    let reservation = if volume >= PARALLEL_MIN_VOLUME && nstrips > 1 {
        threadpool::reserve_workers(nstrips - 1)
    } else {
        threadpool::reserve_workers(0)
    };
    let nworkers = reservation.total().min(nstrips);

    if nworkers <= 1 {
        process_band(0, nstrips, m, k, n, a, a_trans, &bpack, c);
        return;
    }

    // Split the strip range into `nworkers` contiguous bands. Each band
    // owns a disjoint slice of C rows; per-element results do not depend
    // on the partition, only on (strip, panel), so any band split yields
    // bitwise-identical output.
    let base = nstrips / nworkers;
    let rem = nstrips % nworkers;
    std::thread::scope(|scope| {
        let mut rest = c;
        let mut strip0 = 0usize;
        for t in 0..nworkers {
            let strips_here = base + usize::from(t < rem);
            let row0 = strip0 * MR;
            let rows_here = ((strip0 + strips_here) * MR).min(m) - row0;
            let (band, tail) = rest.split_at_mut(rows_here * n);
            rest = tail;
            let bpack_ref = &bpack;
            let mut run = move || {
                process_band(strip0, strips_here, m, k, n, a, a_trans, bpack_ref, band);
            };
            if t + 1 == nworkers {
                // The calling thread works the last band itself.
                run();
            } else {
                scope.spawn(run);
            }
            strip0 += strips_here;
        }
    });
}

/// Packs `B` (`k×n` row-major, or `n×k` when `b_trans`) into `NR`-wide
/// column panels: `out[u * k * NR + p * NR + j] = b(p, u*NR + j)`,
/// zero-padding columns past `n`.
fn pack_b(k: usize, n: usize, b: &[f32], b_trans: bool, out: &mut [f32]) {
    let npanels = n.div_ceil(NR);
    if !b_trans {
        // Row-outer: each B row is read once, its NR-chunks scattered to
        // the panels — contiguous loads and stores throughout.
        for (p, row) in b.chunks_exact(n).enumerate() {
            let mut j0 = 0usize;
            for u in 0..npanels {
                let nr_eff = NR.min(n - j0);
                let dst = &mut out[u * k * NR + p * NR..u * k * NR + (p + 1) * NR];
                dst[..nr_eff].copy_from_slice(&row[j0..j0 + nr_eff]);
                dst[nr_eff..].iter_mut().for_each(|v| *v = 0.0);
                j0 += NR;
            }
        }
    } else {
        // b is n×k: column j of logical B is the contiguous row j.
        for u in 0..npanels {
            let j0 = u * NR;
            let nr_eff = NR.min(n - j0);
            let panel = &mut out[u * k * NR..(u + 1) * k * NR];
            for (jj, src) in b[j0 * k..].chunks_exact(k).take(nr_eff).enumerate() {
                for (p, &v) in src.iter().enumerate() {
                    panel[p * NR + jj] = v;
                }
            }
            if nr_eff < NR {
                for p in 0..k {
                    panel[p * NR + nr_eff..(p + 1) * NR]
                        .iter_mut()
                        .for_each(|v| *v = 0.0);
                }
            }
        }
    }
}

/// Packs one `MR`-row strip of `A` (`m×k` row-major, or `k×m` when
/// `a_trans`) as `out[p * MR + i] = a(row0 + i, p)`, zero-padding rows
/// past `m`.
fn pack_a_strip(
    k: usize,
    m: usize,
    row0: usize,
    a: &[f32],
    a_trans: bool,
    out: &mut [f32],
) {
    let mr_eff = MR.min(m - row0);
    if !a_trans {
        if mr_eff == MR {
            // p-outer over MR parallel read streams: writes are
            // contiguous, reads advance one sequential cursor per row.
            let base = row0 * k;
            for (p, dst) in out.chunks_exact_mut(MR).enumerate() {
                for (ii, d) in dst.iter_mut().enumerate() {
                    *d = a[base + ii * k + p];
                }
            }
        } else {
            for (p, dst) in out.chunks_exact_mut(MR).enumerate() {
                for ii in 0..mr_eff {
                    dst[ii] = a[(row0 + ii) * k + p];
                }
                dst[mr_eff..].iter_mut().for_each(|v| *v = 0.0);
            }
        }
    } else {
        // a is k×m: row p of the buffer holds a(·, p).
        for (p, dst) in out.chunks_exact_mut(MR).enumerate() {
            let src = &a[p * m + row0..p * m + row0 + mr_eff];
            dst[..mr_eff].copy_from_slice(src);
            dst[mr_eff..].iter_mut().for_each(|v| *v = 0.0);
        }
    }
}

/// Computes one contiguous band of `nstrips_band` row strips starting at
/// global strip `strip0`, writing into `band` (the matching rows of C).
#[allow(clippy::too_many_arguments)]
fn process_band(
    strip0: usize,
    nstrips_band: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_trans: bool,
    bpack: &[f32],
    band: &mut [f32],
) {
    let band_rows = band.len() / n.max(1);
    let npanels = n.div_ceil(NR);
    // Pack the whole band of A up front so the panel loop can be
    // outermost: each k×NR B panel stays cache-hot while it is reused
    // against every strip of the band.
    let mut apack = vec![0.0f32; nstrips_band * MR * k];
    for si in 0..nstrips_band {
        pack_a_strip(
            k,
            m,
            (strip0 + si) * MR,
            a,
            a_trans,
            &mut apack[si * MR * k..(si + 1) * MR * k],
        );
    }

    for u in 0..npanels {
        let bpanel = &bpack[u * k * NR..(u + 1) * k * NR];
        let j0 = u * NR;
        let nr_eff = NR.min(n - j0);
        for si in 0..nstrips_band {
            let ap = &apack[si * MR * k..(si + 1) * MR * k];
            let row0 = si * MR; // row offset within the band
            let mr_eff = MR.min(band_rows - row0);
            if mr_eff == MR && nr_eff == NR {
                // Full tile: store straight into C, skipping the bounce
                // buffer. The tile [row0..row0+MR) × [j0..j0+NR) is fully
                // inside the band, so the raw-pointer stores are in
                // bounds.
                unsafe {
                    microkernel_full(ap, bpanel, band.as_mut_ptr().add(row0 * n + j0), n);
                }
            } else {
                let mut acc = [[0.0f32; NR]; MR];
                microkernel_edge(ap, bpanel, &mut acc);
                for (ii, accrow) in acc.iter().enumerate().take(mr_eff) {
                    let dst =
                        &mut band[(row0 + ii) * n + j0..(row0 + ii) * n + j0 + nr_eff];
                    dst.copy_from_slice(&accrow[..nr_eff]);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Microkernels.
//
// `acc[i][j] = fma(ap(p,i), bp(p,j), ·)` over the full `p = 0..k`
// reduction, serially in `p` order. `ap` is an `MR`-packed strip
// (`k·MR` values), `bp` an `NR`-packed panel (`k·NR` values).
//
// The accumulation step is a *fused* multiply-add (single rounding) in
// every implementation — `_mm512_fmadd_ps` and `f32::mul_add` round
// identically per IEEE 754, and `crate::reference` uses the same op in
// the same order, so all paths stay bitwise-equal.
//
// `microkernel_full` stores a complete MR×NR tile straight into C at row
// stride `ldc`; `microkernel_edge` computes into a bounce buffer so the
// caller can copy out only the valid region of a boundary tile.
// ---------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod kernels {
    use super::{MR, NR};
    use std::arch::x86_64::*;

    /// The register-resident reduction: an 8×32 tile is 16 zmm
    /// accumulators + 2 B-panel vectors + 1 broadcast, within the 32
    /// architectural zmm registers.
    #[inline(always)]
    unsafe fn reduce(ap: &[f32], bp: &[f32]) -> [[__m512; 2]; MR] {
        let k = bp.len() / NR;
        debug_assert_eq!(ap.len(), k * MR);
        let mut c: [[__m512; 2]; MR] = [[_mm512_setzero_ps(); 2]; MR];
        let mut bptr = bp.as_ptr();
        let mut aptr = ap.as_ptr();
        for _ in 0..k {
            let b0 = _mm512_loadu_ps(bptr);
            let b1 = _mm512_loadu_ps(bptr.add(16));
            for (i, ci) in c.iter_mut().enumerate() {
                let ai = _mm512_set1_ps(*aptr.add(i));
                ci[0] = _mm512_fmadd_ps(ai, b0, ci[0]);
                ci[1] = _mm512_fmadd_ps(ai, b1, ci[1]);
            }
            bptr = bptr.add(NR);
            aptr = aptr.add(MR);
        }
        c
    }

    /// # Safety
    /// `out` must be valid for writes of `NR` floats at each of the `MR`
    /// row offsets `i * ldc`.
    #[inline]
    pub unsafe fn microkernel_full(ap: &[f32], bp: &[f32], out: *mut f32, ldc: usize) {
        let c = reduce(ap, bp);
        for (i, ci) in c.iter().enumerate() {
            _mm512_storeu_ps(out.add(i * ldc), ci[0]);
            _mm512_storeu_ps(out.add(i * ldc + 16), ci[1]);
        }
    }

    #[inline]
    pub fn microkernel_edge(ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
        unsafe {
            let c = reduce(ap, bp);
            for (accrow, ci) in acc.iter_mut().zip(&c) {
                _mm512_storeu_ps(accrow.as_mut_ptr(), ci[0]);
                _mm512_storeu_ps(accrow.as_mut_ptr().add(16), ci[1]);
            }
        }
    }
}

/// Portable fallback: same op sequence via [`f32::mul_add`], which LLVM
/// lowers to hardware FMA where available and a correctly-rounded libm
/// call elsewhere — bitwise-identical output either way.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
mod kernels {
    use super::{MR, NR};

    #[inline(always)]
    fn reduce(ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
        for (avals, bvals) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
            let bvals: &[f32; NR] = bvals.try_into().unwrap();
            for (&ai, accrow) in avals.iter().zip(acc.iter_mut()) {
                for (cv, &bv) in accrow.iter_mut().zip(bvals.iter()) {
                    *cv = ai.mul_add(bv, *cv);
                }
            }
        }
    }

    /// # Safety
    /// `out` must be valid for writes of `NR` floats at each of the `MR`
    /// row offsets `i * ldc`.
    #[inline]
    pub unsafe fn microkernel_full(ap: &[f32], bp: &[f32], out: *mut f32, ldc: usize) {
        let mut acc = [[0.0f32; NR]; MR];
        reduce(ap, bp, &mut acc);
        for (i, accrow) in acc.iter().enumerate() {
            unsafe {
                std::ptr::copy_nonoverlapping(accrow.as_ptr(), out.add(i * ldc), NR);
            }
        }
    }

    #[inline]
    pub fn microkernel_edge(ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
        reduce(ap, bp, acc);
    }
}

use kernels::{microkernel_edge, microkernel_full};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn fill(len: usize, salt: u32) -> Vec<f32> {
        // Cheap deterministic pseudo-noise with varied magnitudes.
        (0..len)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                ((h >> 8) as f32 / (1 << 24) as f32 - 0.5) * 4.0
            })
            .collect()
    }

    #[test]
    fn fast_strided_matches_contiguous_bits() {
        // The strided kernel on interleaved head blocks must reproduce the
        // contiguous kernel on packed copies bit-for-bit — that is what
        // lets the unpacked attention path inherit the packed path's
        // invariance proofs.
        let (seq, hd, heads) = (21, 16, 3);
        let dim = heads * hd;
        let q = fill(seq * dim, 1);
        let k = fill(seq * dim, 2);
        let p = fill(seq * seq, 3);
        for h in 0..heads {
            let off = h * hd;
            // Packed copies of head h.
            let qp: Vec<f32> = (0..seq).flat_map(|t| q[t * dim + off..t * dim + off + hd].to_vec()).collect();
            let kp: Vec<f32> = (0..seq).flat_map(|t| k[t * dim + off..t * dim + off + hd].to_vec()).collect();
            // Q·Kᵀ, strided A and B vs contiguous.
            let mut want = vec![0.0f32; seq * seq];
            gemm_fast(seq, hd, seq, &qp, &kp, true, &mut want);
            let mut got = vec![0.0f32; seq * seq];
            gemm_fast_strided(seq, hd, seq, &q[off..], dim, &k[off..], dim, true, &mut got, seq);
            assert_eq!(
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "QKᵀ head {h} diverged"
            );
            // P·V with a strided C, vs contiguous then scatter.
            let mut ctx = vec![0.0f32; seq * hd];
            gemm_fast(seq, seq, hd, &p, &kp, false, &mut ctx);
            let mut out = vec![0.0f32; seq * dim];
            gemm_fast_strided(seq, seq, hd, &p, seq, &k[off..], dim, false, &mut out[off..], dim);
            for t in 0..seq {
                for c in 0..hd {
                    assert_eq!(
                        ctx[t * hd + c].to_bits(),
                        out[t * dim + off + c].to_bits(),
                        "P·V head {h} row {t} col {c} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_matches_hand_computed() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0f32; 4];
        gemm_blocked(2, 2, 2, &a, false, &b, false, &mut c);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn blocked_matches_reference_bitwise_on_awkward_shapes() {
        // Shapes straddling the MR/NR tile edges in every direction.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 16, 16),
            (5, 17, 33),
            (13, 1, 31),
            (17, 64, 15),
        ] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut fast = vec![0.0f32; m * n];
            let mut slow = vec![0.0f32; m * n];
            gemm_blocked(m, k, n, &a, false, &b, false, &mut fast);
            reference::matmul(m, k, n, &a, &b, &mut slow);
            assert!(
                fast.iter().zip(&slow).all(|(x, y)| x.to_bits() == y.to_bits()),
                "mismatch at ({m},{k},{n})"
            );
        }
    }

    #[test]
    fn transposed_layouts_match_their_references() {
        let (m, k, n) = (9, 21, 19);
        let at = fill(k * m, 3); // k×m, to be read transposed
        let b = fill(k * n, 4);
        let bt = fill(n * k, 5); // n×k, to be read transposed
        let a = fill(m * k, 6);

        let mut fast = vec![0.0f32; m * n];
        let mut slow = vec![0.0f32; m * n];
        gemm_blocked(m, k, n, &at, true, &b, false, &mut fast);
        reference::t_matmul(k, m, n, &at, &b, &mut slow);
        assert_eq!(fast, slow, "Aᵀ·B");

        fast.iter_mut().for_each(|v| *v = 0.0);
        slow.iter_mut().for_each(|v| *v = 0.0);
        gemm_blocked(m, k, n, &a, false, &bt, true, &mut fast);
        reference::matmul_t(m, k, n, &a, &bt, &mut slow);
        assert_eq!(fast, slow, "A·Bᵀ");
    }

    #[test]
    fn doubly_transposed_layout_is_the_transpose_of_the_product() {
        // (Aᵀ·Bᵀ)ᵀ = B·A: check against the plain kernel.
        let (m, k, n) = (6, 10, 8);
        let a = fill(k * m, 7); // k×m
        let b = fill(n * k, 8); // n×k
        let mut tt = vec![0.0f32; m * n];
        gemm_blocked(m, k, n, &a, true, &b, true, &mut tt);
        let mut ba = vec![0.0f32; n * m];
        reference::matmul(n, k, m, &b, &a, &mut ba);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(tt[i * n + j].to_bits(), ba[j * m + i].to_bits());
            }
        }
    }

    #[test]
    fn degenerate_dims_yield_zero_sized_or_zero_filled_output() {
        let mut c = vec![0.0f32; 0];
        gemm_blocked(0, 4, 5, &fill(0, 9), false, &fill(20, 9), false, &mut c);
        gemm_blocked(3, 4, 0, &fill(12, 9), false, &fill(0, 9), false, &mut c);
        let mut c = vec![1.0f32; 6]; // pre-poisoned: k = 0 must zero it
        gemm_blocked(2, 0, 3, &[], false, &[], false, &mut c);
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dispatching_entry_point_matches_blocked_across_the_size_threshold() {
        for &(m, k, n) in &[(4, 4, 4), (48, 48, 48)] {
            let a = fill(m * k, 10);
            let b = fill(k * n, 11);
            let mut via_dispatch = vec![0.0f32; m * n];
            let mut via_blocked = vec![0.0f32; m * n];
            gemm(m, k, n, &a, false, &b, false, &mut via_dispatch);
            gemm_blocked(m, k, n, &a, false, &b, false, &mut via_blocked);
            assert_eq!(via_dispatch, via_blocked);
        }
    }

    // Thread-count parity is covered in `tests/gemm_equivalence.rs`,
    // which owns the process-global thread-cap override; mutating it
    // here would race with the threadpool unit tests.
}
