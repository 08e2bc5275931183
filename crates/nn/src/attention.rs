//! Fused, arena-backed, thread-parallel multi-head self-attention.
//!
//! Batches are laid out as `(batch · seq, dim)` row-major tensors with a
//! fixed sequence length per batch; a per-token boolean mask marks real
//! tokens (`true`) vs. padding (`false`). Padding positions are excluded as
//! attention *keys*; padded *query* rows still compute a distribution over
//! the valid keys (their outputs are discarded by masked pooling upstream).
//!
//! # Kernel design
//!
//! The seed implementation materialized three fresh `seq × head_dim`
//! tensors per (batch, head) via `slice_head`, issued tiny per-head
//! matmuls, and ran the whole (batch × head) loop on one thread. This
//! version instead:
//!
//! * **packs** Q/K/V into a head-major contiguous layout in one pass —
//!   block `(b, h)` is a contiguous `seq × head_dim` matrix, so every
//!   per-head product runs on unit-stride slices with zero copies;
//! * **reuses** all scratch (packed operands, the score buffer, the
//!   head-major context, backward gradients) from a per-layer arena
//!   ([`AttnScratch`] plus the recycled [`FwdCache`]) instead of
//!   allocating per call;
//! * **fuses** the `1/√d` scale into the masked-softmax pass over the
//!   contiguous score buffer ([`masked_softmax_row_scaled`]);
//! * **fans out** the (batch × head) loop over workers reserved from the
//!   shared [`crate::threadpool`] budget, in `forward`,
//!   `forward_inference`, and `backward`. Items write disjoint slices and
//!   every per-element reduction stays serial, so results are bitwise
//!   identical at any worker count.
//!
//! The single-threaded oracle lives in [`crate::reference::attention`];
//! `tests/attention_equivalence.rs` asserts equivalence (and 1/2/8-thread
//! parity) against it.

use crate::gemm;
use crate::layers::Linear;
use crate::param::Param;
use crate::tensor::Tensor;
use crate::threadpool;
use rand::rngs::StdRng;
use std::sync::Mutex;

/// Below this `batch · heads · seq² · head_dim` volume the (batch × head)
/// fan-out is not worth a reservation (thread spawn dominates).
const PARALLEL_MIN_VOLUME: usize = 1 << 21;

/// Volume above which one `attn.fused` / `attn.backward` span is emitted
/// per call; smaller calls are visible only through the `attn.*` counters.
const SPAN_MIN_VOLUME: usize = 1 << 21;

/// Metric handles resolved once; attention runs once per block per step,
/// so the registry lock must never sit on this path.
struct AttnMetrics {
    calls: std::sync::Arc<em_obs::metrics::Counter>,
    flops: std::sync::Arc<em_obs::metrics::Counter>,
}

fn attn_metrics() -> &'static AttnMetrics {
    static METRICS: std::sync::OnceLock<AttnMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| AttnMetrics {
        calls: em_obs::metrics::counter("attn.calls"),
        flops: em_obs::metrics::counter("attn.flops"),
    })
}

/// Multi-head self-attention layer.
#[derive(Debug)]
pub struct MultiHeadAttention {
    /// Query projection.
    pub wq: Linear,
    /// Key projection.
    pub wk: Linear,
    /// Value projection.
    pub wv: Linear,
    /// Output projection.
    pub wo: Linear,
    heads: usize,
    dim: usize,
    /// In [`crate::qgemm::InferencePrecision::Int8`] mode the inference
    /// forward runs the masked softmax with a vectorized `e^x` (~1e-6
    /// relative error, far below the int8 quantization noise that mode
    /// already accepts — same contract as the fast GELU in
    /// [`crate::layers::Gelu`]). Training and `Full`-precision inference
    /// always use the exact scalar `exp`, so the fused-vs-reference
    /// bitwise oracle is untouched.
    fast: bool,
    cache: Option<FwdCache>,
    /// Consumed cache recycled by the next training forward, so the packed
    /// Q/K/V and probability buffers are allocated once per layer.
    spare: Option<FwdCache>,
    /// Inference / backward scratch arena. `forward`/`backward` access it
    /// through `get_mut` (no locking); `forward_inference` (`&self`, and
    /// possibly concurrent across evaluation workers) takes it via
    /// `try_lock` and falls back to a fresh local arena under contention.
    scratch: Mutex<AttnScratch>,
}

impl Clone for MultiHeadAttention {
    fn clone(&self) -> Self {
        MultiHeadAttention {
            wq: self.wq.clone(),
            wk: self.wk.clone(),
            wv: self.wv.clone(),
            wo: self.wo.clone(),
            heads: self.heads,
            dim: self.dim,
            fast: self.fast,
            cache: self.cache.clone(),
            spare: None,
            scratch: Mutex::new(AttnScratch::default()),
        }
    }
}

/// Training-forward cache: head-major packed Q/K/V and the softmax
/// probabilities, one `seq × seq` block per (batch, head).
#[derive(Debug, Clone, Default)]
struct FwdCache {
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    probs: Vec<f32>,
    batch: usize,
    seq: usize,
}

/// Reusable scratch buffers. During inference they hold packed Q/K/V,
/// scores, and the head-major context; during backward the same buffers
/// hold packed dQ/dK/dV (`q`/`k`/`v`), the packed upstream gradient
/// (`ctx`), and per-worker dA/dS workspace (`scores`).
#[derive(Debug, Default)]
struct AttnScratch {
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    scores: Vec<f32>,
    ctx: Vec<f32>,
}

/// Grows `buf` to exactly `len` elements. Newly grown tail is zeroed; the
/// callers overwrite every element they read, so stale prefixes are fine.
fn ensure_len(buf: &mut Vec<f32>, len: usize) {
    buf.resize(len, 0.0);
}

/// Packs interleaved `(batch·seq, heads·hd)` rows into head-major layout:
/// block `(b, h)` is the contiguous `seq × hd` matrix at offset
/// `((b·heads + h)·seq)·hd`.
fn pack_heads(x: &[f32], batch: usize, seq: usize, heads: usize, hd: usize, out: &mut [f32]) {
    let dim = heads * hd;
    debug_assert_eq!(x.len(), batch * seq * dim);
    debug_assert_eq!(out.len(), x.len());
    for b in 0..batch {
        for t in 0..seq {
            let src = &x[(b * seq + t) * dim..(b * seq + t + 1) * dim];
            for h in 0..heads {
                let dst = ((b * heads + h) * seq + t) * hd;
                out[dst..dst + hd].copy_from_slice(&src[h * hd..(h + 1) * hd]);
            }
        }
    }
}

/// Inverse of [`pack_heads`]: scatters head-major blocks back into the
/// interleaved `(batch·seq, dim)` layout. A plain copy — packing is a
/// permutation, so no accumulation is needed.
fn unpack_heads(packed: &[f32], batch: usize, seq: usize, heads: usize, hd: usize, out: &mut [f32]) {
    let dim = heads * hd;
    debug_assert_eq!(packed.len(), batch * seq * dim);
    debug_assert_eq!(out.len(), packed.len());
    for b in 0..batch {
        for t in 0..seq {
            let dst = &mut out[(b * seq + t) * dim..(b * seq + t + 1) * dim];
            for h in 0..heads {
                let src = ((b * heads + h) * seq + t) * hd;
                dst[h * hd..(h + 1) * hd].copy_from_slice(&packed[src..src + hd]);
            }
        }
    }
}

/// Softmax over `row` restricted to positions where `mask` is `true`;
/// masked positions get probability 0. A fully masked row stays all-zero.
/// (Production paths use the fused scaled variant below; this thin wrapper
/// keeps the semantics unit-testable in isolation.)
#[cfg(test)]
fn masked_softmax_row(row: &mut [f32], mask: &[bool]) {
    masked_softmax_row_scaled(row, mask, 1.0);
}

/// Fused `row *= scale` + masked softmax: the scale multiply and the
/// running max are computed in one traversal of the contiguous score row,
/// bitwise identical to a separate scale pass followed by
/// [`masked_softmax_row`].
fn masked_softmax_row_scaled(row: &mut [f32], mask: &[bool], scale: f32) {
    let mut m = f32::NEG_INFINITY;
    for (v, &keep) in row.iter_mut().zip(mask) {
        *v *= scale;
        if keep && *v > m {
            m = *v;
        }
    }
    if !m.is_finite() {
        row.iter_mut().for_each(|v| *v = 0.0);
        return;
    }
    let mut sum = 0.0;
    for (v, &keep) in row.iter_mut().zip(mask) {
        if keep {
            *v = (*v - m).exp();
            sum += *v;
        } else {
            *v = 0.0;
        }
    }
    if sum > 0.0 {
        row.iter_mut().for_each(|v| *v /= sum);
    }
}

/// Scalar form of the fast masked softmax: [`masked_softmax_row_scaled`]
/// with the exp argument clamped to ±30.5 (matching the vectorized kernel's
/// range, so the AVX-512 and portable builds share semantics). Serves as
/// the portable fallback and the over-long-row escape hatch of
/// [`fast_softmax::item`].
fn masked_softmax_row_fast_scalar(row: &mut [f32], mask: &[bool], scale: f32) {
    let mut m = f32::NEG_INFINITY;
    for (v, &keep) in row.iter_mut().zip(mask) {
        *v *= scale;
        if keep && *v > m {
            m = *v;
        }
    }
    if !m.is_finite() {
        row.iter_mut().for_each(|v| *v = 0.0);
        return;
    }
    let mut sum = 0.0;
    for (v, &keep) in row.iter_mut().zip(mask) {
        if keep {
            *v = (*v - m).clamp(-30.5, 30.5).exp();
            sum += *v;
        } else {
            *v = 0.0;
        }
    }
    if sum > 0.0 {
        row.iter_mut().for_each(|v| *v /= sum);
    }
}

/// Vectorized masked softmax for the reduced-precision inference mode:
/// every pass (scale, masked max, `e^clamp(v−m, ±30.5)`, masked sum,
/// normalize) runs 16 lanes wide, with the token mask precompiled to one
/// lane bitmask per 16-key group so the hot row loop never touches the
/// `&[bool]` form. The exp uses the same Cody–Waite + degree-5 polynomial
/// as the fast GELU in `layers::fast_gelu` (duplicated rather than shared
/// so retuning one kernel can never silently shift the other's pinned
/// drift bits); ~1e-6 relative error, far below the int8 drift budget.
///
/// Determinism contract: a key's lane position (`key_index % 16`), the
/// group partials' accumulation order, and every per-lane operation depend
/// only on the row contents and the mask — masked and past-the-end lanes
/// contribute `-inf` to the max and `+0.0` to the tree sums, which are
/// identities. A pair therefore scores the same bits alone, in any length
/// bucket, and at any batch composition — the invariant the serving
/// fast-path tests pin.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod fast_softmax {
    use std::arch::x86_64::*;

    const ROUND_NEAREST: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

    /// Widest supported mask: 64 groups × 16 keys. Longer sequences fall
    /// back to the scalar row loop (no model in the repo comes close).
    const MAX_GROUPS: usize = 64;

    /// `e^v` for `v ∈ [-30.5, 30.5]`; relative error ~2e-6.
    #[inline]
    unsafe fn exp_approx(v: __m512) -> __m512 {
        let n = _mm512_roundscale_ps::<ROUND_NEAREST>(_mm512_mul_ps(
            v,
            _mm512_set1_ps(std::f32::consts::LOG2_E),
        ));
        // r = v − n·ln2, split high/low so r keeps full precision.
        let r = _mm512_fnmadd_ps(n, _mm512_set1_ps(0.693_359_375), v);
        let r = _mm512_fnmadd_ps(n, _mm512_set1_ps(-2.121_944_4e-4), r);
        // Degree-5 Taylor on |r| ≤ ln2/2.
        let mut p = _mm512_set1_ps(1.0 / 120.0);
        p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.0 / 24.0));
        p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.0 / 6.0));
        p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(0.5));
        p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.0));
        p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.0));
        // Scale by 2^n through the exponent field; |n| ≤ 44 keeps the
        // biased exponent inside the finite range.
        let scale = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_add_epi32(
            _mm512_cvtps_epi32(n),
            _mm512_set1_epi32(127),
        )));
        _mm512_mul_ps(p, scale)
    }

    #[inline]
    unsafe fn exp_sub16(x: __m512, m: __m512, cap: __m512) -> __m512 {
        let v = _mm512_sub_ps(x, m);
        let v = _mm512_max_ps(_mm512_min_ps(v, cap), _mm512_sub_ps(_mm512_setzero_ps(), cap));
        exp_approx(v)
    }

    /// [`row`] for `R` consecutive `len`-wide rows, each held in `G` zmm
    /// registers across all three passes (one load + one store instead of
    /// three of each). The rows are interleaved pass by pass so their
    /// horizontal reductions and divides overlap instead of queueing
    /// behind one another. Every row runs the same arithmetic operations,
    /// on the same values and in the same accumulation order as [`row`]
    /// does on its own, so the two are bitwise interchangeable; rows wider
    /// than 4 groups (seq > 64) stay on the streaming variant. A block
    /// holding a row with a non-finite max goes back to the `R = 1` path,
    /// which zeroes exactly that row.
    ///
    /// # Safety
    ///
    /// `rows.len() == R·len` and `16·(G−1) < len ≤ 16·G`: the lane-masked
    /// loads and stores then stay inside each row.
    unsafe fn rows_reg<const R: usize, const G: usize>(rows: &mut [f32], len: usize, lanes: &[u16], scale: f32) {
        debug_assert_eq!(rows.len(), R * len);
        let sv = _mm512_set1_ps(scale);
        let full = move |g: usize| -> u16 {
            if (g + 1) * 16 <= len { 0xffff } else { (1u16 << (len - g * 16)) - 1 }
        };
        let base = rows.as_mut_ptr();
        let mut x = [[_mm512_setzero_ps(); G]; R];
        let mut m = [0.0f32; R];
        for (r, xr) in x.iter_mut().enumerate() {
            let mut maxv = _mm512_set1_ps(f32::NEG_INFINITY);
            for (g, xg) in xr.iter_mut().enumerate() {
                *xg = _mm512_mul_ps(_mm512_maskz_loadu_ps(full(g), base.add(r * len + g * 16)), sv);
                maxv = _mm512_mask_max_ps(maxv, lanes[g], maxv, *xg);
            }
            m[r] = _mm512_reduce_max_ps(maxv);
        }
        if m.iter().any(|v| !v.is_finite()) {
            if R == 1 {
                rows.iter_mut().for_each(|v| *v = 0.0);
            } else {
                for row in rows.chunks_exact_mut(len) {
                    rows_reg::<1, G>(row, len, lanes, scale);
                }
            }
            return;
        }
        let cap = _mm512_set1_ps(30.5);
        let mut sum = [0.0f32; R];
        for g in 0..G {
            for (xr, (&mr, sr)) in x.iter_mut().zip(m.iter().zip(sum.iter_mut())) {
                let e = _mm512_maskz_mov_ps(lanes[g], exp_sub16(xr[g], _mm512_set1_ps(mr), cap));
                xr[g] = e;
                *sr += _mm512_reduce_add_ps(e);
            }
        }
        for (r, (xr, &sr)) in x.iter().zip(&sum).enumerate() {
            let row = base.add(r * len);
            for (g, &xg) in xr.iter().enumerate() {
                // A non-positive sum leaves the exponentials unnormalized.
                let v = if sr <= 0.0 { xg } else { _mm512_div_ps(xg, _mm512_set1_ps(sr)) };
                _mm512_mask_storeu_ps(row.add(g * 16), full(g), v);
            }
        }
    }

    /// One softmax row: `row` is the `seq`-wide score row, `lanes` the
    /// per-group keep bitmasks (past-the-end bits already cleared).
    unsafe fn row(row: &mut [f32], lanes: &[u16], scale: f32) {
        let sv = _mm512_set1_ps(scale);
        // Pass 1: scale in place; running per-lane max over keep lanes.
        let mut maxv = _mm512_set1_ps(f32::NEG_INFINITY);
        let mut i = 0usize;
        for &keep in lanes {
            // Masked load: past-the-end lanes read 0.0 and their keep
            // bits are clear, so they never reach the max.
            let x = _mm512_mul_ps(_mm512_maskz_loadu_ps(keep, row.as_ptr().add(i)), sv);
            maxv = _mm512_mask_max_ps(maxv, keep, maxv, x);
            i += 16;
        }
        let m = _mm512_reduce_max_ps(maxv);
        if !m.is_finite() {
            row.iter_mut().for_each(|v| *v = 0.0);
            return;
        }
        // Pass 2: exp(clamp(scale·v − m)) on keep lanes, 0 elsewhere;
        // group partial sums accumulate in group order.
        let mv = _mm512_set1_ps(m);
        let cap = _mm512_set1_ps(30.5);
        let mut sum = 0.0f32;
        let mut i = 0usize;
        for (g, &keep) in lanes.iter().enumerate() {
            let full = if (g + 1) * 16 <= row.len() { 0xffff } else { (1u16 << (row.len() - g * 16)) - 1 };
            let x = _mm512_mul_ps(_mm512_maskz_loadu_ps(full, row.as_ptr().add(i)), sv);
            let e = _mm512_maskz_mov_ps(keep, exp_sub16(x, mv, cap));
            _mm512_mask_storeu_ps(row.as_mut_ptr().add(i), full, e);
            sum += _mm512_reduce_add_ps(e);
            i += 16;
        }
        if sum <= 0.0 {
            return;
        }
        // Pass 3: normalize (IEEE-exact per-lane divide).
        let dv = _mm512_set1_ps(sum);
        let mut i = 0usize;
        for (g, _) in lanes.iter().enumerate() {
            let full = if (g + 1) * 16 <= row.len() { 0xffff } else { (1u16 << (row.len() - g * 16)) - 1 };
            let x = _mm512_maskz_loadu_ps(full, row.as_ptr().add(i));
            _mm512_mask_storeu_ps(row.as_mut_ptr().add(i), full, _mm512_div_ps(x, dv));
            i += 16;
        }
    }

    /// Scale + masked softmax over all `seq` rows of one attention item's
    /// `seq × seq` score block. The mask compiles to lane bitmasks once
    /// per item and is reused by every row.
    pub fn item(scores: &mut [f32], seq: usize, mask: &[bool], scale: f32) {
        tiled::<4>(scores, seq, mask, scale);
    }

    /// [`item`] with register-resident rows taken `R` at a time; `R = 1`
    /// is the row-at-a-time oracle of the row-partition test.
    fn tiled<const R: usize>(scores: &mut [f32], seq: usize, mask: &[bool], scale: f32) {
        debug_assert_eq!(scores.len(), seq * seq);
        debug_assert_eq!(mask.len(), seq);
        let ng = seq.div_ceil(16);
        if ng > MAX_GROUPS {
            for t in 0..seq {
                super::masked_softmax_row_fast_scalar(&mut scores[t * seq..(t + 1) * seq], mask, scale);
            }
            return;
        }
        let mut lanes = [0u16; MAX_GROUPS];
        for (g, chunk) in mask.chunks(16).enumerate() {
            let mut bits = 0u16;
            for (i, &keep) in chunk.iter().enumerate() {
                bits |= (keep as u16) << i;
            }
            lanes[g] = bits;
        }
        // SAFETY: `ng = ⌈seq/16⌉` selects `G`, and the block is seq × seq.
        unsafe {
            match ng {
                1 => blocks::<R, 1>(scores, seq, &lanes[..1], scale),
                2 => blocks::<R, 2>(scores, seq, &lanes[..2], scale),
                3 => blocks::<R, 3>(scores, seq, &lanes[..3], scale),
                4 => blocks::<R, 4>(scores, seq, &lanes[..4], scale),
                _ => {
                    for t in 0..seq {
                        row(&mut scores[t * seq..(t + 1) * seq], &lanes[..ng], scale);
                    }
                }
            }
        }
    }

    /// Rows in blocks of `R`, then the remainder one at a time.
    ///
    /// # Safety
    ///
    /// `scores.len() == seq·seq` with `16·(G−1) < seq ≤ 16·G`.
    unsafe fn blocks<const R: usize, const G: usize>(scores: &mut [f32], seq: usize, lanes: &[u16], scale: f32) {
        let mut tiles = scores.chunks_exact_mut(R * seq);
        for tile in &mut tiles {
            rows_reg::<R, G>(tile, seq, lanes, scale);
        }
        for r in tiles.into_remainder().chunks_exact_mut(seq) {
            rows_reg::<1, G>(r, seq, lanes, scale);
        }
    }

    #[cfg(test)]
    mod tests {
        /// Row-partition invariance of the 4-row softmax tiles: every row
        /// comes out with the bits the row-at-a-time path gives it, for every
        /// width the tiles cover and past it, including fully masked items and
        /// rows whose max is non-finite inside an otherwise finite tile.
        #[test]
        fn fast_softmax_item_is_row_partition_invariant() {
            for seq in 1..=80usize {
                let masks: [Vec<bool>; 4] = [
                    vec![true; seq],
                    (0..seq).map(|t| t < (seq * 2).div_ceil(3)).collect(),
                    (0..seq).map(|t| t % 3 != 1).collect(),
                    vec![false; seq],
                ];
                for mask in &masks {
                    let mut block: Vec<f32> = (0..seq * seq)
                        .map(|i| ((i as u32).wrapping_mul(2654435761) >> 8) as f32 / (1 << 22) as f32 - 2.0)
                        .collect();
                    for (t, row) in block.chunks_mut(seq).enumerate() {
                        match t % 7 {
                            2 => row.fill(f32::NEG_INFINITY),
                            5 => row[0] = f32::INFINITY,
                            _ => {}
                        }
                    }
                    let mut tiled = block.clone();
                    super::item(&mut tiled, seq, mask, 0.25);
                    super::tiled::<1>(&mut block, seq, mask, 0.25);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&tiled), bits(&block), "seq {seq}");
                }
            }
        }
    }
}

/// Portable fallback: same clamped-exp semantics via libm — no speedup,
/// and (like the AVX-512 path) only reachable in Int8 inference mode.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
mod fast_softmax {
    pub fn item(scores: &mut [f32], seq: usize, mask: &[bool], scale: f32) {
        for t in 0..seq {
            super::masked_softmax_row_fast_scalar(&mut scores[t * seq..(t + 1) * seq], mask, scale);
        }
    }
}

/// Splits `items` (batch × head blocks) into contiguous per-worker bands
/// and runs `run_band(first_item, items_in_band, band_slices...)` on each,
/// where each band receives disjoint `&mut` sub-slices of every buffer in
/// `bufs` (sliced at `per_item[i] * item` element granularity). The last
/// band runs on the calling thread.
fn fan_out_items<F>(items: usize, nworkers: usize, bufs: Vec<&mut [f32]>, per_item: &[usize], run_band: F)
where
    F: Fn(usize, usize, Vec<&mut [f32]>) + Sync,
{
    debug_assert_eq!(bufs.len(), per_item.len());
    let base = items / nworkers;
    let rem = items % nworkers;
    std::thread::scope(|scope| {
        let run_band = &run_band;
        let mut rest = bufs;
        let mut item0 = 0usize;
        for w in 0..nworkers {
            let items_here = base + usize::from(w < rem);
            let mut band = Vec::with_capacity(rest.len());
            let mut tails = Vec::with_capacity(rest.len());
            for (buf, &stride) in rest.into_iter().zip(per_item) {
                let (head, tail) = buf.split_at_mut(items_here * stride);
                band.push(head);
                tails.push(tail);
            }
            rest = tails;
            let first = item0;
            if w + 1 == nworkers {
                run_band(first, items_here, band);
            } else {
                scope.spawn(move || run_band(first, items_here, band));
            }
            item0 += items_here;
        }
    });
}

/// Scaled masked attention over head-major packed Q/K/V: fills `scores`
/// with the softmax probabilities (one `seq × seq` block per item) and
/// `ctx` with the head-major context (`P·V`, one `seq × hd` block per
/// item). Fan-out over (batch × head) items draws from the shared
/// threadpool budget; items write disjoint slices and each per-element
/// reduction is serial, so output is bitwise identical at any worker
/// count. `fast` selects the vectorized-exp softmax (Int8 inference only;
/// see [`fast_softmax::item`]).
#[allow(clippy::too_many_arguments)]
fn attend_packed(
    batch: usize,
    seq: usize,
    heads: usize,
    hd: usize,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    mask: &[bool],
    scores: &mut [f32],
    ctx: &mut [f32],
    fast: bool,
) {
    let items = batch * heads;
    let scale = 1.0 / (hd as f32).sqrt();
    let volume = items * seq * seq * hd;
    if em_obs::capture_enabled() {
        let m = attn_metrics();
        m.calls.inc();
        // Two GEMMs (QKᵀ and P·V), one multiply + one add each.
        m.flops.add(4 * volume as u64);
    }
    let _span = if volume >= SPAN_MIN_VOLUME {
        em_obs::span!("attn.fused", batch = batch, heads = heads, seq = seq)
    } else {
        em_obs::trace::SpanGuard::disabled()
    };

    let run_item = |idx: usize, sc: &mut [f32], cx: &mut [f32]| {
        let off = idx * seq * hd;
        let qb = &q[off..off + seq * hd];
        let kb = &k[off..off + seq * hd];
        let vb = &v[off..off + seq * hd];
        let bmask = &mask[(idx / heads) * seq..(idx / heads + 1) * seq];
        // Scores = Q·Kᵀ straight into the arena block, then scale + masked
        // softmax fused over the contiguous rows, then context = P·V. The
        // fast (Int8 inference) variant swaps in the FMA-contracted GEMM
        // and the vectorized softmax; the exact path is the bitwise
        // contract the fused-vs-reference oracle pins.
        if fast {
            gemm::gemm_fast(seq, hd, seq, qb, kb, true, sc);
            fast_softmax::item(sc, seq, bmask, scale);
            gemm::gemm_fast(seq, seq, hd, sc, vb, false, cx);
        } else {
            gemm::gemm(seq, hd, seq, qb, false, kb, true, sc);
            for t in 0..seq {
                masked_softmax_row_scaled(&mut sc[t * seq..(t + 1) * seq], bmask, scale);
            }
            gemm::gemm(seq, seq, hd, sc, false, vb, false, cx);
        }
    };

    let reservation = if volume >= PARALLEL_MIN_VOLUME && items > 1 {
        threadpool::reserve_workers(items - 1)
    } else {
        threadpool::reserve_workers(0)
    };
    let nworkers = reservation.total().min(items).max(1);
    if nworkers <= 1 {
        for idx in 0..items {
            let (sc, cx) = (
                &mut scores[idx * seq * seq..(idx + 1) * seq * seq],
                &mut ctx[idx * seq * hd..(idx + 1) * seq * hd],
            );
            run_item(idx, sc, cx);
        }
        return;
    }
    fan_out_items(
        items,
        nworkers,
        vec![scores, ctx],
        &[seq * seq, seq * hd],
        |first, count, mut band| {
            let (sc_band, cx_band) = {
                let cx = band.pop().unwrap();
                let sc = band.pop().unwrap();
                (sc, cx)
            };
            for i in 0..count {
                run_item(
                    first + i,
                    &mut sc_band[i * seq * seq..(i + 1) * seq * seq],
                    &mut cx_band[i * seq * hd..(i + 1) * seq * hd],
                );
            }
        },
    );
}

/// Backward through the attention core for one (batch, head) item.
/// `p` holds the cached softmax probabilities, `dob` the packed upstream
/// gradient; writes dQ/dK/dV blocks and uses `da`/`ds` as workspace.
#[allow(clippy::too_many_arguments)]
fn backward_item(
    seq: usize,
    hd: usize,
    scale: f32,
    qb: &[f32],
    kb: &[f32],
    vb: &[f32],
    p: &[f32],
    dob: &[f32],
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
    da: &mut [f32],
    ds: &mut [f32],
) {
    // dA = dO·Vᵀ ; dV = Pᵀ·dO
    gemm::gemm(seq, hd, seq, dob, false, vb, true, da);
    gemm::gemm(seq, seq, hd, p, true, dob, false, dv);
    // Softmax backward per row: dS = P ⊙ (dA - rowsum(dA ⊙ P)), then the
    // deferred 1/√d scale.
    for t in 0..seq {
        let prow = &p[t * seq..(t + 1) * seq];
        let darow = &da[t * seq..(t + 1) * seq];
        let inner: f32 = prow.iter().zip(darow).map(|(x, y)| x * y).sum();
        let dsrow = &mut ds[t * seq..(t + 1) * seq];
        for j in 0..seq {
            dsrow[j] = prow[j] * (darow[j] - inner);
        }
    }
    ds.iter_mut().for_each(|x| *x *= scale);
    // dQ = dS·K ; dK = dSᵀ·Q
    gemm::gemm(seq, seq, hd, ds, false, kb, false, dq);
    gemm::gemm(seq, seq, hd, ds, true, qb, false, dk);
}

/// Standalone fused attention core on interleaved `(batch·seq, dim)`
/// Q/K/V (post-projection): packs, attends, unpacks, and returns the
/// concatenated head outputs (pre output-projection). This is the
/// equivalence/bench entry point mirroring
/// [`crate::reference::attention`]; the layer paths below reuse arenas
/// instead of allocating.
pub fn fused_attention(q: &Tensor, k: &Tensor, v: &Tensor, seq: usize, heads: usize, mask: &[bool]) -> Tensor {
    assert_eq!(q.rows() % seq, 0, "rows must be a multiple of seq");
    assert!(q.cols().is_multiple_of(heads), "dim must be divisible by heads");
    assert_eq!(mask.len(), q.rows(), "mask must cover every token");
    let batch = q.rows() / seq;
    let dim = q.cols();
    let hd = dim / heads;
    let mut qp = vec![0.0f32; batch * seq * dim];
    let mut kp = vec![0.0f32; batch * seq * dim];
    let mut vp = vec![0.0f32; batch * seq * dim];
    pack_heads(q.data(), batch, seq, heads, hd, &mut qp);
    pack_heads(k.data(), batch, seq, heads, hd, &mut kp);
    pack_heads(v.data(), batch, seq, heads, hd, &mut vp);
    let mut scores = vec![0.0f32; batch * heads * seq * seq];
    let mut ctx = vec![0.0f32; batch * seq * dim];
    attend_packed(batch, seq, heads, hd, &qp, &kp, &vp, mask, &mut scores, &mut ctx, false);
    let mut out = Tensor::zeros(batch * seq, dim);
    unpack_heads(&ctx, batch, seq, heads, hd, out.data_mut());
    out
}

impl MultiHeadAttention {
    /// New attention layer over `dim`-dimensional tokens with `heads` heads.
    ///
    /// # Panics
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(dim: usize, heads: usize, rng: &mut StdRng) -> Self {
        assert!(dim.is_multiple_of(heads), "dim must be divisible by heads");
        MultiHeadAttention {
            wq: Linear::new(dim, dim, rng),
            wk: Linear::new(dim, dim, rng),
            wv: Linear::new(dim, dim, rng),
            wo: Linear::new(dim, dim, rng),
            heads,
            dim,
            fast: false,
            cache: None,
            spare: None,
            scratch: Mutex::new(AttnScratch::default()),
        }
    }

    /// Forward pass. `x` is `(batch·seq, dim)`, `mask` has one entry per
    /// token row. Caches intermediates for [`Self::backward`]; the cache
    /// buffers are recycled from the previous step's consumed cache.
    pub fn forward(&mut self, x: &Tensor, seq: usize, mask: &[bool]) -> Tensor {
        assert_eq!(x.rows() % seq, 0, "rows must be a multiple of seq");
        assert_eq!(mask.len(), x.rows(), "mask must cover every token");
        let q = self.wq.forward(x);
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        let batch = x.rows() / seq;
        let hd = self.dim / self.heads;
        let n = batch * seq * self.dim;

        let mut cache = self.spare.take().unwrap_or_default();
        ensure_len(&mut cache.q, n);
        ensure_len(&mut cache.k, n);
        ensure_len(&mut cache.v, n);
        ensure_len(&mut cache.probs, batch * self.heads * seq * seq);
        pack_heads(q.data(), batch, seq, self.heads, hd, &mut cache.q);
        pack_heads(k.data(), batch, seq, self.heads, hd, &mut cache.k);
        pack_heads(v.data(), batch, seq, self.heads, hd, &mut cache.v);

        let scratch = self.scratch.get_mut().expect("attention scratch poisoned");
        ensure_len(&mut scratch.ctx, n);
        attend_packed(
            batch,
            seq,
            self.heads,
            hd,
            &cache.q,
            &cache.k,
            &cache.v,
            mask,
            &mut cache.probs,
            &mut scratch.ctx,
            false,
        );
        let mut concat = Tensor::zeros(x.rows(), self.dim);
        unpack_heads(&scratch.ctx, batch, seq, self.heads, hd, concat.data_mut());
        let out = self.wo.forward(&concat);
        cache.batch = batch;
        cache.seq = seq;
        self.cache = Some(cache);
        out
    }

    /// Inference-only forward (no caching). Scratch comes from the layer
    /// arena when uncontended; concurrent callers (parallel evaluation
    /// workers sharing one model) fall back to a local arena.
    pub fn forward_inference(&self, x: &Tensor, seq: usize, mask: &[bool]) -> Tensor {
        assert_eq!(x.rows() % seq, 0, "rows must be a multiple of seq");
        assert_eq!(mask.len(), x.rows(), "mask must cover every token");
        // Q/K/V project the same rows: quantize the activations once.
        let mut qx = None;
        let q = self.wq.forward_inference_shared(x, &mut qx);
        let k = self.wk.forward_inference_shared(x, &mut qx);
        let v = self.wv.forward_inference_shared(x, &mut qx);
        self.forward_inference_precomputed(&q, &k, &v, seq, mask)
    }

    /// Switches all four projection layers' inference numeric mode, plus
    /// the attention core's softmax (vectorized exp in Int8 mode — see the
    /// `fast` field; training `forward` always stays on the exact path).
    pub fn set_precision(&mut self, precision: crate::qgemm::InferencePrecision) {
        self.wq.set_precision(precision);
        self.wk.set_precision(precision);
        self.wv.set_precision(precision);
        self.wo.set_precision(precision);
        self.fast = matches!(precision, crate::qgemm::InferencePrecision::Int8);
    }

    /// Everything after the Q/K/V projections: pack heads, fused masked
    /// attention, unpack, output projection.
    ///
    /// Split out so callers that cache projections of shared token rows
    /// (em-lm's demonstration-prefix cache) can stitch cached and fresh
    /// rows and resume here. The projections are per-row operations, so a
    /// stitched buffer is bitwise identical to projecting the full
    /// sequence in one call.
    pub fn forward_inference_precomputed(
        &self,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        seq: usize,
        mask: &[bool],
    ) -> Tensor {
        assert_eq!(q.rows() % seq, 0, "rows must be a multiple of seq");
        assert_eq!(mask.len(), q.rows(), "mask must cover every token");
        assert_eq!(q.rows(), k.rows());
        assert_eq!(q.rows(), v.rows());
        let batch = q.rows() / seq;
        let hd = self.dim / self.heads;
        let n = batch * seq * self.dim;

        // Reduced-precision serving path: the strided FMA kernels read the
        // Q/K/V head blocks straight out of the interleaved tensors and
        // write the context into the concatenated layout, skipping the
        // pack/unpack permutation passes entirely. Bitwise identical to
        // the packed fast path (addressing change only), so the bucket /
        // batch invariance contract carries over; the packed fan-out path
        // keeps serving volumes large enough to parallelize.
        let volume = batch * self.heads * seq * seq * hd;
        if self.fast && volume < PARALLEL_MIN_VOLUME {
            return self.fast_attend_unpacked(q, k, v, batch, seq, hd, mask);
        }

        let mut fallback;
        let mut guard;
        let s: &mut AttnScratch = match self.scratch.try_lock() {
            Ok(g) => {
                guard = g;
                &mut guard
            }
            Err(_) => {
                fallback = AttnScratch::default();
                &mut fallback
            }
        };
        ensure_len(&mut s.q, n);
        ensure_len(&mut s.k, n);
        ensure_len(&mut s.v, n);
        ensure_len(&mut s.scores, batch * self.heads * seq * seq);
        ensure_len(&mut s.ctx, n);
        pack_heads(q.data(), batch, seq, self.heads, hd, &mut s.q);
        pack_heads(k.data(), batch, seq, self.heads, hd, &mut s.k);
        pack_heads(v.data(), batch, seq, self.heads, hd, &mut s.v);
        attend_packed(
            batch, seq, self.heads, hd, &s.q, &s.k, &s.v, mask, &mut s.scores, &mut s.ctx, self.fast,
        );
        let mut concat = Tensor::zeros(q.rows(), self.dim);
        unpack_heads(&s.ctx, batch, seq, self.heads, hd, concat.data_mut());
        self.wo.forward_inference(&concat)
    }

    /// Sequential attention core over the interleaved layout (see the
    /// dispatch comment in [`Self::forward_inference_precomputed`]); only
    /// the `seq × seq` score block is scratch.
    fn fast_attend_unpacked(
        &self,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        batch: usize,
        seq: usize,
        hd: usize,
        mask: &[bool],
    ) -> Tensor {
        if em_obs::capture_enabled() {
            let m = attn_metrics();
            m.calls.inc();
            m.flops.add(4 * (batch * self.heads * seq * seq * hd) as u64);
        }
        let mut fallback;
        let mut guard;
        let s: &mut AttnScratch = match self.scratch.try_lock() {
            Ok(g) => {
                guard = g;
                &mut guard
            }
            Err(_) => {
                fallback = AttnScratch::default();
                &mut fallback
            }
        };
        ensure_len(&mut s.scores, seq * seq);
        let scores = &mut s.scores[..seq * seq];
        let scale = 1.0 / (hd as f32).sqrt();
        let dim = self.dim;
        let (qd, kd, vd) = (q.data(), k.data(), v.data());
        let mut concat = Tensor::zeros(batch * seq, dim);
        let cd = concat.data_mut();
        for b in 0..batch {
            let bmask = &mask[b * seq..(b + 1) * seq];
            for h in 0..self.heads {
                let off = b * seq * dim + h * hd;
                gemm::gemm_fast_strided(seq, hd, seq, &qd[off..], dim, &kd[off..], dim, true, scores, seq);
                fast_softmax::item(scores, seq, bmask, scale);
                gemm::gemm_fast_strided(seq, seq, hd, scores, seq, &vd[off..], dim, false, &mut cd[off..], dim);
            }
        }
        self.wo.forward_inference(&concat)
    }

    /// Backward pass: accumulates all projection gradients, returns dX.
    /// The (batch × head) loop fans out over the shared thread budget with
    /// per-worker dA/dS workspace from the arena; the consumed forward
    /// cache is recycled for the next step.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward called before forward");
        let hd = self.dim / self.heads;
        let heads = self.heads;
        let (batch, seq) = (cache.batch, cache.seq);
        let scale = 1.0 / (hd as f32).sqrt();
        let items = batch * heads;
        let n = batch * seq * self.dim;
        let volume = items * seq * seq * hd;

        // Through the output projection.
        let d_concat = self.wo.backward(grad_out);

        if em_obs::capture_enabled() {
            let m = attn_metrics();
            m.calls.inc();
            // Four GEMM-shaped products (dA, dV, dQ, dK) plus the softmax
            // backward sweep.
            m.flops.add(9 * volume as u64);
        }
        let _span = if volume >= SPAN_MIN_VOLUME {
            em_obs::span!("attn.backward", batch = batch, heads = heads, seq = seq)
        } else {
            em_obs::trace::SpanGuard::disabled()
        };

        let scratch = self.scratch.get_mut().expect("attention scratch poisoned");
        let AttnScratch {
            q: dq_buf,
            k: dk_buf,
            v: dv_buf,
            scores: work_buf,
            ctx: dpack_buf,
        } = scratch;
        ensure_len(dpack_buf, n);
        pack_heads(d_concat.data(), batch, seq, heads, hd, dpack_buf);
        ensure_len(dq_buf, n);
        ensure_len(dk_buf, n);
        ensure_len(dv_buf, n);

        let reservation = if volume >= PARALLEL_MIN_VOLUME && items > 1 {
            threadpool::reserve_workers(items - 1)
        } else {
            threadpool::reserve_workers(0)
        };
        let nworkers = reservation.total().min(items).max(1);
        // Per-worker dA + dS workspace, carved from one arena buffer.
        ensure_len(work_buf, nworkers * 2 * seq * seq);

        let run_item =
            |idx: usize, dq: &mut [f32], dk: &mut [f32], dv: &mut [f32], da: &mut [f32], ds: &mut [f32]| {
                let off = idx * seq * hd;
                backward_item(
                    seq,
                    hd,
                    scale,
                    &cache.q[off..off + seq * hd],
                    &cache.k[off..off + seq * hd],
                    &cache.v[off..off + seq * hd],
                    &cache.probs[idx * seq * seq..(idx + 1) * seq * seq],
                    &dpack_buf[off..off + seq * hd],
                    dq,
                    dk,
                    dv,
                    da,
                    ds,
                );
            };

        if nworkers <= 1 {
            let (da, ds) = work_buf.split_at_mut(seq * seq);
            for idx in 0..items {
                let off = idx * seq * hd;
                let dq = &mut dq_buf[off..off + seq * hd];
                let dk = &mut dk_buf[off..off + seq * hd];
                let dv = &mut dv_buf[off..off + seq * hd];
                run_item(idx, dq, dk, dv, &mut da[..seq * seq], &mut ds[..seq * seq]);
            }
        } else {
            let base = items / nworkers;
            let rem = items % nworkers;
            std::thread::scope(|scope| {
                let run_item = &run_item;
                let mut dq_rest: &mut [f32] = dq_buf;
                let mut dk_rest: &mut [f32] = dk_buf;
                let mut dv_rest: &mut [f32] = dv_buf;
                let mut work_rest: &mut [f32] = work_buf;
                let mut item0 = 0usize;
                for w in 0..nworkers {
                    let items_here = base + usize::from(w < rem);
                    let (dq_band, dq_tail) = dq_rest.split_at_mut(items_here * seq * hd);
                    let (dk_band, dk_tail) = dk_rest.split_at_mut(items_here * seq * hd);
                    let (dv_band, dv_tail) = dv_rest.split_at_mut(items_here * seq * hd);
                    let (work, work_tail) = work_rest.split_at_mut(2 * seq * seq);
                    dq_rest = dq_tail;
                    dk_rest = dk_tail;
                    dv_rest = dv_tail;
                    work_rest = work_tail;
                    let first = item0;
                    let mut run = move || {
                        let (da, ds) = work.split_at_mut(seq * seq);
                        for i in 0..items_here {
                            let off = i * seq * hd;
                            run_item(
                                first + i,
                                &mut dq_band[off..off + seq * hd],
                                &mut dk_band[off..off + seq * hd],
                                &mut dv_band[off..off + seq * hd],
                                da,
                                ds,
                            );
                        }
                    };
                    if w + 1 == nworkers {
                        run();
                    } else {
                        scope.spawn(run);
                    }
                    item0 += items_here;
                }
            });
        }

        let mut dq_t = Tensor::zeros(batch * seq, self.dim);
        let mut dk_t = Tensor::zeros(batch * seq, self.dim);
        let mut dv_t = Tensor::zeros(batch * seq, self.dim);
        unpack_heads(dq_buf, batch, seq, heads, hd, dq_t.data_mut());
        unpack_heads(dk_buf, batch, seq, heads, hd, dk_t.data_mut());
        unpack_heads(dv_buf, batch, seq, heads, hd, dv_t.data_mut());
        self.spare = Some(cache);

        let mut dx = self.wq.backward(&dq_t);
        dx.add_assign(&self.wk.backward(&dk_t));
        dx.add_assign(&self.wv.backward(&dv_t));
        dx
    }

    /// Visits parameters for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.wq.params_mut();
        ps.extend(self.wk.params_mut());
        ps.extend(self.wv.params_mut());
        ps.extend(self.wo.params_mut());
        ps
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.wq.param_count()
            + self.wk.param_count()
            + self.wv.param_count()
            + self.wo.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn masked_softmax_ignores_padding() {
        let mut row = vec![1.0, 2.0, 3.0];
        masked_softmax_row(&mut row, &[true, false, true]);
        assert_eq!(row[1], 0.0);
        assert!((row[0] + row[2] - 1.0).abs() < 1e-6);
        assert!(row[2] > row[0]);
    }

    #[test]
    fn fully_masked_row_is_zero() {
        let mut row = vec![1.0, 2.0];
        masked_softmax_row(&mut row, &[false, false]);
        assert_eq!(row, vec![0.0, 0.0]);
    }

    #[test]
    fn fast_softmax_matches_exact_within_tolerance() {
        // Varied seq lengths exercise the full-vector and masked-tail
        // lanes; one masked position carries a value above the valid max
        // to hit the fast path's upper clamp.
        for seq in [3usize, 16, 17, 48, 63] {
            let mut exact: Vec<f32> = (0..seq * seq)
                .map(|i| ((i * 31 % 17) as f32) - 8.0)
                .collect();
            exact[seq / 2] = 40.0;
            let mut mask = vec![true; seq];
            mask[seq / 2] = false;
            let mut fast = exact.clone();
            for t in 0..seq {
                masked_softmax_row_scaled(&mut exact[t * seq..(t + 1) * seq], &mask, 0.25);
            }
            fast_softmax::item(&mut fast, seq, &mask, 0.25);
            for t in 0..seq {
                assert_eq!(fast[t * seq + seq / 2], 0.0, "masked lane must be zeroed");
                let row = &fast[t * seq..(t + 1) * seq];
                assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            }
            for (a, b) in exact.iter().zip(&fast) {
                assert!((a - b).abs() < 1e-5, "seq {seq}: {a} vs {b}");
            }
        }
        // Fully masked rows zero out on both paths, and the scalar form
        // agrees with the vector form's masking semantics.
        let mut block = vec![2.0f32, -1.0, 0.5, 3.0];
        fast_softmax::item(&mut block, 2, &[false, false], 1.0);
        assert_eq!(block, vec![0.0; 4]);
        let mut row = vec![2.0f32, -1.0];
        masked_softmax_row_fast_scalar(&mut row, &[false, false], 1.0);
        assert_eq!(row, vec![0.0, 0.0]);
    }

    #[test]
    fn fast_softmax_bits_are_bucket_invariant() {
        // The same 5 valid keys padded to different bucket widths must
        // produce bitwise-identical probabilities on the valid prefix —
        // the invariant that lets bucketed serving collation change batch
        // shape without changing any pair's score.
        let valid = 5usize;
        let vals: Vec<f32> = (0..valid).map(|i| (i as f32) * 0.7 - 1.2).collect();
        let mut reference: Option<Vec<f32>> = None;
        for seq in [valid, 7, 16, 21, 48] {
            let mut mask = vec![false; seq];
            let mut block = vec![0.0f32; seq * seq];
            for t in 0..valid {
                mask[t] = true;
                block[t * seq..t * seq + valid].copy_from_slice(&vals);
            }
            fast_softmax::item(&mut block, seq, &mask, 0.5);
            let got: Vec<f32> = (0..valid)
                .flat_map(|t| block[t * seq..t * seq + valid].to_vec())
                .collect();
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(
                    r.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "seq {seq} changed the valid prefix bits"
                ),
            }
        }
    }

    #[test]
    fn set_precision_routes_inference_softmax_only() {
        // Int8 mode must change inference bits (fast exp engaged) while the
        // training forward stays bitwise on the exact path.
        let mut rng = StdRng::seed_from_u64(11);
        let mut mha = MultiHeadAttention::new(8, 2, &mut rng);
        let x = Tensor::from_vec(6, 8, (0..48).map(|i| ((i % 13) as f32) * 0.11 - 0.6).collect());
        let mask = vec![true, true, true, true, true, false];
        let train_before = mha.forward(&x, 3, &mask);
        mha.cache = None;
        mha.set_precision(crate::qgemm::InferencePrecision::Int8);
        assert!(mha.fast);
        let train_after = mha.forward(&x, 3, &mask);
        mha.cache = None;
        assert_eq!(
            train_before.data(),
            train_after.data(),
            "training forward must ignore the inference precision knob"
        );
        mha.set_precision(crate::qgemm::InferencePrecision::Full);
        assert!(!mha.fast, "Full precision must restore the exact softmax");
    }

    #[test]
    fn pack_unpack_roundtrips() {
        let (batch, seq, heads, hd) = (2, 3, 2, 2);
        let x: Vec<f32> = (0..batch * seq * heads * hd).map(|i| i as f32).collect();
        let mut packed = vec![0.0f32; x.len()];
        pack_heads(&x, batch, seq, heads, hd, &mut packed);
        // Spot-check the layout: block (b=1, h=1), row t=2, col c=1 is
        // x[(1*3+2)*4 + 1*2 + 1].
        assert_eq!(packed[(((1 * 2 + 1) * 3) + 2) * 2 + 1], x[(5 * 4) + 3]);
        let mut back = vec![0.0f32; x.len()];
        unpack_heads(&packed, batch, seq, heads, hd, &mut back);
        assert_eq!(back, x);
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut mha = MultiHeadAttention::new(8, 2, &mut rng);
        let x = Tensor::from_vec(6, 8, (0..48).map(|i| (i as f32) * 0.01).collect());
        let mask = vec![true; 6];
        let y = mha.forward(&x, 3, &mask); // batch of 2 sequences of length 3
        assert_eq!((y.rows(), y.cols()), (6, 8));
    }

    #[test]
    fn attention_rows_sum_to_one_over_valid_keys() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mha = MultiHeadAttention::new(4, 1, &mut rng);
        let x = Tensor::from_vec(4, 4, (0..16).map(|i| (i as f32) * 0.1).collect());
        let mask = vec![true, true, true, false];
        let _ = mha.forward(&x, 4, &mask);
        let cache = mha.cache.as_ref().unwrap();
        // One head, one sequence: the first probs block is the 4×4 matrix.
        for t in 0..4 {
            let row = &cache.probs[t * 4..(t + 1) * 4];
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert_eq!(row[3], 0.0, "padded key must get zero attention");
        }
    }

    #[test]
    fn padding_tokens_do_not_change_valid_outputs() {
        // Same content with and without a padded tail: valid rows identical.
        let mut rng = StdRng::seed_from_u64(2);
        let mha = MultiHeadAttention::new(4, 2, &mut rng);
        let data: Vec<f32> = (0..8).map(|i| i as f32 * 0.3 - 1.0).collect();
        let x2 = Tensor::from_vec(2, 4, data.clone());
        let y2 = mha.forward_inference(&x2, 2, &[true, true]);
        let mut padded = data.clone();
        padded.extend_from_slice(&[9.0, 9.0, 9.0, 9.0]); // garbage pad row
        let x3 = Tensor::from_vec(3, 4, padded);
        let y3 = mha.forward_inference(&x3, 3, &[true, true, false]);
        for t in 0..2 {
            for j in 0..4 {
                assert!(
                    (y2.get(t, j) - y3.get(t, j)).abs() < 1e-5,
                    "row {t} col {j}: {} vs {}",
                    y2.get(t, j),
                    y3.get(t, j)
                );
            }
        }
    }

    #[test]
    fn backward_produces_finite_gradients() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mha = MultiHeadAttention::new(8, 2, &mut rng);
        let x = Tensor::from_vec(4, 8, (0..32).map(|i| ((i % 7) as f32) * 0.1).collect());
        let mask = vec![true, true, true, false];
        let y = mha.forward(&x, 4, &mask);
        let dy = Tensor::from_vec(y.rows(), y.cols(), vec![1.0; y.len()]);
        let dx = mha.backward(&dy);
        assert_eq!((dx.rows(), dx.cols()), (4, 8));
        assert!(dx.data().iter().all(|v| v.is_finite()));
        assert!(mha.wq.weight.grad.frobenius_norm() > 0.0);
        assert!(mha.wo.weight.grad.frobenius_norm() > 0.0);
    }

    #[test]
    fn arena_reuse_is_transparent_across_steps() {
        // Two identical train steps must produce identical outputs and
        // gradients even though the second recycles the first's buffers.
        let mut rng = StdRng::seed_from_u64(6);
        let mut mha = MultiHeadAttention::new(8, 2, &mut rng);
        let x = Tensor::from_vec(6, 8, (0..48).map(|i| ((i % 9) as f32) * 0.07).collect());
        let mask = vec![true, true, false, true, true, true];
        let dy = Tensor::from_vec(6, 8, (0..48).map(|i| ((i % 5) as f32) * 0.1 - 0.2).collect());

        let y1 = mha.forward(&x, 3, &mask);
        let dx1 = mha.backward(&dy);
        let g1 = mha.wq.weight.grad.clone();
        // Second step on the recycled arena.
        let y2 = mha.forward(&x, 3, &mask);
        let dx2 = mha.backward(&dy);
        assert_eq!(y1.data(), y2.data(), "forward diverged on recycled arena");
        assert_eq!(dx1.data(), dx2.data(), "backward diverged on recycled arena");
        // Gradients accumulate, so step 2's wq grad is exactly double.
        let g2 = mha.wq.weight.grad.clone();
        for (a, b) in g1.data().iter().zip(g2.data()) {
            assert!((2.0 * a - b).abs() <= 1e-5 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn smaller_batch_after_larger_shrinks_logical_shape() {
        // Arena buffers only grow; a smaller follow-up batch must still
        // compute on the correctly sized logical prefix.
        let mut rng = StdRng::seed_from_u64(7);
        let mut mha = MultiHeadAttention::new(4, 2, &mut rng);
        let big = Tensor::from_vec(8, 4, (0..32).map(|i| (i as f32) * 0.03).collect());
        let _ = mha.forward(&big, 4, &[true; 8]);
        let _ = mha.backward(&Tensor::from_vec(8, 4, vec![0.1; 32]));
        let small = Tensor::from_vec(2, 4, (0..8).map(|i| (i as f32) * 0.05).collect());
        let fresh = {
            let mut m2 = mha.clone();
            m2.spare = None;
            m2.forward(&small, 2, &[true, true])
        };
        let reused = mha.forward(&small, 2, &[true, true]);
        assert_eq!(fresh.data(), reused.data());
    }

    #[test]
    fn param_count_is_four_projections() {
        let mut rng = StdRng::seed_from_u64(4);
        let mha = MultiHeadAttention::new(16, 4, &mut rng);
        assert_eq!(mha.param_count(), 4 * (16 * 16 + 16));
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_heads_panic() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = MultiHeadAttention::new(6, 4, &mut rng);
    }
}
