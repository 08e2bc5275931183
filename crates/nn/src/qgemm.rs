//! Quantized int8 inference GEMM for frozen weight matrices.
//!
//! The zoo scoring path runs the same frozen weights against millions of
//! prompts; this module trades a one-time per-matrix quantization pass for
//! int8 arithmetic on every subsequent forward:
//!
//! * **Weights** are quantized once, per output column, with a symmetric
//!   scale `sw[j] = maxabs(col j) / 127` and packed into the same
//!   `NR`-wide column panels as [`crate::gemm`], except that each panel
//!   stores `k` in groups of 4 so one 64-byte load feeds a whole
//!   `vpdpbusd` step.
//! * **Activations** are quantized per row on the fly with a dynamic
//!   symmetric scale `sx[i] = maxabs(row i) / 127`, then offset by +128
//!   into `u8` so the AVX-512 VNNI `u8 × i8` dot product applies. The
//!   offset is exact to undo: the accumulator picks up
//!   `128 · Σ_p qw[p][j]`, which the per-column `col_sums` remove before
//!   the `f32` dequant-rescale.
//! * **Accumulation** is `i32` and therefore *exact*: no rounding happens
//!   between the quantization points, so the result is independent of
//!   loop order, tiling, and thread count by construction — the
//!   packed/vectorized kernel is **bitwise identical** to the naive
//!   triple loop in [`crate::reference::qgemm`] (asserted by
//!   `tests/qgemm_equivalence.rs`).
//!
//! Overflow cannot occur for any realistic layer: each product is at most
//! `255 · 127` and `k` is bounded by `MAX_K` (debug-asserted), keeping
//! `|acc| ≤ 255 · 127 · MAX_K < i32::MAX`.
//!
//! The error contract is *drift-bounded, not bitwise*: quantized scores
//! differ from `f32` scores by O(1/127) per operand. The end-to-end bound
//! (|Δscore| ≤ ε, prediction flip rate < 0.5%) is enforced by the em-lm
//! equivalence suite; training and the default inference path never touch
//! this module, so the `f32` bit-streams are unchanged.

use crate::tensor::Tensor;
use crate::threadpool;

/// Numeric mode of the inference-only forward pass.
///
/// `Full` is the default and leaves every score bitwise identical to the
/// pre-quantization code; `Int8` routes frozen-weight matmuls through
/// [`qgemm`] within the drift bound above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InferencePrecision {
    /// Unquantized `f32` GEMM (bitwise-reproducible baseline).
    #[default]
    Full,
    /// Per-column symmetric int8 weights, per-row dynamic int8
    /// activations, exact i32 accumulation, f32 dequant-rescale.
    Int8,
}

/// Metric handles resolved once; quantized GEMM sits on the zoo scoring
/// hot path, so the registry lock must never sit on it.
struct QgemmMetrics {
    calls: std::sync::Arc<em_obs::metrics::Counter>,
    flops: std::sync::Arc<em_obs::metrics::Counter>,
}

fn qgemm_metrics() -> &'static QgemmMetrics {
    static METRICS: std::sync::OnceLock<QgemmMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| QgemmMetrics {
        calls: em_obs::metrics::counter("qgemm.calls"),
        flops: em_obs::metrics::counter("qgemm.flops"),
    })
}

/// Rows of activations per microkernel tile.
pub const MR: usize = 8;
/// Output columns per packed weight panel.
pub const NR: usize = 32;
/// `k` positions consumed per VNNI step (`vpdpbusd` reduces 4 bytes).
const KG: usize = 4;

/// Largest supported reduction depth: `255 · 127 · MAX_K` must stay below
/// `i32::MAX`. Far above any layer this workspace builds (`k ≤ 1024`).
pub const MAX_K: usize = 1 << 16;

/// Minimum `m·n·k` volume before worker threads are requested. Integer
/// accumulation is exact, so the partition never affects results.
const PARALLEL_MIN_VOLUME: usize = 1 << 21;

/// The shared quantization step: symmetric round-to-nearest, clamped to
/// the symmetric int8 range. `scale == 0` (an all-zero vector) maps
/// everything to 0.
#[inline]
pub fn quantize_value(v: f32, scale: f32) -> i32 {
    if scale == 0.0 {
        0
    } else {
        ((v / scale).round() as i32).clamp(-127, 127)
    }
}

/// Symmetric scale for a slice: `maxabs / 127`, or 0 for all-zero input.
#[inline]
pub fn symmetric_scale(vals: impl Iterator<Item = f32>) -> f32 {
    let maxabs = vals.fold(0.0f32, |m, v| m.max(v.abs()));
    if maxabs > 0.0 {
        maxabs / 127.0
    } else {
        0.0
    }
}

/// A frozen weight matrix quantized to int8 and packed for the VNNI
/// microkernel. Logical shape is `(k, n)` (input dim × output dim),
/// matching the row-major layout of `Linear::weight`.
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    k: usize,
    n: usize,
    /// `k` rounded up to a multiple of [`KG`]; padded positions hold
    /// weight 0, so arbitrary activation bytes there contribute nothing.
    kp: usize,
    /// Panel-packed int8 weights:
    /// `packed[u·kp·NR + g·NR·KG + j·KG + s] = qw[g·KG + s][u·NR + j]`
    /// — panel `u`, k-group `g`, panel column `j`, byte `s` within the
    /// group. One k-group of one panel is `NR·KG = 128` contiguous bytes.
    packed: Vec<i8>,
    /// Per-output-column symmetric scales (`len == n`).
    scales: Vec<f32>,
    /// Per-output-column `Σ_p qw[p][j]`, used to remove the +128
    /// activation offset exactly.
    col_sums: Vec<i32>,
}

impl QuantizedMatrix {
    /// Quantizes a `(k, n)` row-major weight matrix.
    pub fn quantize(k: usize, n: usize, w: &[f32]) -> Self {
        assert_eq!(w.len(), k * n, "weight shape mismatch");
        debug_assert!(k <= MAX_K, "reduction depth {k} exceeds overflow bound");
        let kp = k.div_ceil(KG).max(1) * KG;
        let npanels = n.div_ceil(NR);
        let mut scales = Vec::with_capacity(n);
        for j in 0..n {
            scales.push(symmetric_scale((0..k).map(|p| w[p * n + j])));
        }
        let mut packed = vec![0i8; npanels * kp * NR];
        let mut col_sums = vec![0i32; n];
        for p in 0..k {
            let (g, s) = (p / KG, p % KG);
            for j in 0..n {
                let q = quantize_value(w[p * n + j], scales[j]);
                col_sums[j] += q;
                let (u, jj) = (j / NR, j % NR);
                packed[u * kp * NR + g * NR * KG + jj * KG + s] = q as i8;
            }
        }
        QuantizedMatrix {
            k,
            n,
            kp,
            packed,
            scales,
            col_sums,
        }
    }

    /// Quantizes a weight tensor (rows = input dim, cols = output dim).
    pub fn from_tensor(w: &Tensor) -> Self {
        Self::quantize(w.rows(), w.cols(), w.data())
    }

    /// Input dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `k` rounded up to the VNNI group size — the row stride
    /// [`QuantizedActivations`] must be built with to feed this matrix.
    pub fn kp(&self) -> usize {
        self.kp
    }

    /// `x @ W` for a `(m, k)` activation tensor → `(m, n)`.
    pub fn matmul(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.cols(), self.k, "qgemm dimension mismatch");
        // qgemm overwrites every output element, so skip the zero fill.
        let mut out = Tensor::uninit(x.rows(), self.n);
        qgemm(x.rows(), x.data(), self, out.data_mut());
        out
    }

    /// [`Self::matmul`] with the bias row folded into the dequantize
    /// epilogue: `out = sx·sw·acc + bias[j]`, the same multiply-then-add
    /// sequence as a separate broadcast pass, so results are bitwise
    /// identical while the output is only traversed once.
    pub fn matmul_bias(&self, x: &Tensor, bias: &[f32]) -> Tensor {
        assert_eq!(x.cols(), self.k, "qgemm dimension mismatch");
        assert_eq!(bias.len(), self.n, "bias shape mismatch");
        let mut out = Tensor::uninit(x.rows(), self.n);
        let qa = quantize_activations(x.rows(), self.k, self.kp, x.data());
        qgemm_prequant_bias(&qa, self, Some(bias), out.data_mut());
        out
    }

    /// `x @ W` for activations quantized once via
    /// [`QuantizedActivations::quantize`] and shared across several
    /// matrices of the same input dimension (e.g. attention Q/K/V).
    /// Bitwise identical to [`Self::matmul`]: the per-row scale depends
    /// only on the activations.
    pub fn matmul_prequant(&self, qa: &QuantizedActivations) -> Tensor {
        let mut out = Tensor::uninit(qa.m, self.n);
        qgemm_prequant(qa, self, out.data_mut());
        out
    }

    /// [`Self::matmul_prequant`] with the fused bias epilogue of
    /// [`Self::matmul_bias`].
    pub fn matmul_prequant_bias(&self, qa: &QuantizedActivations, bias: &[f32]) -> Tensor {
        assert_eq!(bias.len(), self.n, "bias shape mismatch");
        let mut out = Tensor::uninit(qa.m, self.n);
        qgemm_prequant_bias(qa, self, Some(bias), out.data_mut());
        out
    }
}

/// Per-row symmetrically quantized activations: per-row scales plus the
/// offset-by-128 `u8` buffer, row-major with `k` padded to `kp`. Built
/// once per input tensor and reusable against every [`QuantizedMatrix`]
/// with the same `(k, kp)` — quantization depends only on the
/// activations, so sharing is bitwise invisible.
pub struct QuantizedActivations {
    m: usize,
    k: usize,
    kp: usize,
    rows: Vec<u8>,
    scales: Vec<f32>,
}

impl QuantizedActivations {
    /// Quantizes a `(m, k)` activation tensor with row stride `kp`
    /// (take it from [`QuantizedMatrix::kp`]).
    pub fn quantize(x: &Tensor, kp: usize) -> Self {
        quantize_activations(x.rows(), x.cols(), kp, x.data())
    }
}

fn quantize_activations(m: usize, k: usize, kp: usize, x: &[f32]) -> QuantizedActivations {
    debug_assert!(kp >= k && kp % KG == 0, "bad activation row stride");
    let mut rows = vec![128u8; m * kp];
    let mut scales = Vec::with_capacity(m);
    for i in 0..m {
        let src = &x[i * k..(i + 1) * k];
        let scale = if src.is_empty() {
            0.0
        } else {
            let maxabs = kernels::maxabs(src);
            if maxabs > 0.0 {
                maxabs / 127.0
            } else {
                0.0
            }
        };
        scales.push(scale);
        if scale != 0.0 {
            kernels::quantize_row(src, scale, &mut rows[i * kp..i * kp + k]);
        }
        // `scale == 0` rows (and the padded tail) stay 128 (quantized 0);
        // padded weights are 0, so the pair contributes 128·0 to the
        // accumulator and the offset correction uses col_sums over the
        // same zero-padded weights.
    }
    QuantizedActivations {
        m,
        k,
        kp,
        rows,
        scales,
    }
}

/// `out = x @ W` with `x` a `(m, k)` row-major `f32` buffer and `W` a
/// pre-quantized `(k, n)` matrix; `out` is `(m, n)` and fully overwritten.
///
/// Row bands fan out over the shared [`crate::threadpool`] budget; the
/// i32 accumulation is exact, so every partition and both kernels
/// (VNNI and portable) produce identical results.
pub fn qgemm(m: usize, x: &[f32], w: &QuantizedMatrix, out: &mut [f32]) {
    debug_assert_eq!(x.len(), m * w.k, "activation shape mismatch");
    if m == 0 || w.n == 0 {
        return;
    }
    let qa = quantize_activations(m, w.k, w.kp, x);
    qgemm_prequant(&qa, w, out);
}

/// [`qgemm`] over activations quantized up front — the shared-activation
/// entry point behind [`QuantizedMatrix::matmul_prequant`].
pub fn qgemm_prequant(qa: &QuantizedActivations, w: &QuantizedMatrix, out: &mut [f32]) {
    qgemm_prequant_bias(qa, w, None, out);
}

/// [`qgemm_prequant`] with an optional bias row added in the dequantize
/// epilogue (multiply-then-add, bitwise equal to a separate bias pass).
fn qgemm_prequant_bias(
    qa: &QuantizedActivations,
    w: &QuantizedMatrix,
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    assert_eq!(qa.k, w.k, "qgemm dimension mismatch");
    assert_eq!(qa.kp, w.kp, "activation row stride mismatch");
    debug_assert_eq!(out.len(), qa.m * w.n, "output shape mismatch");
    let m = qa.m;
    if m == 0 || w.n == 0 {
        return;
    }
    let volume = m.saturating_mul(w.n).saturating_mul(w.k.max(1));
    if em_obs::capture_enabled() {
        let metrics = qgemm_metrics();
        metrics.calls.inc();
        // One multiply + one add per (i, j, p) triple, as `gemm.flops`
        // counts them; the int8 ops retire 4 MACs per instruction but the
        // counter prices logical work, not instructions.
        metrics.flops.add(2 * volume as u64);
    }

    let nstrips = m.div_ceil(MR);
    let reservation = if volume >= PARALLEL_MIN_VOLUME && nstrips > 1 {
        threadpool::reserve_workers(nstrips - 1)
    } else {
        threadpool::reserve_workers(0)
    };
    let nworkers = reservation.total().min(nstrips).max(1);
    if nworkers <= 1 {
        process_band(0, m, w, qa, bias, out);
        return;
    }
    let base = nstrips / nworkers;
    let rem = nstrips % nworkers;
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut strip0 = 0usize;
        for t in 0..nworkers {
            let strips_here = base + usize::from(t < rem);
            let row0 = strip0 * MR;
            let rows_here = ((strip0 + strips_here) * MR).min(m) - row0;
            let (band, tail) = rest.split_at_mut(rows_here * w.n);
            rest = tail;
            let (w, qa) = (&*w, qa);
            let mut run = move || process_band(row0, rows_here, w, qa, bias, band);
            if t + 1 == nworkers {
                run();
            } else {
                scope.spawn(run);
            }
            strip0 += strips_here;
        }
    });
}

/// Computes `rows` output rows starting at global row `row0` into `band`.
fn process_band(
    row0: usize,
    rows: usize,
    w: &QuantizedMatrix,
    qa: &QuantizedActivations,
    bias: Option<&[f32]>,
    band: &mut [f32],
) {
    let n = w.n;
    let npanels = n.div_ceil(NR);
    let mut acc = [[0i32; NR]; MR];
    let mut r = 0usize;
    while r < rows {
        let mr_eff = MR.min(rows - r);
        let arows = &qa.rows[(row0 + r) * qa.kp..(row0 + r + mr_eff) * qa.kp];
        for u in 0..npanels {
            let panel = &w.packed[u * w.kp * NR..(u + 1) * w.kp * NR];
            kernels::microkernel(arows, panel, qa.kp, mr_eff, &mut acc);
            let j0 = u * NR;
            let nr_eff = NR.min(n - j0);
            let (sw, cs) = (&w.scales[j0..j0 + nr_eff], &w.col_sums[j0..j0 + nr_eff]);
            let bias = bias.map(|b| &b[j0..j0 + nr_eff]);
            for (ii, accrow) in acc.iter().enumerate().take(mr_eff) {
                let sx = qa.scales[row0 + r + ii];
                let dst = &mut band[(r + ii) * n + j0..(r + ii) * n + j0 + nr_eff];
                if nr_eff == NR {
                    kernels::dequantize_panel(accrow, sx, sw, cs, bias, dst);
                } else {
                    dequantize(accrow, sx, sw, cs, bias, dst);
                }
            }
        }
        r += MR;
    }
}

/// The dequantize epilogue of one output row segment: removes the +128
/// activation offset exactly, then rescales,
/// `dst[j] = sx · sw[j] · (acc[j] − 128 · Σ qw[j]) (+ bias[j])`. The bias
/// add follows the multiplies (no FMA), the same sequence as a separate
/// bias broadcast, so the fused epilogue is bitwise identical to it.
/// [`kernels::dequantize_panel`] is the 16-lane form for full panels.
#[inline]
fn dequantize(acc: &[i32], sx: f32, sw: &[f32], col_sums: &[i32], bias: Option<&[f32]>, dst: &mut [f32]) {
    for (jj, d) in dst.iter_mut().enumerate() {
        let corrected = acc[jj] - 128 * col_sums[jj];
        let v = sx * sw[jj] * corrected as f32;
        *d = match bias {
            Some(b) => v + b[jj],
            None => v,
        };
    }
}

// ---------------------------------------------------------------------
// Microkernels.
//
// `acc[i][j] = Σ_p qx(row i, p) · qw(p, panel col j)` over the padded
// reduction `p = 0..kp`, as exact i32 sums. `arows` holds `mr_eff`
// consecutive activation rows of `kp` u8 each; `panel` is one packed
// weight panel (`kp · NR` i8, in KG-groups). Rows past `mr_eff` keep
// whatever the accumulator held — callers only read the first `mr_eff`.
// Integer accumulation is order-independent, so the VNNI and portable
// implementations agree exactly.
// ---------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", target_feature = "avx512vnni"))]
mod kernels {
    use super::{KG, MR, NR};
    use std::arch::x86_64::*;

    /// Order-independent `max |v|` (f32 max over distinct finite values is
    /// associative and commutative, and `|−0| = +0`), so the 16-lane
    /// reduction equals [`super::symmetric_scale`]'s left fold exactly.
    #[inline]
    pub fn maxabs(src: &[f32]) -> f32 {
        unsafe {
            let absmask = _mm512_castsi512_ps(_mm512_set1_epi32(0x7fff_ffff));
            let mut acc = _mm512_setzero_ps();
            let mut i = 0usize;
            while i + 16 <= src.len() {
                let v = _mm512_loadu_ps(src.as_ptr().add(i));
                acc = _mm512_max_ps(acc, _mm512_and_ps(v, absmask));
                i += 16;
            }
            if i < src.len() {
                let mask = (1u16 << (src.len() - i)) - 1;
                let v = _mm512_maskz_loadu_ps(mask, src.as_ptr().add(i));
                acc = _mm512_max_ps(acc, _mm512_and_ps(v, absmask));
            }
            _mm512_reduce_max_ps(acc)
        }
    }

    /// 16 activations → 16 offset-by-128 `u8`, matching
    /// `(quantize_value(v, scale) + 128) as u8` bit for bit on every
    /// finite input:
    /// * `vdivps` is the same IEEE division;
    /// * `trunc(d + copysign(C, d))` with `C = 0.49999997` (the largest
    ///   f32 below 0.5) is the standard exact expansion of
    ///   round-half-away-from-zero under round-nearest-even — the only
    ///   inexact sums land on exact ties whose even neighbor *is* the
    ///   away-from-zero integer;
    /// * clamping in the float domain before `vcvttps2dq` gives the same
    ///   [-127, 127] saturation the scalar `clamp` applies (and keeps
    ///   ±∞ consistent, which the trunc conversion alone would not).
    #[inline]
    unsafe fn quantize16(v: __m512, vscale: __m512) -> __m128i {
        let sign = _mm512_set1_ps(-0.0);
        let c = _mm512_set1_ps(f32::from_bits(0x3EFF_FFFF));
        let d = _mm512_div_ps(v, vscale);
        let magic = _mm512_or_ps(_mm512_and_ps(d, sign), c);
        let r = _mm512_roundscale_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(
            _mm512_add_ps(d, magic),
        );
        let rc = _mm512_max_ps(_mm512_min_ps(r, _mm512_set1_ps(127.0)), _mm512_set1_ps(-127.0));
        let q = _mm512_cvttps_epi32(rc);
        _mm512_cvtepi32_epi8(_mm512_add_epi32(q, _mm512_set1_epi32(128)))
    }

    /// Quantizes one activation row (`scale > 0`) into offset-`u8` bytes.
    #[inline]
    pub fn quantize_row(src: &[f32], scale: f32, dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        debug_assert!(scale > 0.0);
        unsafe {
            let vscale = _mm512_set1_ps(scale);
            let mut i = 0usize;
            while i + 16 <= src.len() {
                let v = _mm512_loadu_ps(src.as_ptr().add(i));
                let b = quantize16(v, vscale);
                _mm_storeu_si128(dst.as_mut_ptr().add(i) as *mut __m128i, b);
                i += 16;
            }
            if i < src.len() {
                let mask = (1u16 << (src.len() - i)) - 1;
                // Inactive lanes load 0.0, quantize to the 128 offset
                // byte, and are dropped by the masked store anyway.
                let v = _mm512_maskz_loadu_ps(mask, src.as_ptr().add(i));
                let b = quantize16(v, vscale);
                _mm_mask_storeu_epi8(dst.as_mut_ptr().add(i) as *mut i8, mask, b);
            }
        }
    }

    /// [`super::dequantize`] over one full `NR`-column panel, 16 lanes at
    /// a time: `(sx·sw)·f32(acc − 128·colsum) (+ bias)` with the same
    /// operation order and roundings (`vcvtdq2ps` rounds to nearest-even
    /// like `as f32`; the shift is the exact `× 128`; no FMA).
    #[inline]
    pub fn dequantize_panel(
        acc: &[i32; NR],
        sx: f32,
        sw: &[f32],
        col_sums: &[i32],
        bias: Option<&[f32]>,
        dst: &mut [f32],
    ) {
        assert!(sw.len() == NR && col_sums.len() == NR && dst.len() == NR);
        assert!(bias.is_none_or(|b| b.len() == NR));
        // SAFETY: every operand holds NR = 32 values (asserted above), and
        // the loop touches lanes h..h + 16 for h ∈ {0, 16}.
        unsafe {
            let sxv = _mm512_set1_ps(sx);
            for h in (0..NR).step_by(16) {
                let a = _mm512_loadu_si512(acc.as_ptr().add(h) as *const __m512i);
                let cs = _mm512_loadu_si512(col_sums.as_ptr().add(h) as *const __m512i);
                let corrected = _mm512_cvtepi32_ps(_mm512_sub_epi32(a, _mm512_slli_epi32::<7>(cs)));
                let scale = _mm512_mul_ps(sxv, _mm512_loadu_ps(sw.as_ptr().add(h)));
                let mut v = _mm512_mul_ps(scale, corrected);
                if let Some(b) = bias {
                    v = _mm512_add_ps(v, _mm512_loadu_ps(b.as_ptr().add(h)));
                }
                _mm512_storeu_ps(dst.as_mut_ptr().add(h), v);
            }
        }
    }

    /// An 8×32 i32 tile is 16 zmm accumulators + 2 weight vectors + 1
    /// broadcast, within the 32 architectural zmm registers. Each
    /// `vpdpbusd` retires `KG` MACs per lane (64 per instruction).
    #[inline]
    pub fn microkernel(arows: &[u8], panel: &[i8], kp: usize, mr_eff: usize, acc: &mut [[i32; NR]; MR]) {
        debug_assert_eq!(arows.len(), mr_eff * kp);
        debug_assert_eq!(panel.len(), kp * NR);
        unsafe {
            let mut c: [[__m512i; 2]; MR] = [[_mm512_setzero_si512(); 2]; MR];
            let mut wptr = panel.as_ptr();
            for g in 0..kp / KG {
                // One k-group: NR columns × KG bytes = two zmm loads.
                let w0 = _mm512_loadu_si512(wptr as *const __m512i);
                let w1 = _mm512_loadu_si512(wptr.add(64) as *const __m512i);
                for (i, ci) in c.iter_mut().enumerate().take(mr_eff) {
                    // Broadcast this row's KG activation bytes to every
                    // 32-bit lane; vpdpbusd pairs them with each column's
                    // KG weight bytes.
                    let abytes =
                        (arows.as_ptr().add(i * kp + g * KG) as *const i32).read_unaligned();
                    let av = _mm512_set1_epi32(abytes);
                    ci[0] = _mm512_dpbusd_epi32(ci[0], av, w0);
                    ci[1] = _mm512_dpbusd_epi32(ci[1], av, w1);
                }
                wptr = wptr.add(NR * KG);
            }
            for (accrow, ci) in acc.iter_mut().zip(&c).take(mr_eff) {
                _mm512_storeu_si512(accrow.as_mut_ptr() as *mut __m512i, ci[0]);
                _mm512_storeu_si512(accrow.as_mut_ptr().add(16) as *mut __m512i, ci[1]);
            }
        }
    }
}

/// Portable fallback: plain nested i32 loops over the same packed layout.
/// Integer sums are exact, so this is bit-for-bit the VNNI result.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512vnni")))]
mod kernels {
    use super::{KG, MR, NR};

    #[inline]
    pub fn maxabs(src: &[f32]) -> f32 {
        src.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    #[inline]
    pub fn quantize_row(src: &[f32], scale: f32, dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        debug_assert!(scale > 0.0);
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = (super::quantize_value(v, scale) + 128) as u8;
        }
    }

    #[inline]
    pub fn dequantize_panel(
        acc: &[i32; NR],
        sx: f32,
        sw: &[f32],
        col_sums: &[i32],
        bias: Option<&[f32]>,
        dst: &mut [f32],
    ) {
        super::dequantize(acc, sx, sw, col_sums, bias, dst);
    }

    #[inline]
    pub fn microkernel(arows: &[u8], panel: &[i8], kp: usize, mr_eff: usize, acc: &mut [[i32; NR]; MR]) {
        debug_assert_eq!(arows.len(), mr_eff * kp);
        debug_assert_eq!(panel.len(), kp * NR);
        for accrow in acc.iter_mut().take(mr_eff) {
            accrow.iter_mut().for_each(|v| *v = 0);
        }
        for g in 0..kp / KG {
            let wgroup = &panel[g * NR * KG..(g + 1) * NR * KG];
            for (i, accrow) in acc.iter_mut().enumerate().take(mr_eff) {
                let abytes = &arows[i * kp + g * KG..i * kp + g * KG + KG];
                for (j, cv) in accrow.iter_mut().enumerate() {
                    let wb = &wgroup[j * KG..(j + 1) * KG];
                    for s in 0..KG {
                        *cv += abytes[s] as i32 * wb[s] as i32;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn fill(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                ((h >> 8) as f32 / (1 << 24) as f32 - 0.5) * 4.0
            })
            .collect()
    }

    /// `n` covers full 32-column panels only (32, 64, 96), a ragged panel
    /// only (< 32), and both (33, 48, 100), so the 16-lane and scalar
    /// dequantize epilogues are each pinned, with and without bias.
    #[test]
    fn matches_reference_oracle_bitwise_on_awkward_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (8, 4, 32),
            (9, 17, 33),
            (13, 2, 31),
            (20, 64, 48),
            (5, 24, 64),
            (11, 40, 96),
            (3, 33, 100),
        ] {
            let w = fill(k * n, 1);
            let x = fill(m * k, 2);
            let bias = fill(n, 3);
            let qm = QuantizedMatrix::quantize(k, n, &w);
            let mut fast = vec![0.0f32; m * n];
            qgemm(m, &x, &qm, &mut fast);
            let mut slow = vec![0.0f32; m * n];
            reference::qgemm(m, k, n, &x, &w, &mut slow);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&slow), "mismatch at ({m},{k},{n})");
            // The fused bias epilogue equals the oracle plus a separate
            // bias broadcast.
            let fused = qm.matmul_bias(&Tensor::from_vec(m, k, x.clone()), &bias);
            for row in slow.chunks_mut(n) {
                row.iter_mut().zip(&bias).for_each(|(v, b)| *v += b);
            }
            assert_eq!(bits(fused.data()), bits(&slow), "bias mismatch at ({m},{k},{n})");
        }
    }

    #[test]
    fn approximates_the_f32_product() {
        let (m, k, n) = (6, 24, 16);
        let w = fill(k * n, 3);
        let x = fill(m * k, 4);
        let qm = QuantizedMatrix::quantize(k, n, &w);
        let mut quant = vec![0.0f32; m * n];
        qgemm(m, &x, &qm, &mut quant);
        let mut exact = vec![0.0f32; m * n];
        reference::matmul(m, k, n, &x, &w, &mut exact);
        for (q, e) in quant.iter().zip(&exact) {
            // Two ~0.8% operand errors over a k=24 reduction of O(1)
            // values: comfortably inside 0.2 absolute.
            assert!((q - e).abs() < 0.2, "{q} vs {e}");
        }
    }

    #[test]
    fn zero_inputs_quantize_to_exact_zero() {
        let qm = QuantizedMatrix::quantize(4, 3, &[0.0; 12]);
        let mut out = vec![1.0f32; 6];
        qgemm(2, &fill(8, 5), &qm, &mut out);
        assert!(out.iter().all(|&v| v == 0.0), "zero weights must yield zero");
        let qm = QuantizedMatrix::quantize(4, 3, &fill(12, 6));
        qgemm(2, &[0.0; 8], &qm, &mut out);
        assert!(out.iter().all(|&v| v == 0.0), "zero activations must yield zero");
    }

    #[test]
    fn tensor_entry_point_matches_flat_entry_point() {
        let (m, k, n) = (5, 10, 12);
        let w = Tensor::from_vec(k, n, fill(k * n, 7));
        let x = Tensor::from_vec(m, k, fill(m * k, 8));
        let qm = QuantizedMatrix::from_tensor(&w);
        let via_tensor = qm.matmul(&x);
        let mut via_flat = vec![0.0f32; m * n];
        qgemm(m, x.data(), &qm, &mut via_flat);
        assert_eq!(via_tensor.data(), &via_flat[..]);
    }

    // Thread-count parity is covered in `tests/qgemm_equivalence.rs`,
    // which owns the process-global thread-cap override.
}
