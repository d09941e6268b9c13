//! x86-64 backends: the AVX2 and AVX-512 [`SimdF32`] implementations, the
//! `#[target_feature]` wrappers that instantiate the generic kernel bodies
//! with those types, and the dispatch tables that expose them as safe
//! function pointers.
//!
//! This is the only file in the crate that contains `unsafe` code. The
//! safety argument is uniform: every `unsafe` block here calls a
//! `#[target_feature]` function, and each such function is reachable only
//! through a dispatch table that `simd::table`/`simd::scalar_table` select
//! after `is_x86_feature_detected!` confirmed the features at runtime.

use super::vec::{depthwise_kernel, gemv_kernel, sub_kernel, tile_kernel, SimdF32};
use super::{Isa, Kernels, AVX2_MIN_MACS, AVX512_MIN_MACS, SCALAR_MIN_MACS};
use crate::conv::{depthwise_sweep_impl, DepthwiseSweep};
use crate::kernels::{gemv_row_impl, micro_kernel_impl, Epilogue, TilePass, MC, MR, NR};
use core::arch::x86_64::*;

/// One 256-bit vector: 8 `f32` lanes (AVX2 + FMA).
#[derive(Clone, Copy)]
pub(crate) struct F32x8(__m256);

impl SimdF32 for F32x8 {
    const LANES: usize = 8;
    type Index = __m256i;

    #[inline(always)]
    unsafe fn zero() -> Self {
        Self(_mm256_setzero_ps())
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        Self(_mm256_set1_ps(x))
    }
    #[inline(always)]
    unsafe fn load(ptr: *const f32) -> Self {
        Self(_mm256_loadu_ps(ptr))
    }
    #[inline(always)]
    unsafe fn store(self, ptr: *mut f32) {
        _mm256_storeu_ps(ptr, self.0)
    }
    #[inline(always)]
    unsafe fn fma(self, b: Self, acc: Self) -> Self {
        Self(_mm256_fmadd_ps(self.0, b.0, acc.0))
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        Self(_mm256_add_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        Self(_mm256_sub_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        Self(_mm256_mul_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn div(self, b: Self) -> Self {
        Self(_mm256_div_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn max(self, b: Self) -> Self {
        Self(_mm256_max_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn min(self, b: Self) -> Self {
        Self(_mm256_min_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn index_stride(stride: usize) -> Self::Index {
        _mm256_mullo_epi32(
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            _mm256_set1_epi32(stride as i32),
        )
    }
    #[inline(always)]
    unsafe fn gather(base: *const f32, index: Self::Index) -> Self {
        Self(_mm256_i32gather_ps::<4>(base, index))
    }
}

/// One 512-bit vector: 16 `f32` lanes (AVX-512F).
#[derive(Clone, Copy)]
pub(crate) struct F32x16(__m512);

impl SimdF32 for F32x16 {
    const LANES: usize = 16;
    type Index = __m512i;

    #[inline(always)]
    unsafe fn zero() -> Self {
        Self(_mm512_setzero_ps())
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        Self(_mm512_set1_ps(x))
    }
    #[inline(always)]
    unsafe fn load(ptr: *const f32) -> Self {
        Self(_mm512_loadu_ps(ptr))
    }
    #[inline(always)]
    unsafe fn store(self, ptr: *mut f32) {
        _mm512_storeu_ps(ptr, self.0)
    }
    #[inline(always)]
    unsafe fn fma(self, b: Self, acc: Self) -> Self {
        Self(_mm512_fmadd_ps(self.0, b.0, acc.0))
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        Self(_mm512_add_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        Self(_mm512_sub_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        Self(_mm512_mul_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn div(self, b: Self) -> Self {
        Self(_mm512_div_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn max(self, b: Self) -> Self {
        Self(_mm512_max_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn min(self, b: Self) -> Self {
        Self(_mm512_min_ps(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn index_stride(stride: usize) -> Self::Index {
        _mm512_mullo_epi32(
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
            _mm512_set1_epi32(stride as i32),
        )
    }
    #[inline(always)]
    unsafe fn gather(base: *const f32, index: Self::Index) -> Self {
        Self(_mm512_i32gather_ps::<4>(index, base))
    }
}

/// One scalar hardware FMA for builds without the `fma` target feature —
/// the runtime branch of [`crate::fused_mul_add`].
///
/// # Safety
///
/// The CPU must support FMA (callers gate on `fma_available`).
#[target_feature(enable = "fma")]
pub(crate) unsafe fn fma_scalar(a: f32, b: f32, acc: f32) -> f32 {
    a.mul_add(b, acc)
}

// ---------------------------------------------------------------------------
// Explicit-SIMD tile wrappers.
//
// Each pair is one `#[target_feature]` instantiation of a generic kernel
// body plus the safe entry the dispatch table stores. AVX2 runs a 6 x (2*8)
// tile (12 accumulator + 2 B + 1 broadcast = 15 of 16 ymm registers);
// AVX-512 runs 14 x (2*16) (28 + 2 + 1 = 31 of 32 zmm registers).

/// AVX2 micro-tile rows.
const AVX2_MR: usize = 6;
/// AVX2 micro-tile columns (2 x 8 lanes).
const AVX2_NR: usize = 16;
/// AVX-512 micro-tile rows.
const AVX512_MR: usize = 14;
/// AVX-512 micro-tile columns (2 x 16 lanes).
const AVX512_NR: usize = 32;

#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_avx2(
    panel_a: &[f32],
    panel_b: &[f32],
    kc: usize,
    c: &mut [f32],
    c_offset: usize,
    ldc: usize,
    height: usize,
    width: usize,
    abs_row: usize,
    pass: TilePass<'_>,
) {
    tile_kernel::<F32x8, AVX2_MR, 2>(
        panel_a, panel_b, kc, c, c_offset, ldc, height, width, abs_row, pass,
    )
}

#[allow(clippy::too_many_arguments)]
fn micro_avx2_entry(
    panel_a: &[f32],
    panel_b: &[f32],
    kc: usize,
    c: &mut [f32],
    c_offset: usize,
    ldc: usize,
    height: usize,
    width: usize,
    abs_row: usize,
    pass: TilePass<'_>,
) {
    // SAFETY: stored only in the AVX2 table, selected after detection.
    unsafe {
        micro_avx2(
            panel_a, panel_b, kc, c, c_offset, ldc, height, width, abs_row, pass,
        )
    }
}

#[target_feature(enable = "avx512f,avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_avx512(
    panel_a: &[f32],
    panel_b: &[f32],
    kc: usize,
    c: &mut [f32],
    c_offset: usize,
    ldc: usize,
    height: usize,
    width: usize,
    abs_row: usize,
    pass: TilePass<'_>,
) {
    tile_kernel::<F32x16, AVX512_MR, 2>(
        panel_a, panel_b, kc, c, c_offset, ldc, height, width, abs_row, pass,
    )
}

#[allow(clippy::too_many_arguments)]
fn micro_avx512_entry(
    panel_a: &[f32],
    panel_b: &[f32],
    kc: usize,
    c: &mut [f32],
    c_offset: usize,
    ldc: usize,
    height: usize,
    width: usize,
    abs_row: usize,
    pass: TilePass<'_>,
) {
    // SAFETY: stored only in the AVX-512 table, selected after detection.
    unsafe {
        micro_avx512(
            panel_a, panel_b, kc, c, c_offset, ldc, height, width, abs_row, pass,
        )
    }
}

#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemv_avx2(
    trans_b: bool,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    epilogue: Epilogue<'_>,
) {
    gemv_kernel::<F32x8>(trans_b, n, k, alpha, a, b, beta, c, epilogue)
}

#[allow(clippy::too_many_arguments)]
fn gemv_avx2_entry(
    trans_b: bool,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    epilogue: Epilogue<'_>,
) {
    // SAFETY: stored only in the AVX2 table, selected after detection.
    unsafe { gemv_avx2(trans_b, n, k, alpha, a, b, beta, c, epilogue) }
}

#[target_feature(enable = "avx512f,avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemv_avx512(
    trans_b: bool,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    epilogue: Epilogue<'_>,
) {
    gemv_kernel::<F32x16>(trans_b, n, k, alpha, a, b, beta, c, epilogue)
}

#[allow(clippy::too_many_arguments)]
fn gemv_avx512_entry(
    trans_b: bool,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    epilogue: Epilogue<'_>,
) {
    // SAFETY: stored only in the AVX-512 table, selected after detection.
    unsafe { gemv_avx512(trans_b, n, k, alpha, a, b, beta, c, epilogue) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn depthwise_avx2(sweep: &DepthwiseSweep<'_>, out: &mut [f32]) {
    depthwise_kernel::<F32x8>(sweep, out)
}

fn depthwise_avx2_entry(sweep: &DepthwiseSweep<'_>, out: &mut [f32]) {
    // SAFETY: stored only in the AVX2 table, selected after detection.
    unsafe { depthwise_avx2(sweep, out) }
}

#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn depthwise_avx512(sweep: &DepthwiseSweep<'_>, out: &mut [f32]) {
    depthwise_kernel::<F32x16>(sweep, out)
}

fn depthwise_avx512_entry(sweep: &DepthwiseSweep<'_>, out: &mut [f32]) {
    // SAFETY: stored only in the AVX-512 table, selected after detection.
    unsafe { depthwise_avx512(sweep, out) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn sub_avx2(xs: &mut [f32], s: f32) {
    sub_kernel::<F32x8>(xs, s)
}

fn sub_avx2_entry(xs: &mut [f32], s: f32) {
    // SAFETY: stored only in the AVX2 table, selected after detection.
    unsafe { sub_avx2(xs, s) }
}

#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn sub_avx512(xs: &mut [f32], s: f32) {
    sub_kernel::<F32x16>(xs, s)
}

fn sub_avx512_entry(xs: &mut [f32], s: f32) {
    // SAFETY: stored only in the AVX-512 table, selected after detection.
    unsafe { sub_avx512(xs, s) }
}

// ---------------------------------------------------------------------------
// Feature-enabled re-instantiations of the scalar 4 x 24 tile.
//
// A portable (no `target-cpu=native`) build compiles `fused_mul_add` without
// the `fma` feature, but the machine may still have the unit. These
// wrappers re-instantiate the *same* scalar kernel bodies with the detected
// features enabled, so `f32::mul_add` lowers to `vfmadd` and LLVM
// autovectorises the tile exactly as a native build would — and the bits
// match the explicit-SIMD paths (all correctly-rounded FMA chains).

#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_scalar_avx2_fma(
    panel_a: &[f32],
    panel_b: &[f32],
    kc: usize,
    c: &mut [f32],
    c_offset: usize,
    ldc: usize,
    height: usize,
    width: usize,
    abs_row: usize,
    pass: TilePass<'_>,
) {
    micro_kernel_impl::<true>(
        panel_a, panel_b, kc, c, c_offset, ldc, height, width, abs_row, pass,
    )
}

#[allow(clippy::too_many_arguments)]
fn micro_scalar_avx2_fma_entry(
    panel_a: &[f32],
    panel_b: &[f32],
    kc: usize,
    c: &mut [f32],
    c_offset: usize,
    ldc: usize,
    height: usize,
    width: usize,
    abs_row: usize,
    pass: TilePass<'_>,
) {
    // SAFETY: stored only in SCALAR_AVX2_FMA, selected after detection.
    unsafe {
        micro_scalar_avx2_fma(
            panel_a, panel_b, kc, c, c_offset, ldc, height, width, abs_row, pass,
        )
    }
}

#[target_feature(enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_scalar_fma(
    panel_a: &[f32],
    panel_b: &[f32],
    kc: usize,
    c: &mut [f32],
    c_offset: usize,
    ldc: usize,
    height: usize,
    width: usize,
    abs_row: usize,
    pass: TilePass<'_>,
) {
    micro_kernel_impl::<true>(
        panel_a, panel_b, kc, c, c_offset, ldc, height, width, abs_row, pass,
    )
}

#[allow(clippy::too_many_arguments)]
fn micro_scalar_fma_entry(
    panel_a: &[f32],
    panel_b: &[f32],
    kc: usize,
    c: &mut [f32],
    c_offset: usize,
    ldc: usize,
    height: usize,
    width: usize,
    abs_row: usize,
    pass: TilePass<'_>,
) {
    // SAFETY: stored only in SCALAR_FMA, selected after detection.
    unsafe {
        micro_scalar_fma(
            panel_a, panel_b, kc, c, c_offset, ldc, height, width, abs_row, pass,
        )
    }
}

#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemv_scalar_avx2_fma(
    trans_b: bool,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    epilogue: Epilogue<'_>,
) {
    gemv_row_impl::<true>(trans_b, n, k, alpha, a, b, beta, c, epilogue)
}

#[allow(clippy::too_many_arguments)]
fn gemv_scalar_avx2_fma_entry(
    trans_b: bool,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    epilogue: Epilogue<'_>,
) {
    // SAFETY: stored only in SCALAR_AVX2_FMA, selected after detection.
    unsafe { gemv_scalar_avx2_fma(trans_b, n, k, alpha, a, b, beta, c, epilogue) }
}

#[target_feature(enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemv_scalar_fma(
    trans_b: bool,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    epilogue: Epilogue<'_>,
) {
    gemv_row_impl::<true>(trans_b, n, k, alpha, a, b, beta, c, epilogue)
}

#[allow(clippy::too_many_arguments)]
fn gemv_scalar_fma_entry(
    trans_b: bool,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    epilogue: Epilogue<'_>,
) {
    // SAFETY: stored only in SCALAR_FMA, selected after detection.
    unsafe { gemv_scalar_fma(trans_b, n, k, alpha, a, b, beta, c, epilogue) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn depthwise_scalar_avx2_fma(sweep: &DepthwiseSweep<'_>, out: &mut [f32]) {
    depthwise_sweep_impl::<true>(sweep, out)
}

fn depthwise_scalar_avx2_fma_entry(sweep: &DepthwiseSweep<'_>, out: &mut [f32]) {
    // SAFETY: stored only in SCALAR_AVX2_FMA, selected after detection.
    unsafe { depthwise_scalar_avx2_fma(sweep, out) }
}

#[target_feature(enable = "fma")]
unsafe fn depthwise_scalar_fma(sweep: &DepthwiseSweep<'_>, out: &mut [f32]) {
    depthwise_sweep_impl::<true>(sweep, out)
}

fn depthwise_scalar_fma_entry(sweep: &DepthwiseSweep<'_>, out: &mut [f32]) {
    // SAFETY: stored only in SCALAR_FMA, selected after detection.
    unsafe { depthwise_scalar_fma(sweep, out) }
}

// ---------------------------------------------------------------------------
// Dispatch tables.

/// The explicit AVX2 path.
pub(crate) static AVX2: Kernels = Kernels {
    isa: Isa::Avx2,
    mr: AVX2_MR,
    nr: AVX2_NR,
    mc: 126, // 21 tiles of 6 rows, ~= the scalar path's 128-row block
    min_macs_per_thread: AVX2_MIN_MACS,
    micro: micro_avx2_entry,
    gemv: gemv_avx2_entry,
    depthwise: depthwise_avx2_entry,
    sub: sub_avx2_entry,
};

/// The explicit AVX-512 path.
pub(crate) static AVX512: Kernels = Kernels {
    isa: Isa::Avx512,
    mr: AVX512_MR,
    nr: AVX512_NR,
    mc: 140, // 10 tiles of 14 rows
    min_macs_per_thread: AVX512_MIN_MACS,
    micro: micro_avx512_entry,
    gemv: gemv_avx512_entry,
    depthwise: depthwise_avx512_entry,
    sub: sub_avx512_entry,
};

/// The scalar path recompiled with AVX2 + FMA enabled, for portable builds
/// running on AVX2 hardware.
pub(crate) static SCALAR_AVX2_FMA: Kernels = Kernels {
    isa: Isa::Scalar,
    mr: MR,
    nr: NR,
    mc: MC,
    min_macs_per_thread: SCALAR_MIN_MACS,
    micro: micro_scalar_avx2_fma_entry,
    gemv: gemv_scalar_avx2_fma_entry,
    depthwise: depthwise_scalar_avx2_fma_entry,
    sub: super::sub_scalar,
};

/// The scalar path recompiled with only FMA enabled, for the rare FMA-but-
/// not-AVX2 machines (e.g. AMD Piledriver).
pub(crate) static SCALAR_FMA: Kernels = Kernels {
    isa: Isa::Scalar,
    mr: MR,
    nr: NR,
    mc: MC,
    min_macs_per_thread: SCALAR_MIN_MACS,
    micro: micro_scalar_fma_entry,
    gemv: gemv_scalar_fma_entry,
    depthwise: depthwise_scalar_fma_entry,
    sub: super::sub_scalar,
};
