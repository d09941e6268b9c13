//! The ISA-generic vector abstraction and the generic kernel bodies built
//! on it.
//!
//! [`SimdF32`] exposes the minimal lane-wise operation set the kernels
//! need: splat/load/store, fused multiply-add, add/sub/mul/div, min/max and
//! a strided gather. Every operation maps one lane to exactly one scalar
//! IEEE-754 operation with identical rounding, so a vectorised loop is
//! bit-identical to the scalar loop it replaces as long as it evaluates the
//! same expressions in the same per-element order — the rule every kernel
//! body in this module follows. The two deliberate exceptions stay scalar
//! even on the SIMD paths: the logistic sigmoid (libm `exp`, which has no
//! exact vector form) and the backward gradient mask (whose derivatives
//! branch per element).
//!
//! The generic bodies ([`tile_kernel`], [`gemv_kernel`],
//! [`depthwise_kernel`], [`sub_kernel`])
//! are `#[inline(always)]` and only ever instantiated inside
//! `#[target_feature]` wrappers in the `x86` module, so the trait methods
//! compile down to single instructions with the wrapper's feature set.

use crate::conv::{tap_offset, DepthwiseSweep, SWEEP_SLACK};
use crate::kernels::{fma_step, scale_c, BiasAxis, Epilogue, EpilogueActivation, TilePass};

/// Widest micro-tile row any dispatch path writes (AVX-512: 2 × 16 lanes);
/// sizes the stack spill buffer used by the scalar-sigmoid write-back.
const MAX_NR: usize = 32;

/// Largest micro-tile any dispatch path computes (AVX-512: 14 × 32); sizes
/// the zero-padded stack tile used for partial edge tiles. (Const-generic
/// arithmetic cannot size arrays on stable Rust, so every path shares the
/// maximal buffer — 1.75 KiB of stack.)
const MAX_TILE: usize = 14 * MAX_NR;

/// One SIMD vector of `f32` lanes.
///
/// # Safety
///
/// Every method may only execute on a CPU with the implementing type's
/// instruction set; the dispatch tables guarantee this by construction
/// (they are selected only after `is_x86_feature_detected!` succeeds).
pub(crate) trait SimdF32: Copy {
    /// Lane count.
    const LANES: usize;
    /// Precomputed gather index vector (lane `l` reads offset `l * stride`).
    type Index: Copy;

    /// All-zero lanes.
    unsafe fn zero() -> Self;
    /// Broadcasts one value to every lane.
    unsafe fn splat(x: f32) -> Self;
    /// Unaligned load of `LANES` consecutive values.
    unsafe fn load(ptr: *const f32) -> Self;
    /// Unaligned store of `LANES` consecutive values.
    unsafe fn store(self, ptr: *mut f32);
    /// Lane-wise `self * b + acc` with a single rounding.
    unsafe fn fma(self, b: Self, acc: Self) -> Self;
    /// Lane-wise addition.
    unsafe fn add(self, b: Self) -> Self;
    /// Lane-wise subtraction.
    unsafe fn sub(self, b: Self) -> Self;
    /// Lane-wise multiplication.
    unsafe fn mul(self, b: Self) -> Self;
    /// Lane-wise division.
    unsafe fn div(self, b: Self) -> Self;
    /// Lane-wise maximum.
    unsafe fn max(self, b: Self) -> Self;
    /// Lane-wise minimum.
    unsafe fn min(self, b: Self) -> Self;
    /// Builds the index vector for [`SimdF32::gather`] with element stride
    /// `stride`.
    unsafe fn index_stride(stride: usize) -> Self::Index;
    /// Gathers lane `l` from `base[l * stride]`.
    unsafe fn gather(base: *const f32, index: Self::Index) -> Self;
}

/// The generic register-tiled micro-kernel: an `RT x (CT * LANES)` tile
/// accumulated over a whole `kc` slice, with the same accumulation chain,
/// spill/reload behaviour and fused write-back as the scalar
/// `micro_kernel` in `kernels.rs`. Partial edge tiles run [`padded_tile`],
/// the same full-width vector kernel against a zero-padded stack tile.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) unsafe fn tile_kernel<V: SimdF32, const RT: usize, const CT: usize>(
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
    let nr = CT * V::LANES;
    debug_assert!(nr <= MAX_NR);
    debug_assert!(panel_a.len() >= kc * RT);
    debug_assert!(panel_b.len() >= kc * nr);
    if height < RT || width < nr {
        padded_tile::<V, RT, CT>(
            panel_a, panel_b, kc, c, c_offset, ldc, height, width, abs_row, pass,
        );
        return;
    }
    debug_assert!(c.len() >= c_offset + (RT - 1) * ldc + nr);
    // Accumulator init: beta * C on the first K block (beta == 0 never
    // reads C), reload of the spilled partials afterwards — the same chain
    // heads as the scalar kernel, multiplication lane-exact.
    let mut acc = [[V::zero(); CT]; RT];
    if pass.first_k_block {
        if pass.beta != 0.0 {
            let beta = V::splat(pass.beta);
            for (i, row) in acc.iter_mut().enumerate() {
                for (j, slot) in row.iter_mut().enumerate() {
                    *slot = beta.mul(V::load(c.as_ptr().add(c_offset + i * ldc + j * V::LANES)));
                }
            }
        }
    } else {
        for (i, row) in acc.iter_mut().enumerate() {
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = V::load(c.as_ptr().add(c_offset + i * ldc + j * V::LANES));
            }
        }
    }
    let pa = panel_a.as_ptr();
    let pb = panel_b.as_ptr();
    for p in 0..kc {
        let mut b_vecs = [V::zero(); CT];
        for (j, slot) in b_vecs.iter_mut().enumerate() {
            *slot = V::load(pb.add(p * nr + j * V::LANES));
        }
        for (i, row) in acc.iter_mut().enumerate() {
            let a_value = V::splat(*pa.add(p * RT + i));
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = a_value.fma(b_vecs[j], *slot);
            }
        }
    }
    // Fused write-back, firing only on the final K block (the drivers
    // populate `pass.norm/activation/mask` only there). The gradient mask
    // and the sigmoid evaluate their scalar expressions per element — the
    // tile spills to a stack buffer first — every other transform maps
    // lane-exact onto vector ops in the scalar evaluation order.
    if let Some(mask) = pass.mask {
        let mut buf = [0.0f32; MAX_NR];
        for (i, row) in acc.iter().enumerate() {
            for (j, &value) in row.iter().enumerate() {
                value.store(buf.as_mut_ptr().add(j * V::LANES));
            }
            let base = c_offset + i * ldc;
            for (j, &x) in buf.iter().enumerate().take(nr) {
                c[base + j] = x * mask.grad.derivative(mask.input[base + j]);
            }
        }
        return;
    }
    match (pass.norm, pass.activation) {
        (None, None) => {
            for (i, row) in acc.iter().enumerate() {
                for (j, &value) in row.iter().enumerate() {
                    value.store(c.as_mut_ptr().add(c_offset + i * ldc + j * V::LANES));
                }
            }
        }
        (None, Some(EpilogueActivation::Sigmoid)) => {
            let mut buf = [0.0f32; MAX_NR];
            for (i, row) in acc.iter().enumerate() {
                for (j, &value) in row.iter().enumerate() {
                    value.store(buf.as_mut_ptr().add(j * V::LANES));
                }
                let base = c_offset + i * ldc;
                for (j, &x) in buf.iter().enumerate().take(nr) {
                    c[base + j] = EpilogueActivation::Sigmoid.apply(x);
                }
            }
        }
        (None, Some(act)) => {
            for (i, row) in acc.iter().enumerate() {
                for (j, &value) in row.iter().enumerate() {
                    act_vec::<V>(value, act)
                        .store(c.as_mut_ptr().add(c_offset + i * ldc + j * V::LANES));
                }
            }
        }
        (Some(nm), act) => {
            let mut buf = [0.0f32; MAX_NR];
            for (i, row) in acc.iter().enumerate() {
                // Hoist the row's channel constants like the scalar kernel;
                // the vector transform mirrors `NormParams::transform`'s
                // operation order exactly: sub, mul, mul, add.
                let params = nm.params(abs_row + i);
                let gamma = V::splat(params.gamma);
                let mean = V::splat(params.mean);
                let inv = V::splat(params.inv);
                let shift = V::splat(params.beta);
                for (j, &value) in row.iter().enumerate() {
                    let normed = gamma.mul(value.sub(mean)).mul(inv).add(shift);
                    let dst = c.as_mut_ptr().add(c_offset + i * ldc + j * V::LANES);
                    match act {
                        None => normed.store(dst),
                        Some(EpilogueActivation::Sigmoid) => {
                            normed.store(buf.as_mut_ptr().add(j * V::LANES))
                        }
                        Some(act) => act_vec::<V>(normed, act).store(dst),
                    }
                }
                if act == Some(EpilogueActivation::Sigmoid) {
                    let base = c_offset + i * ldc;
                    for (j, &x) in buf.iter().enumerate().take(nr) {
                        c[base + j] = EpilogueActivation::Sigmoid.apply(x);
                    }
                }
            }
        }
    }
}

/// The vector form of [`EpilogueActivation::apply`] for the activations
/// whose scalar expressions map lane-exact onto vector ops (everything but
/// the sigmoid, which the callers special-case to a scalar loop):
///
/// * ReLU: `max(x, 0)`,
/// * hard sigmoid: `min(max((x + 3) / 6, 0), 1)` — the exact `clamp`
///   sequence for the finite values a GEMM accumulator produces,
/// * hard swish: `x * hard_sigmoid(x)`.
#[inline(always)]
unsafe fn act_vec<V: SimdF32>(x: V, act: EpilogueActivation) -> V {
    match act {
        EpilogueActivation::Relu => x.max(V::splat(0.0)),
        EpilogueActivation::HardSigmoid => hard_sigmoid_vec(x),
        EpilogueActivation::HardSwish => x.mul(hard_sigmoid_vec(x)),
        EpilogueActivation::Sigmoid => unreachable!("sigmoid write-back stays scalar"),
    }
}

/// `clamp((x + 3) / 6, 0, 1)` lane-wise, mirroring the scalar helper.
#[inline(always)]
unsafe fn hard_sigmoid_vec<V: SimdF32>(x: V) -> V {
    x.add(V::splat(3.0))
        .div(V::splat(6.0))
        .max(V::splat(0.0))
        .min(V::splat(1.0))
}

/// Partial edge tiles (`height < RT` or `width < nr`): runs the *same*
/// full-size vector accumulation as the interior path against a zero-padded
/// stack tile, then writes the valid `height x width` region back with the
/// scalar epilogue expressions.
///
/// Bit-exactness: the valid region's chain heads are seeded exactly as the
/// interior path seeds them (`beta * C`, reload, or zero), the `kc` loop
/// executes the identical lane-wise FMA chain, and the packed panels are
/// zero-filled past `height`/`width` (see `pack_a`/`pack_b`), so padding
/// lanes only ever accumulate zeros and the valid lanes never see them. The
/// scalar epilogue expressions are lane-exact equal to their vector forms
/// by construction. Keeping edge tiles on the vector kernel (at the cost of
/// computing the padding lanes) is what stops short-`m` GEMMs — grouped
/// convolutions especially — from collapsing onto a per-element loop.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn padded_tile<V: SimdF32, const RT: usize, const CT: usize>(
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
    let nr = CT * V::LANES;
    debug_assert!(RT * nr <= MAX_TILE);
    let mut tile = [0.0f32; MAX_TILE];
    // Seed the valid region's chain heads; the padding stays zero. Partial
    // sums spilled between K blocks live in `c` for the valid region only,
    // so padding lanes restart from zero each block — they are never read.
    if pass.first_k_block {
        if pass.beta != 0.0 {
            for i in 0..height {
                for j in 0..width {
                    tile[i * nr + j] = pass.beta * c[c_offset + i * ldc + j];
                }
            }
        }
    } else {
        for i in 0..height {
            for j in 0..width {
                tile[i * nr + j] = c[c_offset + i * ldc + j];
            }
        }
    }
    let mut acc = [[V::zero(); CT]; RT];
    for (i, row) in acc.iter_mut().enumerate() {
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = V::load(tile.as_ptr().add(i * nr + j * V::LANES));
        }
    }
    let pa = panel_a.as_ptr();
    let pb = panel_b.as_ptr();
    for p in 0..kc {
        let mut b_vecs = [V::zero(); CT];
        for (j, slot) in b_vecs.iter_mut().enumerate() {
            *slot = V::load(pb.add(p * nr + j * V::LANES));
        }
        for (i, row) in acc.iter_mut().enumerate() {
            let a_value = V::splat(*pa.add(p * RT + i));
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = a_value.fma(b_vecs[j], *slot);
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        for (j, &value) in row.iter().enumerate() {
            value.store(tile.as_mut_ptr().add(i * nr + j * V::LANES));
        }
    }
    // Scalar write-back of the valid region with the fused transforms —
    // lane-exact equal to the vector write-back the interior path uses.
    for i in 0..height {
        let norm = pass.norm.map(|nm| nm.params(abs_row + i));
        for j in 0..width {
            let index = c_offset + i * ldc + j;
            let mut acc = tile[i * nr + j];
            if let Some(mask) = pass.mask {
                acc *= mask.grad.derivative(mask.input[index]);
            } else {
                if let Some(params) = norm {
                    acc = params.transform(acc);
                }
                if let Some(act) = pass.activation {
                    acc = act.apply(acc);
                }
            }
            c[index] = acc;
        }
    }
}

/// The generic `m == 1` GEMV: identical per-element chains to the scalar
/// `gemv_row` (chain head from bias or `beta * C`, ascending-`k`
/// accumulation, fused transforms once at the end), with the lane loops
/// vectorised. `trans_b == false` sweeps contiguous rows of `B` (vector
/// axpy); `trans_b == true` gives each lane one output's contiguous
/// dot-product row via a strided gather.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) unsafe fn gemv_kernel<V: SimdF32>(
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
    match epilogue.bias() {
        Some(bias) => match bias.axis {
            BiasAxis::Row => c.fill(bias.values[0]),
            BiasAxis::Col => c.copy_from_slice(bias.values),
        },
        None => scale_c(c, beta),
    }
    if trans_b {
        // Stored B is n x k: output j accumulates b[j * k + p] over p; lane
        // l of a vector block owns output j + l, gathering with stride k.
        let index = V::index_stride(k);
        let mut j = 0;
        while j + V::LANES <= n {
            let mut acc = V::load(c.as_ptr().add(j));
            let base = b.as_ptr().add(j * k);
            for (p, &ap) in a.iter().enumerate() {
                let av = V::splat(alpha * ap);
                acc = av.fma(V::gather(base.add(p), index), acc);
            }
            acc.store(c.as_mut_ptr().add(j));
            j += V::LANES;
        }
        for (offset, slot) in c[j..].iter_mut().enumerate() {
            let row = &b[(j + offset) * k..][..k];
            let mut acc = *slot;
            for (p, &ap) in a.iter().enumerate() {
                acc = fma_step::<true>(alpha * ap, row[p], acc);
            }
            *slot = acc;
        }
    } else {
        // Stored B is k x n: one vector axpy over the outputs per p, each
        // element's chain still ascending in p.
        for (p, &ap) in a.iter().enumerate() {
            let av = alpha * ap;
            let row = &b[p * n..][..n];
            let avv = V::splat(av);
            let mut j = 0;
            while j + V::LANES <= n {
                let acc = avv.fma(V::load(row.as_ptr().add(j)), V::load(c.as_ptr().add(j)));
                acc.store(c.as_mut_ptr().add(j));
                j += V::LANES;
            }
            for (slot, &bv) in c[j..].iter_mut().zip(&row[j..]) {
                *slot = fma_step::<true>(av, bv, *slot);
            }
        }
    }
    if let Some(mask) = epilogue.mask() {
        for (slot, &x) in c.iter_mut().zip(mask.input) {
            *slot *= mask.grad.derivative(x);
        }
        return;
    }
    // Fused transforms; the single row is channel 0 for a norm. Applying
    // the norm sweep and then the activation sweep composes to the same
    // per-element value chain as the scalar one-pass loop.
    let norm = epilogue.norm().map(|nm| nm.params(0));
    if let Some(params) = norm {
        let gamma = V::splat(params.gamma);
        let mean = V::splat(params.mean);
        let inv = V::splat(params.inv);
        let shift = V::splat(params.beta);
        let mut j = 0;
        while j + V::LANES <= n {
            let x = V::load(c.as_ptr().add(j));
            gamma
                .mul(x.sub(mean))
                .mul(inv)
                .add(shift)
                .store(c.as_mut_ptr().add(j));
            j += V::LANES;
        }
        for x in c[j..].iter_mut() {
            *x = params.transform(*x);
        }
    }
    if let Some(act) = epilogue.activation() {
        activation_slice::<V>(c, act);
    }
}

/// The generic depthwise sweep: the chain of `depthwise_sweep` in
/// `conv.rs` for every wide output, one vector of outputs at a time with
/// the accumulator held in a register across all taps (bias head, taps in
/// ascending `(ky, kx)`, norm, activation). The 3x3 stride-1 and stride-2
/// kernels of the paper's models get constant-folded copies.
#[inline(always)]
pub(crate) unsafe fn depthwise_kernel<V: SimdF32>(sweep: &DepthwiseSweep<'_>, out: &mut [f32]) {
    sweep.check(out.len());
    assert!(SWEEP_SLACK.is_multiple_of(V::LANES));
    match (sweep.kernel, sweep.stride) {
        (3, 1) => depthwise_body::<V>(sweep, out, 3, 1),
        (3, 2) => depthwise_body::<V>(sweep, out, 3, 2),
        (k, s) => depthwise_body::<V>(sweep, out, k, s),
    }
}

#[inline(always)]
unsafe fn depthwise_body<V: SimdF32>(
    sweep: &DepthwiseSweep<'_>,
    out: &mut [f32],
    k: usize,
    s: usize,
) {
    let n = out.len();
    let planes = sweep.planes.as_ptr();
    let head = V::splat(sweep.head);
    let vector_act = sweep
        .activation
        .filter(|&act| act != EpilogueActivation::Sigmoid);
    // Every load stays inside `planes` and every block inside `out`:
    // `check` bounds the largest tap offset plus `n`, and `n` is a whole
    // number of 16-lane blocks.
    let mut q = 0;
    while q < n {
        let mut acc = head;
        for ky in 0..k {
            for kx in 0..k {
                let off = tap_offset(ky, kx, s, sweep.plane_len, sweep.row_len);
                acc = V::splat(sweep.taps[ky * k + kx]).fma(V::load(planes.add(off + q)), acc);
            }
        }
        if let Some(params) = sweep.norm {
            acc = V::splat(params.gamma)
                .mul(acc.sub(V::splat(params.mean)))
                .mul(V::splat(params.inv))
                .add(V::splat(params.beta));
        }
        if let Some(act) = vector_act {
            acc = act_vec::<V>(acc, act);
        }
        acc.store(out.as_mut_ptr().add(q));
        q += V::LANES;
    }
    if sweep.activation == Some(EpilogueActivation::Sigmoid) {
        activation_slice::<V>(out, EpilogueActivation::Sigmoid);
    }
}

/// Applies one activation over a whole slice: vector blocks plus a scalar
/// tail for the exactly-mappable activations, a pure scalar loop for the
/// sigmoid.
#[inline(always)]
pub(crate) unsafe fn activation_slice<V: SimdF32>(xs: &mut [f32], act: EpilogueActivation) {
    if act == EpilogueActivation::Sigmoid {
        for x in xs.iter_mut() {
            *x = act.apply(*x);
        }
        return;
    }
    let n = xs.len();
    let mut j = 0;
    while j + V::LANES <= n {
        let ptr = xs.as_mut_ptr().add(j);
        act_vec::<V>(V::load(ptr), act).store(ptr);
        j += V::LANES;
    }
    for x in xs[j..].iter_mut() {
        *x = act.apply(*x);
    }
}

/// Subtracts `s` from every element — vector blocks plus scalar tail, exact
/// per element (the log-softmax shift passes).
#[inline(always)]
pub(crate) unsafe fn sub_kernel<V: SimdF32>(xs: &mut [f32], s: f32) {
    let sv = V::splat(s);
    let n = xs.len();
    let mut j = 0;
    while j + V::LANES <= n {
        let ptr = xs.as_mut_ptr().add(j);
        V::load(ptr).sub(sv).store(ptr);
        j += V::LANES;
    }
    for x in xs[j..].iter_mut() {
        *x -= s;
    }
}
