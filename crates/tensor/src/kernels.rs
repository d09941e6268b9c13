//! The packed, cache-blocked SGEMM every forward and backward pass runs on.
//!
//! # Design
//!
//! [`sgemm`] computes `C = alpha * op(A) * op(B) + beta * C` for row-major
//! `f32` matrices, following the classic three-level blocking scheme (as in
//! BLIS/GotoBLAS):
//!
//! * the `N` dimension is split into `NC`-wide column blocks,
//! * the `K` dimension into `KC`-deep slices — each `KC x NC` block of `B`
//!   is packed once into NR-wide column panels,
//! * the `M` dimension into `MC`-tall row blocks — each `MC x KC` block of
//!   `A` is packed into MR-tall row panels (with `alpha` folded in),
//!
//! and a register-tiled `MR x NR` micro-kernel accumulates one output tile
//! over the whole `KC` slice without touching memory for `C` in its inner
//! loop. Packing both operands makes every micro-kernel read sequential,
//! keeps the working set inside the cache hierarchy, and handles the
//! transpose flags for free — callers never materialise a transposed copy.
//!
//! # Determinism contract
//!
//! Each output element `C[i][j]` is produced by exactly one accumulation
//! chain, in this exact order:
//!
//! ```text
//! acc = (beta == 0 ? 0 : beta * C[i][j])          // beta == 0 kills NaNs
//! for p in 0..k (ascending): acc += (alpha * A[i][p]) * B[p][j]
//! C[i][j] = acc
//! ```
//!
//! Cache blocking spills partial `acc` values to `C` between `KC` slices and
//! reloads them, which leaves the chain order unchanged; multi-threading
//! partitions *rows of `C`* only, so every element is written by exactly one
//! thread running exactly this chain. Results are therefore **bit-identical
//! for every thread count and every blocking configuration**, and for
//! `alpha == 1, beta == 0` they are bit-identical to the textbook naive
//! triple loop (the `#[cfg(test)]` oracle below enforces this to 0 ULP).
//!
//! # Fused epilogues
//!
//! [`sgemm_epilogue`] extends the kernel with a fused [`Epilogue`]: a bias
//! that *initialises* each accumulation chain (internally a `C` prefill
//! accumulated through `beta == 1` — the classic idiom, so the chain is
//! unchanged; on the `m == 1` GEMV path the bias is a true register init),
//! an optional per-row batch-norm, and an optional activation — the latter
//! two applied once in the final `K` block's write-back while the tile is
//! still in registers. Fusing removes the separate norm and activation
//! passes over `C` without perturbing a single bit — see [`Epilogue`] for
//! the full contract.

use crate::parallel::{partition_rows, threads_for_macs, Parallelism};
use crate::simd::Kernels;
use mtlsplit_obs as obs;

/// Rows of the scalar path's register tile (micro-panel height of packed
/// `A`). The SIMD dispatch paths use their own tile heights — see
/// [`crate::Isa`].
pub const MR: usize = 4;
/// Columns of the scalar path's register tile (micro-panel width of packed
/// `B`).
///
/// The `4 x 24` tile is tuned for 256-bit SIMD autovectorisation: twelve
/// independent 8-wide accumulator chains (enough to cover FMA latency at
/// two issues per cycle) fed by three packed-`B` loads and four packed-`A`
/// broadcasts per step, which keeps the load ports well under the FMA
/// issue rate while filling the 16-register file.
pub const NR: usize = 24;
/// Row-block size of the scalar path: `MC x KC` panels of `A` are packed to
/// stay cache-hot. The SIMD paths carry their own `mr`-aligned row-block
/// size in the dispatch table.
pub(crate) const MC: usize = 128;
/// Depth-block size: the shared `K` dimension is consumed `KC` at a time
/// (shared by every dispatch path).
const KC: usize = 256;
/// Column-block size: `KC x NC` panels of `B` are packed per depth block
/// (shared by every dispatch path).
const NC: usize = 512;

/// Whether this *build* accumulates with hardware fused multiply-add
/// unconditionally (x86-64 compiled with the `fma` target feature, or any
/// aarch64 target).
///
/// When this is `false` the kernels still use the hardware FMA unit if
/// runtime detection finds one — see [`fused_mul_add`] and
/// [`crate::fma_available`] — so a portable build and a
/// `target-cpu=native` build produce identical bits on the same machine.
pub const FUSED_MULTIPLY_ADD: bool = cfg!(any(target_feature = "fma", target_arch = "aarch64"));

/// The single accumulation step `acc + a * b` used by every kernel in this
/// crate.
///
/// The operation is a correctly-rounded fused multiply-add exactly when the
/// machine has one, regardless of how the binary was compiled:
///
/// * builds targeting hardware FMA ([`FUSED_MULTIPLY_ADD`]) use
///   `f32::mul_add` — one instruction, one rounding, the form LLVM
///   vectorises to `vfmadd`;
/// * portable builds on FMA hardware route through a one-off
///   `#[target_feature(enable = "fma")]` helper — the same instruction,
///   the same single rounding, so the same bits;
/// * machines without an FMA unit use the plain two-rounding
///   `acc + a * b`.
///
/// Within one machine every accumulation chain therefore uses exactly one
/// of the two semantics, which is what keeps all dispatch paths (scalar,
/// AVX2, AVX-512), the test oracle, and every vendored baseline bitwise
/// identical to each other for every thread count.
#[inline(always)]
pub fn fused_mul_add(a: f32, b: f32, acc: f32) -> f32 {
    if FUSED_MULTIPLY_ADD {
        a.mul_add(b, acc)
    } else if crate::simd::fma_available() {
        crate::simd::fma_single(a, b, acc)
    } else {
        acc + a * b
    }
}

/// The compile-time-selected accumulation step for kernel bodies that are
/// instantiated twice: once plainly (`FMA` = [`FUSED_MULTIPLY_ADD`]) and
/// once inside a `#[target_feature(enable = "fma")]` wrapper (`FMA` =
/// `true`), where the `mul_add` inlines to a hardware `vfmadd` and the
/// surrounding loops autovectorise. Keeping the choice a const generic —
/// rather than the runtime branch in [`fused_mul_add`] — is what lets LLVM
/// vectorise the accumulator tile.
#[inline(always)]
pub(crate) fn fma_step<const FMA: bool>(a: f32, b: f32, acc: f32) -> f32 {
    if FMA {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// The activation component of a fused [`Epilogue`], applied element-wise in
/// the micro-kernel's final write-back while the output tile is still in
/// registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EpilogueActivation {
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Logistic sigmoid, `1 / (1 + e^-x)`.
    Sigmoid,
    /// Hard sigmoid, `clamp((x + 3) / 6, 0, 1)`.
    HardSigmoid,
    /// Hard swish, `x * hard_sigmoid(x)`.
    HardSwish,
}

#[inline(always)]
fn hard_sigmoid(x: f32) -> f32 {
    ((x + 3.0) / 6.0).clamp(0.0, 1.0)
}

impl EpilogueActivation {
    /// Applies the activation to one value.
    ///
    /// This is byte-for-byte the same scalar expression the standalone
    /// activation layers evaluate, so a fused pass and an unfused
    /// GEMM-then-activation pass produce bit-identical outputs within one
    /// build.
    #[inline(always)]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            EpilogueActivation::Relu => x.max(0.0),
            EpilogueActivation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            EpilogueActivation::HardSigmoid => hard_sigmoid(x),
            EpilogueActivation::HardSwish => x * hard_sigmoid(x),
        }
    }
}

/// The derivative of an [`EpilogueActivation`], evaluated at the forward
/// input — the factor a training-time backward pass multiplies the incoming
/// gradient by.
///
/// Like [`EpilogueActivation::apply`], each arm is byte-for-byte the scalar
/// expression the standalone activation layers' backward passes evaluate, so
/// folding the mask into a GEMM write-back (see [`Epilogue::Mask`]) changes
/// no bits relative to the separate derivative-then-multiply passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationGrad {
    /// `1` where the input was positive, `0` elsewhere.
    Relu,
    /// `s(x) * (1 - s(x))` for the logistic sigmoid `s`.
    Sigmoid,
    /// `1/6` on the linear ramp of the hard sigmoid, `0` outside.
    HardSigmoid,
    /// The piecewise-linear hard-swish derivative.
    HardSwish,
}

impl ActivationGrad {
    /// Evaluates the derivative at one forward-input value.
    #[inline(always)]
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            ActivationGrad::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationGrad::Sigmoid => {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 - s)
            }
            ActivationGrad::HardSigmoid => {
                if x > -3.0 && x < 3.0 {
                    1.0 / 6.0
                } else {
                    0.0
                }
            }
            ActivationGrad::HardSwish => {
                if x <= -3.0 {
                    0.0
                } else if x >= 3.0 {
                    1.0
                } else {
                    (2.0 * x + 3.0) / 6.0
                }
            }
        }
    }
}

impl EpilogueActivation {
    /// The derivative that masks this activation's gradient in a backward
    /// pass.
    pub fn grad(self) -> ActivationGrad {
        match self {
            EpilogueActivation::Relu => ActivationGrad::Relu,
            EpilogueActivation::Sigmoid => ActivationGrad::Sigmoid,
            EpilogueActivation::HardSigmoid => ActivationGrad::HardSigmoid,
            EpilogueActivation::HardSwish => ActivationGrad::HardSwish,
        }
    }
}

/// An activation-gradient mask fused into a backward GEMM's write-back.
///
/// `input` is the activation layer's cached *forward input*, laid out
/// exactly like the GEMM output `C` (`m x n`, row-major): each written
/// element becomes `acc * grad.derivative(input[same position])`, which is
/// bit-identical to running the GEMM unfused and then the standalone
/// derivative-then-multiply activation backward pass over its result.
#[derive(Debug, Clone, Copy)]
pub struct GradMask<'a> {
    /// The forward input of the activation being differentiated, aligned
    /// element-for-element with the GEMM output.
    pub input: &'a [f32],
    /// Which activation's derivative to evaluate.
    pub grad: ActivationGrad,
}

/// One channel's hoisted normalisation constants — see
/// [`ChannelNorm::params`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NormParams {
    /// Learned scale.
    pub gamma: f32,
    /// Running mean.
    pub mean: f32,
    /// `1 / sqrt(var + epsilon)`.
    pub inv: f32,
    /// Learned shift.
    pub beta: f32,
}

impl NormParams {
    /// Applies the normalisation — the exact `BatchNorm2d` inference
    /// expression.
    #[inline(always)]
    pub fn transform(self, x: f32) -> f32 {
        self.gamma * (x - self.mean) * self.inv + self.beta
    }
}

/// Per-channel batch-normalisation statistics fused into a GEMM epilogue.
///
/// [`ChannelNorm::apply`] evaluates exactly the inference-mode batch-norm
/// expression — `gamma * (x - mean) / sqrt(var + epsilon) + beta` with the
/// same operation order as the standalone `BatchNorm2d` pass — so fusing a
/// following batch-norm layer into the convolution's write-back changes no
/// bits, only removes a full read+write pass over the feature map.
#[derive(Debug, Clone, Copy)]
pub struct ChannelNorm<'a> {
    /// Learned per-channel scale.
    pub gamma: &'a [f32],
    /// Learned per-channel shift.
    pub beta: &'a [f32],
    /// Running per-channel mean.
    pub mean: &'a [f32],
    /// Running per-channel variance.
    pub var: &'a [f32],
    /// Variance stabiliser.
    pub epsilon: f32,
}

impl ChannelNorm<'_> {
    /// Normalises one value of `channel`.
    #[inline(always)]
    pub fn apply(&self, channel: usize, x: f32) -> f32 {
        self.params(channel).transform(x)
    }

    /// Hoists `channel`'s constants (including the `1 / sqrt(var + eps)`
    /// divide) out of an element loop. Reusing the returned value is
    /// bit-identical to recomputing it — it is a pure function of the same
    /// inputs — while saving a square root and a division per element.
    #[inline(always)]
    pub fn params(&self, channel: usize) -> NormParams {
        NormParams {
            gamma: self.gamma[channel],
            mean: self.mean[channel],
            inv: 1.0 / (self.var[channel] + self.epsilon).sqrt(),
            beta: self.beta[channel],
        }
    }

    /// Number of channels covered.
    pub fn channels(&self) -> usize {
        self.gamma.len()
    }

    /// Whether all four statistic slices cover exactly `channels` channels.
    pub fn covers(&self, channels: usize) -> bool {
        self.gamma.len() == channels
            && self.beta.len() == channels
            && self.mean.len() == channels
            && self.var.len() == channels
    }
}

/// Which axis of `C` a fused bias broadcasts along.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BiasAxis {
    /// One bias value per row of `C` (`values.len() == m`) — the convolution
    /// layout, where rows of a group's output are channels.
    Row,
    /// One bias value per column of `C` (`values.len() == n`) — the
    /// linear-layer layout, where columns are output features.
    Col,
}

/// A bias vector fused into a GEMM epilogue.
#[derive(Debug, Clone, Copy)]
pub struct Bias<'a> {
    /// The bias values: length `m` for [`BiasAxis::Row`], `n` for
    /// [`BiasAxis::Col`].
    pub values: &'a [f32],
    /// The axis the bias broadcasts along.
    pub axis: BiasAxis,
}

/// A transform fused into the GEMM's output write-back.
///
/// # Contract
///
/// The bias of a `Bias*` variant does **not** run after the accumulation: it
/// *initialises* each element's accumulation chain, exactly where the
/// `beta == 1` bias-prefill idiom it replaces put it:
///
/// ```text
/// acc = bias[broadcast]                            // instead of beta * C
/// for p in 0..k (ascending): acc += (alpha * A[i][p]) * B[p][j]
/// C[i][j] = activation(acc)                        // once, at the final store
/// ```
///
/// The activation is applied exactly once, in the final write-back of the
/// last `K` block, while the tile is still in registers. Both halves are
/// therefore **bit-identical** to the unfused reference (bias-prefilled
/// output + `beta == 1` GEMM + separate element-wise activation pass) for
/// every thread count — the chain per element is unchanged, only the number
/// of passes over memory shrinks.
///
/// A `Bias*` epilogue requires `beta == 0` (the prior contents of `C` have
/// no place in the chain above); [`sgemm_epilogue`] asserts this.
#[derive(Debug, Clone, Copy, Default)]
pub enum Epilogue<'a> {
    /// No fused transform: plain `C = alpha * op(A) * op(B) + beta * C`.
    #[default]
    None,
    /// Initialise each chain with a broadcast bias.
    Bias(Bias<'a>),
    /// Bias initialisation plus a fused ReLU in the write-back.
    BiasRelu(Bias<'a>),
    /// Bias initialisation plus a fused logistic sigmoid in the write-back.
    BiasSigmoid(Bias<'a>),
    /// Bias initialisation plus a fused hard sigmoid in the write-back.
    BiasHardSigmoid(Bias<'a>),
    /// Bias initialisation plus a fused hard swish in the write-back.
    BiasHardSwish(Bias<'a>),
    /// The convolution → batch-norm (→ activation) fusion: optional bias
    /// initialisation, per-*row* batch-norm statistics applied in the
    /// write-back, then an optional activation. The norm's statistic slices
    /// must cover `m` rows.
    BiasNorm {
        /// Chain-initialising bias, if the convolution has one.
        bias: Option<Bias<'a>>,
        /// The per-row (output-channel) normalisation statistics.
        norm: ChannelNorm<'a>,
        /// Activation applied after the normalisation, if fused.
        activation: Option<EpilogueActivation>,
    },
    /// The backward-pass fusion: each element of the final write-back is
    /// multiplied by the activation derivative evaluated at the cached
    /// forward input (see [`GradMask`]). Carries no bias, so the chain is
    /// `0, ascending-k accumulation, acc * derivative` — bit-identical to
    /// the unfused GEMM followed by the separate masking pass. Requires
    /// `beta == 0` and `input.len() == m * n`.
    Mask(GradMask<'a>),
}

impl<'a> Epilogue<'a> {
    /// Builds the epilogue for a bias plus an optional fused activation.
    pub fn with_activation(bias: Bias<'a>, activation: Option<EpilogueActivation>) -> Self {
        match activation {
            None => Epilogue::Bias(bias),
            Some(EpilogueActivation::Relu) => Epilogue::BiasRelu(bias),
            Some(EpilogueActivation::Sigmoid) => Epilogue::BiasSigmoid(bias),
            Some(EpilogueActivation::HardSigmoid) => Epilogue::BiasHardSigmoid(bias),
            Some(EpilogueActivation::HardSwish) => Epilogue::BiasHardSwish(bias),
        }
    }

    /// The fused bias, if any.
    pub(crate) fn bias(&self) -> Option<Bias<'a>> {
        match *self {
            Epilogue::None | Epilogue::Mask(_) => None,
            Epilogue::Bias(b)
            | Epilogue::BiasRelu(b)
            | Epilogue::BiasSigmoid(b)
            | Epilogue::BiasHardSigmoid(b)
            | Epilogue::BiasHardSwish(b) => Some(b),
            Epilogue::BiasNorm { bias, .. } => bias,
        }
    }

    /// The fused activation, if any.
    pub(crate) fn activation(&self) -> Option<EpilogueActivation> {
        match self {
            Epilogue::None | Epilogue::Bias(_) | Epilogue::Mask(_) => None,
            Epilogue::BiasRelu(_) => Some(EpilogueActivation::Relu),
            Epilogue::BiasSigmoid(_) => Some(EpilogueActivation::Sigmoid),
            Epilogue::BiasHardSigmoid(_) => Some(EpilogueActivation::HardSigmoid),
            Epilogue::BiasHardSwish(_) => Some(EpilogueActivation::HardSwish),
            Epilogue::BiasNorm { activation, .. } => *activation,
        }
    }

    /// The fused per-row normalisation, if any.
    pub(crate) fn norm(&self) -> Option<ChannelNorm<'a>> {
        match *self {
            Epilogue::BiasNorm { norm, .. } => Some(norm),
            _ => None,
        }
    }

    /// The fused backward gradient mask, if any.
    pub(crate) fn mask(&self) -> Option<GradMask<'a>> {
        match *self {
            Epilogue::Mask(mask) => Some(mask),
            _ => None,
        }
    }

    /// Whether this epilogue performs any fused transform at all.
    pub(crate) fn is_some(&self) -> bool {
        !matches!(self, Epilogue::None)
    }

    /// Narrows a [`Epilogue::Mask`] to the output rows `[row_start,
    /// row_end)` so each threaded worker indexes the mask with the same
    /// chunk-relative offsets it uses for its rows of `C`. Every other
    /// variant is returned unchanged (their per-row data is indexed by
    /// absolute row).
    fn narrow_mask_rows(self, row_start: usize, row_end: usize, n: usize) -> Self {
        match self {
            Epilogue::Mask(mask) => Epilogue::Mask(GradMask {
                input: &mask.input[row_start * n..row_end * n],
                grad: mask.grad,
            }),
            other => other,
        }
    }
}

/// General matrix multiply: `C = alpha * op(A) * op(B) + beta * C`.
///
/// All matrices are dense, row-major `f32` slices. `op(A)` is `m x k`: the
/// slice `a` stores it as `m x k` when `trans_a` is false and as `k x m`
/// (i.e. `op` reads it transposed) when true; likewise `op(B)` is `k x n`
/// stored as `k x n` or `n x k`. `C` is always `m x n`.
///
/// `par` bounds the worker-thread count; see the module docs for why the
/// result is bit-identical for every thread count. When `beta == 0` the
/// existing contents of `c` are ignored entirely (never multiplied), so an
/// uninitialised or NaN-filled buffer is safe.
///
/// # Panics
///
/// Panics if `a.len() != m * k`, `b.len() != k * n` or `c.len() != m * n`.
///
/// # Example
///
/// ```
/// use mtlsplit_tensor::{sgemm, Parallelism};
///
/// let a = [1.0, 2.0, 3.0, 4.0]; // 2x2
/// let b = [5.0, 6.0, 7.0, 8.0]; // 2x2
/// let mut c = [0.0f32; 4];
/// sgemm(
///     false, false, 2, 2, 2, 1.0, &a, &b, 0.0, &mut c,
///     Parallelism::single(),
/// );
/// assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn sgemm(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    par: Parallelism,
) {
    sgemm_epilogue(
        trans_a,
        trans_b,
        m,
        n,
        k,
        alpha,
        a,
        b,
        beta,
        c,
        Epilogue::None,
        par,
    );
}

/// [`sgemm`] with a fused [`Epilogue`]: bias initialisation and an optional
/// activation applied inside the micro-kernel's write-back, saving the
/// separate bias-broadcast and activation passes over `C`.
///
/// See [`Epilogue`] for the exact contract — fused results are bit-identical
/// to the unfused bias-prefill + activation-pass reference for every thread
/// count.
///
/// # Panics
///
/// Panics on the same buffer mismatches as [`sgemm`], if a `Bias*` epilogue
/// is combined with `beta != 0`, or if the bias length does not match its
/// broadcast axis.
#[allow(clippy::too_many_arguments)]
pub fn sgemm_epilogue(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    epilogue: Epilogue<'_>,
    par: Parallelism,
) {
    obs::metrics::GEMM_CALLS.add(1);
    obs::metrics::GEMM_FLOPS.add(2 * (m as u64) * (n as u64) * (k as u64));
    let _span = obs::span_dims(
        "sgemm",
        obs::SpanKind::Kernel,
        [m as u32, n as u32, k as u32, 0],
    );
    sgemm_epilogue_quiet(
        trans_a, trans_b, m, n, k, alpha, a, b, beta, c, epilogue, par,
    );
}

/// [`sgemm`] without the observability wrapper, for call sites that run on
/// short-lived scoped worker threads (the convolution unit loops): opening
/// spans there would register a throwaway ring buffer per spawned thread.
/// The enclosing driver accounts the work instead.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sgemm_quiet(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    par: Parallelism,
) {
    sgemm_epilogue_quiet(
        trans_a,
        trans_b,
        m,
        n,
        k,
        alpha,
        a,
        b,
        beta,
        c,
        Epilogue::None,
        par,
    );
}

/// [`sgemm_epilogue`] without the observability wrapper — see
/// [`sgemm_quiet`] for why the convolution unit loops need it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sgemm_epilogue_quiet(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    epilogue: Epilogue<'_>,
    par: Parallelism,
) {
    assert_eq!(a.len(), m * k, "sgemm: A buffer does not match m x k");
    assert_eq!(b.len(), k * n, "sgemm: B buffer does not match k x n");
    assert_eq!(c.len(), m * n, "sgemm: C buffer does not match m x n");
    if epilogue.is_some() {
        assert_eq!(beta, 0.0, "sgemm: a bias epilogue requires beta == 0");
    }
    if let Some(bias) = epilogue.bias() {
        let expected = match bias.axis {
            BiasAxis::Row => m,
            BiasAxis::Col => n,
        };
        assert_eq!(
            bias.values.len(),
            expected,
            "sgemm: bias length does not match its broadcast axis"
        );
    }
    if let Some(norm) = epilogue.norm() {
        assert!(
            norm.covers(m),
            "sgemm: norm statistics must cover every output row"
        );
    }
    if let Some(mask) = epilogue.mask() {
        assert_eq!(
            mask.input.len(),
            m * n,
            "sgemm: gradient mask must align with the m x n output"
        );
    }
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == 0.0 {
        apply_degenerate_epilogue(c, n, beta, epilogue);
        return;
    }
    // Resolve the ISA dispatch table once per call and thread it down
    // explicitly — workers spawned below never re-resolve, so a pinned
    // `Isa::with` path covers the whole call.
    let kt = crate::simd::kernels();
    if m == 1 {
        // The batch-size-1 serving regime: packing B for a single output
        // row costs as much as the whole product, and the register tile
        // would idle most of its row lanes. The GEMV path runs the exact
        // same per-element chains without packing anything.
        (kt.gemv)(trans_b, n, k, alpha, a, b, beta, c, epilogue);
        return;
    }
    // The epilogue bias becomes the chain head by prefilling `C` and
    // accumulating through `beta == 1` — exactly the idiom the epilogue
    // API replaces, so the chain per element is unchanged. (Initialising
    // the accumulators from the bias inside the micro-kernel instead
    // defeats LLVM's scalar replacement of the accumulator tile and costs
    // ~2x; the prefill sweep is O(m*n) against the GEMM's O(m*n*k).)
    let beta = match epilogue.bias() {
        Some(bias) => {
            match bias.axis {
                BiasAxis::Row => {
                    for (row, &value) in c.chunks_mut(n).zip(bias.values) {
                        row.fill(value);
                    }
                }
                BiasAxis::Col => {
                    for row in c.chunks_mut(n) {
                        row.copy_from_slice(bias.values);
                    }
                }
            }
            1.0
        }
        None => beta,
    };
    let volume = m.saturating_mul(n).saturating_mul(k);
    let threads =
        threads_for_macs(par.resolve(), volume, kt.min_macs_per_thread).min(m.div_ceil(kt.mr));
    if threads <= 1 {
        gemm_rows(
            kt, 0, m, trans_a, trans_b, m, n, k, alpha, a, b, beta, c, epilogue, None,
        );
        return;
    }
    // Pack every (jc, pc) block of B once up front; the row-partition
    // workers all read the same shared panels instead of re-packing B per
    // thread. Block contents and iteration order are identical to the
    // serial path, so the accumulation chains are unchanged. The packing
    // buffer is thread-local and reused across calls, like the per-worker
    // scratch in `gemm_rows` — a deliberate trade of resident memory
    // (k * n floats, high-water-marked per calling thread) for an
    // allocation-free steady state; threaded large-GEMM callers are the
    // training loop, not the edge inference path.
    thread_local! {
        static SHARED_B: std::cell::RefCell<Vec<f32>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    SHARED_B.with(|cell| {
        let mut owned = cell.borrow_mut();
        let mut shared_len = 0;
        for jc in (0..n).step_by(NC) {
            shared_len += k * NC.min(n - jc).next_multiple_of(kt.nr);
        }
        if owned.len() < shared_len {
            owned.resize(shared_len, 0.0);
        }
        let mut offset = 0;
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            let nc_pad = nc.next_multiple_of(kt.nr);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b(
                    &mut owned[offset..offset + kc * nc_pad],
                    b,
                    trans_b,
                    k,
                    n,
                    pc,
                    jc,
                    kc,
                    nc,
                    kt.nr,
                );
                offset += kc * nc_pad;
            }
        }
        let shared_b = &owned[..shared_len];
        let ranges = partition_rows(m, threads, kt.mr);
        std::thread::scope(|scope| {
            let mut rest = c;
            let mut handles = Vec::new();
            for (index, range) in ranges.iter().enumerate() {
                let rows = range.end - range.start;
                let (chunk, tail) = rest.split_at_mut(rows * n);
                rest = tail;
                let (start, end) = (range.start, range.end);
                // A gradient mask is chunked alongside C so workers index it
                // chunk-relative; every other epilogue passes through.
                let worker_epilogue = epilogue.narrow_mask_rows(start, end, n);
                if index + 1 == ranges.len() {
                    // The caller works the final chunk itself.
                    gemm_rows(
                        kt,
                        start,
                        end,
                        trans_a,
                        trans_b,
                        m,
                        n,
                        k,
                        alpha,
                        a,
                        b,
                        beta,
                        chunk,
                        worker_epilogue,
                        Some(shared_b),
                    );
                } else {
                    handles.push(scope.spawn(move || {
                        gemm_rows(
                            kt,
                            start,
                            end,
                            trans_a,
                            trans_b,
                            m,
                            n,
                            k,
                            alpha,
                            a,
                            b,
                            beta,
                            chunk,
                            worker_epilogue,
                            Some(shared_b),
                        );
                    }));
                }
            }
            for handle in handles {
                handle.join().expect("sgemm worker thread panicked");
            }
        });
    });
}

/// Output chains per register block in the transposed-`B` GEMV.
const GEMV_LANES: usize = 8;

/// The scalar `m == 1` fast path: a matrix–vector product with no packing,
/// no register tile and no threads, preserving the exact per-element chain
/// — `chain head (bias or beta * C), then ascending-k accumulation with
/// [`fused_mul_add`], then norm/activation once` — so results are
/// bit-identical to the blocked path. The SIMD dispatch paths run the same
/// chains with vectorised lane loops (`simd::vec::gemv_kernel`).
///
/// For `trans_b == false` (`B` stored `k x n`) the accumulation sweeps
/// whole rows of `B`, contiguous over the outputs. For `trans_b == true`
/// (`B` stored `n x k`, the linear-layer layout) each output is one
/// contiguous dot-product row; [`GEMV_LANES`] independent chains run in
/// flight to cover the FMA latency.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemv_row(
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
    gemv_row_impl::<FUSED_MULTIPLY_ADD>(trans_b, n, k, alpha, a, b, beta, c, epilogue)
}

/// The body of [`gemv_row`], generic over the accumulation step so the
/// `x86` module can re-instantiate it inside a `#[target_feature]` wrapper
/// (see [`fma_step`]).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn gemv_row_impl<const FMA: bool>(
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
    // Chain heads land in `c` directly.
    match epilogue.bias() {
        Some(bias) => match bias.axis {
            BiasAxis::Row => c.fill(bias.values[0]),
            BiasAxis::Col => c.copy_from_slice(bias.values),
        },
        None => scale_c(c, beta),
    }
    if trans_b {
        // Full blocks: GEMV_LANES fixed-size independent chains, one
        // contiguous B row per lane, so the accumulators stay in registers
        // and the lane loop unrolls.
        let mut j = 0;
        while j + GEMV_LANES <= n {
            let rows: [&[f32]; GEMV_LANES] = std::array::from_fn(|lane| &b[(j + lane) * k..][..k]);
            let mut acc = [0.0f32; GEMV_LANES];
            for (lane, slot) in acc.iter_mut().enumerate() {
                *slot = c[j + lane];
            }
            for (p, &ap) in a.iter().enumerate() {
                let av = alpha * ap;
                for (lane, slot) in acc.iter_mut().enumerate() {
                    *slot = fma_step::<FMA>(av, rows[lane][p], *slot);
                }
            }
            for (lane, &value) in acc.iter().enumerate() {
                c[j + lane] = value;
            }
            j += GEMV_LANES;
        }
        // Tail: one scalar chain per remaining output.
        for (offset, slot) in c[j..].iter_mut().enumerate() {
            let row = &b[(j + offset) * k..][..k];
            let mut acc = *slot;
            for (p, &ap) in a.iter().enumerate() {
                acc = fma_step::<FMA>(alpha * ap, row[p], acc);
            }
            *slot = acc;
        }
    } else {
        for (p, &ap) in a.iter().enumerate() {
            let av = alpha * ap;
            let row = &b[p * n..][..n];
            for (slot, &bv) in c.iter_mut().zip(row) {
                *slot = fma_step::<FMA>(av, bv, *slot);
            }
        }
    }
    // The backward gradient mask: multiply each accumulated element by the
    // derivative at the cached forward input — the same `value * d(x)`
    // product the standalone masking pass computes.
    if let Some(mask) = epilogue.mask() {
        for (slot, &x) in c.iter_mut().zip(mask.input) {
            *slot *= mask.grad.derivative(x);
        }
        return;
    }
    // The fused transforms; the single row is channel 0 for a norm.
    let norm = epilogue.norm().map(|nm| nm.params(0));
    match (norm, epilogue.activation()) {
        (None, None) => {}
        (None, Some(act)) => {
            for x in c.iter_mut() {
                *x = act.apply(*x);
            }
        }
        (Some(params), None) => {
            for x in c.iter_mut() {
                *x = params.transform(*x);
            }
        }
        (Some(params), Some(act)) => {
            for x in c.iter_mut() {
                *x = act.apply(params.transform(*x));
            }
        }
    }
}

/// Handles the degenerate (`k == 0` or `alpha == 0`) cases: the chain per
/// element is just its initial value — `beta * C` without an epilogue,
/// `activation(norm(bias))` (with `0` standing in for a missing bias) with
/// one.
fn apply_degenerate_epilogue(c: &mut [f32], n: usize, beta: f32, epilogue: Epilogue<'_>) {
    if !epilogue.is_some() {
        scale_c(c, beta);
        return;
    }
    if let Some(mask) = epilogue.mask() {
        // No bias, so the chain head is 0; the mask still multiplies it,
        // preserving the sign-of-zero behaviour of the unfused pass.
        for (slot, &x) in c.iter_mut().zip(mask.input) {
            *slot = 0.0 * mask.grad.derivative(x);
        }
        return;
    }
    let act = epilogue.activation();
    let norm = epilogue.norm();
    let value = |row_index: usize, b: f32| {
        let normed = norm.map_or(b, |nm| nm.apply(row_index, b));
        act.map_or(normed, |a| a.apply(normed))
    };
    match epilogue.bias() {
        Some(bias) if bias.axis == BiasAxis::Col => {
            for (row_index, row) in c.chunks_mut(n).enumerate() {
                for (slot, &b) in row.iter_mut().zip(bias.values) {
                    *slot = value(row_index, b);
                }
            }
        }
        bias => {
            // Row-axis or missing bias: one value per row.
            for (row_index, row) in c.chunks_mut(n).enumerate() {
                let b = bias.map_or(0.0, |bv| bv.values[row_index]);
                row.fill(value(row_index, b));
            }
        }
    }
}

/// Applies the `beta` pre-scale used by the degenerate (`k == 0` or
/// `alpha == 0`) paths.
pub(crate) fn scale_c(c: &mut [f32], beta: f32) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for x in c.iter_mut() {
            *x *= beta;
        }
    }
}

/// Serial blocked GEMM over the row range `[row_start, row_end)` of `C`,
/// using the kernel set and tile geometry of the dispatch table `kt`.
///
/// `c_chunk` holds exactly those rows (`(row_end - row_start) * n` values);
/// `a` and `b` are the full operands. When `prepacked_b` is given it must
/// hold every `(jc, pc)` block of packed `B` in iteration order (the
/// threaded path shares one such buffer across workers); otherwise blocks
/// are packed on the fly into thread-local scratch. This is the unit of
/// work one thread executes — the blocking below never depends on which
/// rows the range covers beyond their packing, so the accumulation chain
/// per element is partition-independent.
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    kt: &'static Kernels,
    row_start: usize,
    row_end: usize,
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c_chunk: &mut [f32],
    epilogue: Epilogue<'_>,
    prepacked_b: Option<&[f32]>,
) {
    // Reuse this thread's packing scratch across calls: the packing loops
    // overwrite every slot they expose (including the zero padding), so no
    // per-call zeroing is needed and the steady-state hot loop allocates
    // nothing.
    thread_local! {
        static SCRATCH: std::cell::RefCell<(Vec<f32>, Vec<f32>)> =
            const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
    }
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let (buffer_b, buffer_a) = &mut *scratch;
        let b_len = if prepacked_b.is_some() {
            0
        } else {
            KC.min(k) * NC.min(n).next_multiple_of(kt.nr)
        };
        let a_len = kt.mc.min(row_end - row_start).next_multiple_of(kt.mr) * KC.min(k);
        if buffer_b.len() < b_len {
            buffer_b.resize(b_len, 0.0);
        }
        if buffer_a.len() < a_len {
            buffer_a.resize(a_len, 0.0);
        }
        gemm_blocks(
            kt,
            row_start,
            row_end,
            trans_a,
            trans_b,
            m,
            n,
            k,
            alpha,
            a,
            b,
            beta,
            c_chunk,
            epilogue,
            prepacked_b,
            &mut buffer_b[..b_len],
            &mut buffer_a[..a_len],
        );
    });
}

/// The blocked loop nest of [`gemm_rows`], operating on caller-provided
/// packing scratch (or a shared pre-packed `B`).
#[allow(clippy::too_many_arguments)]
fn gemm_blocks(
    kt: &'static Kernels,
    row_start: usize,
    row_end: usize,
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c_chunk: &mut [f32],
    epilogue: Epilogue<'_>,
    prepacked_b: Option<&[f32]>,
    packed_b_scratch: &mut [f32],
    packed_a: &mut [f32],
) {
    let mut shared_offset = 0;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let nc_pad = nc.next_multiple_of(kt.nr);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let panel_b: &[f32] = match prepacked_b {
                Some(shared) => {
                    let block = &shared[shared_offset..shared_offset + kc * nc_pad];
                    shared_offset += kc * nc_pad;
                    block
                }
                None => {
                    pack_b(packed_b_scratch, b, trans_b, k, n, pc, jc, kc, nc, kt.nr);
                    &packed_b_scratch[..kc * nc_pad]
                }
            };
            let last_k_block = pc + kc == k;
            let pass = TilePass {
                beta,
                first_k_block: pc == 0,
                // Store-side transforms fire only on the final K block;
                // resolving them here keeps the micro-kernel's dispatch to
                // one match on two options.
                norm: if last_k_block { epilogue.norm() } else { None },
                activation: if last_k_block {
                    epilogue.activation()
                } else {
                    None
                },
                mask: if last_k_block { epilogue.mask() } else { None },
            };
            let mut ic = row_start;
            while ic < row_end {
                let mc = kt.mc.min(row_end - ic);
                pack_a(packed_a, a, trans_a, m, k, ic, pc, mc, kc, alpha, kt.mr);
                macro_kernel(
                    kt,
                    packed_a,
                    panel_b,
                    mc,
                    nc,
                    kc,
                    c_chunk,
                    (ic - row_start) * n + jc,
                    n,
                    ic,
                    pass,
                );
                ic += mc;
            }
        }
    }
}

/// Per-`(jc, pc)`-block state threaded down to the micro-kernel: how to
/// initialise the accumulators (first `K` block) and which fused
/// transforms the write-back applies (populated only on the final `K`
/// block).
#[derive(Clone, Copy)]
pub(crate) struct TilePass<'a> {
    pub(crate) beta: f32,
    pub(crate) first_k_block: bool,
    pub(crate) norm: Option<ChannelNorm<'a>>,
    pub(crate) activation: Option<EpilogueActivation>,
    /// Backward gradient mask, sliced to align with this worker's chunk of
    /// `C` (so it is indexed with the same chunk-relative offsets).
    pub(crate) mask: Option<GradMask<'a>>,
}

/// Packs the `kc x nc` block of `op(B)` at `(pc, jc)` into `nr`-wide column
/// panels, each laid out k-major: panel `jp` holds `kc` rows of `nr`
/// consecutive values `op(B)[pc + p][jc + jp .. jc + jp + nr]`, zero-padded
/// past `nc`. `nr` is the register-tile width of the dispatch table driving
/// this GEMM, so the packed layout always matches the consuming
/// micro-kernel.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    packed: &mut [f32],
    b: &[f32],
    trans_b: bool,
    k: usize,
    n: usize,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
    nr: usize,
) {
    let mut offset = 0;
    for jp in (0..nc).step_by(nr) {
        let width = nr.min(nc - jp);
        for p in 0..kc {
            let dst = &mut packed[offset + p * nr..offset + p * nr + nr];
            if trans_b {
                // Stored B is n x k; op(B)[p][j] = b[j * k + p].
                for (j, slot) in dst.iter_mut().take(width).enumerate() {
                    *slot = b[(jc + jp + j) * k + pc + p];
                }
            } else {
                dst[..width].copy_from_slice(&b[(pc + p) * n + jc + jp..][..width]);
            }
            dst[width..].fill(0.0);
        }
        offset += kc * nr;
    }
}

/// Packs the `mc x kc` block of `op(A)` at `(ic, pc)` into `mr`-tall row
/// panels laid out k-major (`panel[p * mr + i] = alpha * op(A)[ic + ip + i]
/// [pc + p]`), zero-padded past `mc`. Folding `alpha` in here keeps the
/// micro-kernel multiply-add only — and is exact for `alpha == 1`.
///
/// `mr` is the register-tile height of the active dispatch table. The match
/// re-instantiates the packing loop with the height as a compile-time
/// constant so the interleaving store group keeps its fixed stride (and
/// stays vectorisable) on every path.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    packed: &mut [f32],
    a: &[f32],
    trans_a: bool,
    m: usize,
    k: usize,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    alpha: f32,
    mr: usize,
) {
    match mr {
        4 => pack_a_panels::<4>(packed, a, trans_a, m, k, ic, pc, mc, kc, alpha),
        6 => pack_a_panels::<6>(packed, a, trans_a, m, k, ic, pc, mc, kc, alpha),
        14 => pack_a_panels::<14>(packed, a, trans_a, m, k, ic, pc, mc, kc, alpha),
        _ => unreachable!("no dispatch table uses MR = {mr}"),
    }
}

/// Monomorphised body of [`pack_a`] for one register-tile height.
#[allow(clippy::too_many_arguments)]
fn pack_a_panels<const MRT: usize>(
    packed: &mut [f32],
    a: &[f32],
    trans_a: bool,
    m: usize,
    k: usize,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    alpha: f32,
) {
    let mut offset = 0;
    for ip in (0..mc).step_by(MRT) {
        let height = MRT.min(mc - ip);
        if !trans_a && height == MRT {
            // Common full-panel case: interleave MRT contiguous source rows.
            // The fixed-stride store group vectorises, unlike the generic
            // scalar loop below.
            let rows: [&[f32]; MRT] = std::array::from_fn(|i| &a[(ic + ip + i) * k + pc..][..kc]);
            let dst = &mut packed[offset..offset + kc * MRT];
            for p in 0..kc {
                for (i, row) in rows.iter().enumerate() {
                    dst[p * MRT + i] = alpha * row[p];
                }
            }
        } else {
            for p in 0..kc {
                let dst = &mut packed[offset + p * MRT..offset + p * MRT + MRT];
                for (i, slot) in dst.iter_mut().take(height).enumerate() {
                    let value = if trans_a {
                        // Stored A is k x m; op(A)[i][p] = a[p * m + i].
                        a[(pc + p) * m + ic + ip + i]
                    } else {
                        a[(ic + ip + i) * k + pc + p]
                    };
                    *slot = alpha * value;
                }
                dst[height..].fill(0.0);
            }
        }
        offset += kc * MRT;
    }
}

/// Drives the table's micro-kernel over every `mr x nr` tile of an
/// `mc x nc` block of `C` starting at `c_offset` (leading dimension `ldc`).
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    kt: &'static Kernels,
    packed_a: &[f32],
    packed_b: &[f32],
    mc: usize,
    nc: usize,
    kc: usize,
    c: &mut [f32],
    c_offset: usize,
    ldc: usize,
    abs_row: usize,
    pass: TilePass<'_>,
) {
    let (mr, nr) = (kt.mr, kt.nr);
    for jr in (0..nc).step_by(nr) {
        let width = nr.min(nc - jr);
        let panel_b = &packed_b[(jr / nr) * kc * nr..][..kc * nr];
        for ir in (0..mc).step_by(mr) {
            let height = mr.min(mc - ir);
            let panel_a = &packed_a[(ir / mr) * kc * mr..][..kc * mr];
            (kt.micro)(
                panel_a,
                panel_b,
                kc,
                c,
                c_offset + ir * ldc + jr,
                ldc,
                height,
                width,
                abs_row + ir,
                pass,
            );
        }
    }
}

/// Columns held in each of the micro-kernel's three accumulator thirds.
const NRH: usize = NR / 3;

/// The register-tiled core: accumulates one `MR x NR` tile of `C` over a
/// whole `kc` slice in local accumulators, then writes the valid
/// `height x width` region back. Initialising the accumulators from `C`
/// (scaled by `beta` only on the first `K` block) is what keeps the
/// per-element accumulation chain identical to the naive triple loop.
///
/// The tile is held as three `MR x NRH` column-third arrays rather than one
/// `MR x NR` array: LLVM's scalar-replacement pass only promotes small
/// aggregates to registers, and splitting the tile keeps each third under
/// that limit so the whole accumulator stays in SIMD registers across the
/// `kc` loop (one `MR x NR` array would spill to the stack).
///
/// `manual_memcpy` is allowed deliberately: writing the spill/reload loops
/// as `copy_from_slice` takes references to the accumulator arrays, which
/// blocks their scalar replacement — the index loops keep them in
/// registers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn micro_kernel(
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
    micro_kernel_impl::<FUSED_MULTIPLY_ADD>(
        panel_a, panel_b, kc, c, c_offset, ldc, height, width, abs_row, pass,
    );
}

/// Body of the scalar micro-kernel, generic over the accumulation step.
///
/// The `FMA` const selects between `mul_add` and separate multiply-plus-add
/// at compile time, with no runtime branch in the `kc` loop. The plain
/// instantiation (`FMA == FUSED_MULTIPLY_ADD`) is the portable fallback;
/// `simd::x86` re-instantiates the `FMA == true` body inside
/// `#[target_feature]` wrappers so that on FMA hardware the forced-scalar
/// dispatch path still lowers `mul_add` to a fused instruction and
/// autovectorises — making it both fast and bit-identical to the explicit
/// SIMD tiles.
#[allow(clippy::too_many_arguments, clippy::manual_memcpy)]
#[inline(always)]
pub(crate) fn micro_kernel_impl<const FMA: bool>(
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
    let mut acc_l = [[0.0f32; NRH]; MR];
    let mut acc_m = [[0.0f32; NRH]; MR];
    let mut acc_r = [[0.0f32; NRH]; MR];
    let width_l = width.min(NRH);
    let width_m = width.saturating_sub(NRH).min(NRH);
    let width_r = width.saturating_sub(2 * NRH);
    if pass.first_k_block {
        // The epilogue bias never reaches this kernel: `sgemm_epilogue`
        // prefills `C` with it and hands down `beta == 1`, keeping this
        // init identical to the original (adding bias-init arms here was
        // measured to defeat LLVM's scalar replacement of the accumulator
        // tile — a ~2x kernel regression).
        if pass.beta != 0.0 {
            for i in 0..height {
                let c_row = &c[c_offset + i * ldc..][..width];
                for j in 0..width_l {
                    acc_l[i][j] = pass.beta * c_row[j];
                }
                for j in 0..width_m {
                    acc_m[i][j] = pass.beta * c_row[NRH + j];
                }
                for j in 0..width_r {
                    acc_r[i][j] = pass.beta * c_row[2 * NRH + j];
                }
            }
        }
    } else {
        for i in 0..height {
            let c_row = &c[c_offset + i * ldc..][..width];
            for j in 0..width_l {
                acc_l[i][j] = c_row[j];
            }
            for j in 0..width_m {
                acc_m[i][j] = c_row[NRH + j];
            }
            for j in 0..width_r {
                acc_r[i][j] = c_row[2 * NRH + j];
            }
        }
    }
    for p in 0..kc {
        let b_l: &[f32; NRH] = panel_b[p * NR..]
            .first_chunk()
            .expect("packed B panel is kc * NR long");
        let b_m: &[f32; NRH] = panel_b[p * NR + NRH..]
            .first_chunk()
            .expect("packed B panel is kc * NR long");
        let b_r: &[f32; NRH] = panel_b[p * NR + 2 * NRH..]
            .first_chunk()
            .expect("packed B panel is kc * NR long");
        let a_col: &[f32; MR] = panel_a[p * MR..]
            .first_chunk()
            .expect("packed A panel is kc * MR long");
        for i in 0..MR {
            let a_value = a_col[i];
            let left = &mut acc_l[i];
            for j in 0..NRH {
                left[j] = fma_step::<FMA>(a_value, b_l[j], left[j]);
            }
            let middle = &mut acc_m[i];
            for j in 0..NRH {
                middle[j] = fma_step::<FMA>(a_value, b_m[j], middle[j]);
            }
            let right = &mut acc_r[i];
            for j in 0..NRH {
                right[j] = fma_step::<FMA>(a_value, b_r[j], right[j]);
            }
        }
    }
    // The fused norm/activation/mask fires exactly once, in the final K
    // block's write-back, while the tile is still in registers; spills
    // between K blocks store the raw partial sums. `f` receives the
    // tile-local row (for per-row norm statistics, indexed by absolute
    // output channel) and the column within the row (for the element-wise
    // gradient mask).
    macro_rules! store_tile {
        ($f:expr) => {{
            let f = $f;
            for i in 0..height {
                let c_row = &mut c[c_offset + i * ldc..][..width];
                for j in 0..width_l {
                    c_row[j] = f(i, j, acc_l[i][j]);
                }
                for j in 0..width_m {
                    c_row[NRH + j] = f(i, NRH + j, acc_m[i][j]);
                }
                for j in 0..width_r {
                    c_row[2 * NRH + j] = f(i, 2 * NRH + j, acc_r[i][j]);
                }
            }
        }};
    }
    if let Some(mask) = pass.mask {
        // Backward masking: multiply each element by the activation
        // derivative at the matching cached forward input (chunk-aligned
        // slice, so the offsets mirror `c` exactly).
        store_tile!(|i: usize, j: usize, x: f32| {
            x * mask.grad.derivative(mask.input[c_offset + i * ldc + j])
        });
        return;
    }
    match (pass.norm, pass.activation) {
        (None, None) => store_tile!(|_i: usize, _j: usize, x: f32| x),
        (None, Some(EpilogueActivation::Relu)) => {
            store_tile!(|_i: usize, _j: usize, x: f32| x.max(0.0))
        }
        (None, Some(act)) => store_tile!(|_i: usize, _j: usize, x: f32| act.apply(x)),
        (Some(nm), act) => {
            // Hoist each row's channel constants (one sqrt + divide) out of
            // the store loops; reuse is bit-identical to recomputation.
            let mut rows = [NormParams::default(); MR];
            for (i, slot) in rows.iter_mut().enumerate().take(height) {
                *slot = nm.params(abs_row + i);
            }
            match act {
                None => store_tile!(|i: usize, _j: usize, x: f32| rows[i].transform(x)),
                Some(act) => {
                    store_tile!(|i: usize, _j: usize, x: f32| act.apply(rows[i].transform(x)))
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The naive reference kernel the blocked GEMM is tested against.
    //!
    //! This is the seed's single-threaded triple loop (minus its
    //! `a == 0.0` sparsity skip, which was removed because it perturbed the
    //! accumulation chain for pruned weights without ever paying for
    //! itself). It exists only as a test oracle: the production path is
    //! [`super::sgemm`].

    /// `C = alpha * op(A) * op(B) + beta * C`, one ascending-k accumulation
    /// chain per element — the semantics [`super::sgemm`] must match to
    /// 0 ULP.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gemm(
        trans_a: bool,
        trans_b: bool,
        m: usize,
        n: usize,
        k: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        beta: f32,
        c: &mut [f32],
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = if beta == 0.0 {
                    0.0
                } else {
                    beta * c[i * n + j]
                };
                for p in 0..k {
                    let a_value = if trans_a { a[p * m + i] } else { a[i * k + p] };
                    let b_value = if trans_b { b[j * k + p] } else { b[p * n + j] };
                    acc = super::fused_mul_add(alpha * a_value, b_value, acc);
                }
                c[i * n + j] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;
    use crate::simd::Isa;

    fn random_vec(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len).map(|_| rng.normal_with(0.0, 1.0)).collect()
    }

    fn assert_bits_equal(actual: &[f32], expected: &[f32], context: &str) {
        assert_eq!(actual.len(), expected.len(), "{context}: length");
        for (index, (x, y)) in actual.iter().zip(expected).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{context}: element {index} differs ({x} vs {y})"
            );
        }
    }

    /// The satellite property test: blocked GEMM == naive oracle to 0 ULP
    /// across random shapes, transpose flags, alpha/beta and thread counts.
    #[test]
    fn property_gemm_matches_oracle_to_zero_ulp() {
        let mut rng = StdRng::seed_from(0xBEEF);
        let alphas = [1.0f32, -1.0, 0.5];
        let betas = [0.0f32, 1.0, 0.25];
        for case in 0..60 {
            let m = 1 + (rng.next_u64() % 50) as usize;
            let n = 1 + (rng.next_u64() % 50) as usize;
            let k = 1 + (rng.next_u64() % 50) as usize;
            let trans_a = rng.next_u64().is_multiple_of(2);
            let trans_b = rng.next_u64().is_multiple_of(2);
            let alpha = alphas[(rng.next_u64() % alphas.len() as u64) as usize];
            let beta = betas[(rng.next_u64() % betas.len() as u64) as usize];
            let a = random_vec(m * k, &mut rng);
            let b = random_vec(k * n, &mut rng);
            let c0 = random_vec(m * n, &mut rng);
            let mut expected = c0.clone();
            oracle::gemm(
                trans_a,
                trans_b,
                m,
                n,
                k,
                alpha,
                &a,
                &b,
                beta,
                &mut expected,
            );
            for threads in [1usize, 2, 4] {
                let mut c = c0.clone();
                sgemm(
                    trans_a,
                    trans_b,
                    m,
                    n,
                    k,
                    alpha,
                    &a,
                    &b,
                    beta,
                    &mut c,
                    Parallelism::fixed(threads),
                );
                assert_bits_equal(
                    &c,
                    &expected,
                    &format!(
                        "case {case}: m={m} n={n} k={k} ta={trans_a} tb={trans_b} \
                         alpha={alpha} beta={beta} threads={threads}"
                    ),
                );
            }
        }
    }

    /// Shapes that cross every blocking boundary (MC, KC, NC and the MR/NR
    /// edge tiles) still match the oracle exactly.
    #[test]
    fn blocking_boundaries_match_oracle_to_zero_ulp() {
        let mut rng = StdRng::seed_from(42);
        for &(m, n, k) in &[
            (MC + MR + 1, NR - 1, KC + 3),
            (MR - 1, NC + NR + 5, 7),
            (2 * MC, 2 * NR, 2 * KC),
            (1, 1, KC + 1),
        ] {
            let a = random_vec(m * k, &mut rng);
            let b = random_vec(k * n, &mut rng);
            let mut expected = vec![0.0; m * n];
            oracle::gemm(false, false, m, n, k, 1.0, &a, &b, 0.0, &mut expected);
            let mut c = vec![0.0; m * n];
            sgemm(
                false,
                false,
                m,
                n,
                k,
                1.0,
                &a,
                &b,
                0.0,
                &mut c,
                Parallelism::fixed(3),
            );
            assert_bits_equal(&c, &expected, &format!("m={m} n={n} k={k}"));
        }
    }

    /// A shape big enough to actually engage the scoped-thread split must be
    /// bit-identical for every thread count. (Small shapes are clamped to a
    /// single worker by the per-ISA FLOP floor, so this shape carries
    /// several threads' worth of multiply-accumulates even at the AVX-512
    /// floor, the highest of the three.)
    #[test]
    fn results_are_bit_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from(7);
        let (m, n, k) = (512, 512, 512);
        let a = random_vec(m * k, &mut rng);
        let b = random_vec(k * n, &mut rng);
        let reference = {
            let mut c = vec![0.0; m * n];
            sgemm(
                false,
                false,
                m,
                n,
                k,
                1.0,
                &a,
                &b,
                0.0,
                &mut c,
                Parallelism::single(),
            );
            c
        };
        for threads in [2usize, 3, 4, 8] {
            let mut c = vec![0.0; m * n];
            sgemm(
                false,
                false,
                m,
                n,
                k,
                1.0,
                &a,
                &b,
                0.0,
                &mut c,
                Parallelism::fixed(threads),
            );
            assert_bits_equal(&c, &reference, &format!("threads={threads}"));
        }
    }

    /// Every detected dispatch path matches the naive oracle to 0 ULP on
    /// shapes covering the GEMV fast path (`m == 1`), ragged edge tiles and
    /// multi-`KC` accumulation chains, under both transpose flags and a
    /// non-trivial `beta`.
    #[test]
    fn property_gemm_matches_oracle_on_every_isa_path() {
        let mut rng = StdRng::seed_from(0x15A0);
        let shapes = [
            (1usize, 33usize, 70usize),
            (1, 200, 320),
            (5, 17, 300),
            (37, 41, 29),
            (64, 48, 80),
        ];
        for &(m, n, k) in &shapes {
            for &(trans_a, trans_b) in &[(false, false), (true, false), (false, true)] {
                let a = random_vec(m * k, &mut rng);
                let b = random_vec(k * n, &mut rng);
                let c0 = random_vec(m * n, &mut rng);
                let mut expected = c0.clone();
                oracle::gemm(trans_a, trans_b, m, n, k, 1.0, &a, &b, 0.5, &mut expected);
                for isa in Isa::available() {
                    let mut c = c0.clone();
                    isa.with(|| {
                        sgemm(
                            trans_a,
                            trans_b,
                            m,
                            n,
                            k,
                            1.0,
                            &a,
                            &b,
                            0.5,
                            &mut c,
                            Parallelism::single(),
                        )
                    })
                    .unwrap();
                    assert_bits_equal(
                        &c,
                        &expected,
                        &format!("isa={isa} m={m} n={n} k={k} ta={trans_a} tb={trans_b}"),
                    );
                }
            }
        }
    }

    /// The whole `(ISA, threads)` matrix produces one answer on a shape
    /// that genuinely splits across workers on every path: on FMA hardware
    /// every dispatch path — the re-instantiated scalar one included —
    /// accumulates with the same correctly-rounded fused multiply-add, so
    /// the explicit SIMD tiles must agree with the scalar chain bit for
    /// bit. (On hardware without FMA only the scalar path is available and
    /// the matrix degenerates to the thread-invariance check.)
    #[test]
    fn isa_paths_are_bit_identical_threaded() {
        let mut rng = StdRng::seed_from(0x51AD);
        let (m, n, k) = (512, 512, 512); // 134M MACs: 4 workers even at the AVX-512 floor
        let a = random_vec(m * k, &mut rng);
        let b = random_vec(k * n, &mut rng);
        let reference = {
            let mut c = vec![0.0; m * n];
            Isa::Scalar
                .with(|| {
                    sgemm(
                        false,
                        false,
                        m,
                        n,
                        k,
                        1.0,
                        &a,
                        &b,
                        0.0,
                        &mut c,
                        Parallelism::single(),
                    )
                })
                .unwrap();
            c
        };
        for isa in Isa::available() {
            for threads in [1usize, 2, 4] {
                let mut c = vec![0.0; m * n];
                isa.with(|| {
                    sgemm(
                        false,
                        false,
                        m,
                        n,
                        k,
                        1.0,
                        &a,
                        &b,
                        0.0,
                        &mut c,
                        Parallelism::fixed(threads),
                    )
                })
                .unwrap();
                assert_bits_equal(&c, &reference, &format!("isa={isa} threads={threads}"));
            }
        }
    }

    /// Cross-path bitwise agreement for every fused epilogue form — bias
    /// on both axes with each activation (including the scalar-evaluated
    /// Sigmoid), the batch-norm write-back and the backward gradient mask —
    /// on both the tiled path and the `m == 1` GEMV fast path.
    #[test]
    fn isa_paths_agree_bitwise_on_fused_epilogues() {
        let mut rng = StdRng::seed_from(0xE51A);
        let activations = [
            None,
            Some(EpilogueActivation::Relu),
            Some(EpilogueActivation::Sigmoid),
            Some(EpilogueActivation::HardSigmoid),
            Some(EpilogueActivation::HardSwish),
        ];
        for (case, &activation) in activations.iter().enumerate() {
            for &(m, n, k) in &[(1usize, 45 + case, 130usize), (39 + case, 50, 120)] {
                let axis = if case % 2 == 0 {
                    BiasAxis::Row
                } else {
                    BiasAxis::Col
                };
                let trans_b = case % 2 == 1;
                let a = random_vec(m * k, &mut rng);
                let b = random_vec(k * n, &mut rng);
                let bias_values = random_vec(
                    match axis {
                        BiasAxis::Row => m,
                        BiasAxis::Col => n,
                    },
                    &mut rng,
                );
                let bias = Bias {
                    values: &bias_values,
                    axis,
                };
                let epilogue = Epilogue::with_activation(bias, activation);
                let run = |isa: Isa| {
                    let mut c = vec![f32::NAN; m * n];
                    isa.with(|| {
                        sgemm_epilogue(
                            false,
                            trans_b,
                            m,
                            n,
                            k,
                            1.0,
                            &a,
                            &b,
                            0.0,
                            &mut c,
                            epilogue,
                            Parallelism::single(),
                        )
                    })
                    .unwrap();
                    c
                };
                let reference = run(Isa::Scalar);
                for isa in Isa::available() {
                    assert_bits_equal(
                        &run(isa),
                        &reference,
                        &format!("isa={isa} m={m} n={n} k={k} act={activation:?} axis={axis:?}"),
                    );
                }
            }
        }
        // Norm and gradient-mask epilogues over the same path matrix.
        let (m, n, k) = (53usize, 47usize, 140usize);
        let a = random_vec(m * k, &mut rng);
        let b = random_vec(k * n, &mut rng);
        let gamma = random_vec(m, &mut rng);
        let shift = random_vec(m, &mut rng);
        let mean = random_vec(m, &mut rng);
        let var: Vec<f32> = (0..m).map(|_| rng.uniform_range(0.05, 2.0)).collect();
        let forward_input = random_vec(m * n, &mut rng);
        let norm_epilogue = Epilogue::BiasNorm {
            bias: None,
            norm: ChannelNorm {
                gamma: &gamma,
                beta: &shift,
                mean: &mean,
                var: &var,
                epsilon: 1e-5,
            },
            activation: Some(EpilogueActivation::HardSwish),
        };
        let mask_epilogue = Epilogue::Mask(GradMask {
            input: &forward_input,
            grad: ActivationGrad::HardSwish,
        });
        for (label, epilogue) in [("norm", norm_epilogue), ("mask", mask_epilogue)] {
            let run = |isa: Isa| {
                let mut c = vec![f32::NAN; m * n];
                isa.with(|| {
                    sgemm_epilogue(
                        false,
                        false,
                        m,
                        n,
                        k,
                        1.0,
                        &a,
                        &b,
                        0.0,
                        &mut c,
                        epilogue,
                        Parallelism::single(),
                    )
                })
                .unwrap();
                c
            };
            let reference = run(Isa::Scalar);
            for isa in Isa::available() {
                assert_bits_equal(&run(isa), &reference, &format!("isa={isa} {label}"));
            }
        }
    }

    /// The edge-tile sweep: every `(m, n)` in `1..=29 x 1..=65` (twice the
    /// widest tile, 14 x 32, plus one) at a small `k`, then every tile
    /// boundary shape of every table (`1`, `MR - 1`, `MR`, `MR + 1`, and
    /// the same for `NR`) at a `k` that crosses one `KC` block, so the
    /// partials spilled between blocks are reloaded. Every fused epilogue,
    /// both transpose flags and a `beta != 0` case run on each shape, and
    /// every dispatch path must match the scalar one bit for bit, from a
    /// NaN-filled `C` wherever `C` is not an input.
    #[test]
    fn edge_tiles_match_the_scalar_path_bitwise() {
        let mut rng = StdRng::seed_from(0xED6E);
        let tables: Vec<(usize, usize)> = Isa::available()
            .into_iter()
            .map(|isa| isa.with(|| (crate::simd::kernels().mr, crate::simd::kernels().nr)))
            .collect::<Result<_, _>>()
            .unwrap();
        let near = |t: usize| [1, t - 1, t, t + 1];
        let mut shapes: Vec<(usize, usize, usize)> = Vec::new();
        for m in 1..=29 {
            for n in 1..=65 {
                shapes.push((m, n, 5));
            }
        }
        for &(mr, _) in &tables {
            for m in near(mr) {
                for &(_, nr) in &tables {
                    for n in near(nr) {
                        shapes.push((m, n, KC + 3));
                    }
                }
            }
        }
        let (max_m, max_n, max_k) = (29, 65, KC + 3);
        let a = random_vec(max_m * max_k, &mut rng);
        let b = random_vec(max_k * max_n, &mut rng);
        let c0 = random_vec(max_m * max_n, &mut rng);
        let bias = random_vec(max_n, &mut rng);
        let forward_input = random_vec(max_m * max_n, &mut rng);
        let gamma = random_vec(max_m, &mut rng);
        let shift = random_vec(max_m, &mut rng);
        let mean = random_vec(max_m, &mut rng);
        let var: Vec<f32> = (0..max_m).map(|_| rng.uniform_range(0.05, 2.0)).collect();
        let activations = [
            None,
            Some(EpilogueActivation::Relu),
            Some(EpilogueActivation::Sigmoid),
            Some(EpilogueActivation::HardSigmoid),
            Some(EpilogueActivation::HardSwish),
        ];
        for (index, &(m, n, k)) in shapes.iter().enumerate() {
            let norm = ChannelNorm {
                gamma: &gamma[..m],
                beta: &shift[..m],
                mean: &mean[..m],
                var: &var[..m],
                epsilon: 1e-5,
            };
            let row_bias = Bias {
                values: &bias[..m],
                axis: BiasAxis::Row,
            };
            let col_bias = Bias {
                values: &bias[..n],
                axis: BiasAxis::Col,
            };
            let mut cases = vec![(Epilogue::None, 0.0), (Epilogue::None, 0.5)];
            for bias in [row_bias, col_bias] {
                for activation in activations {
                    cases.push((Epilogue::with_activation(bias, activation), 0.0));
                }
            }
            // The sigmoid stays scalar after the norm; hard swish does not.
            for (bias, activation) in [
                (Some(row_bias), Some(EpilogueActivation::Sigmoid)),
                (None, Some(EpilogueActivation::HardSwish)),
            ] {
                cases.push((
                    Epilogue::BiasNorm {
                        bias,
                        norm,
                        activation,
                    },
                    0.0,
                ));
            }
            cases.push((
                Epilogue::Mask(GradMask {
                    input: &forward_input[..m * n],
                    grad: ActivationGrad::HardSwish,
                }),
                0.0,
            ));
            for (case, &(epilogue, beta)) in cases.iter().enumerate() {
                let (trans_a, trans_b) = ((index + case) % 2 == 1, (index + case) % 4 >= 2);
                let run = |isa: Isa| {
                    let mut c = if beta == 0.0 {
                        vec![f32::NAN; m * n]
                    } else {
                        c0[..m * n].to_vec()
                    };
                    isa.with(|| {
                        sgemm_epilogue(
                            trans_a,
                            trans_b,
                            m,
                            n,
                            k,
                            1.0,
                            &a[..m * k],
                            &b[..k * n],
                            beta,
                            &mut c,
                            epilogue,
                            Parallelism::single(),
                        )
                    })
                    .unwrap();
                    c
                };
                let reference = run(Isa::Scalar);
                for isa in Isa::available().into_iter().skip(1) {
                    let got = run(isa);
                    let same = got
                        .iter()
                        .zip(&reference)
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(
                        same,
                        "isa={isa} m={m} n={n} k={k} ta={trans_a} tb={trans_b} \
                         beta={beta} epilogue={epilogue:?}"
                    );
                }
            }
        }
    }

    /// The unfused reference a bias/activation epilogue must match exactly:
    /// bias-prefilled output, `beta == 1` GEMM, separate activation pass.
    #[allow(clippy::too_many_arguments)]
    fn unfused_reference(
        trans_a: bool,
        trans_b: bool,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        bias: Bias<'_>,
        activation: Option<EpilogueActivation>,
    ) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for (row_index, row) in c.chunks_mut(n).enumerate() {
            match bias.axis {
                BiasAxis::Row => row.fill(bias.values[row_index]),
                BiasAxis::Col => row.copy_from_slice(bias.values),
            }
        }
        sgemm(
            trans_a,
            trans_b,
            m,
            n,
            k,
            1.0,
            a,
            b,
            1.0,
            &mut c,
            Parallelism::single(),
        );
        if let Some(act) = activation {
            for x in c.iter_mut() {
                *x = act.apply(*x);
            }
        }
        c
    }

    /// The tentpole property: a fused epilogue is bit-identical to the
    /// bias-prefill + separate-activation reference across random shapes,
    /// transpose flags, bias axes, activations and thread counts — including
    /// shapes that span several KC blocks (the activation must fire only on
    /// the final K block's write-back) and shapes that carry several
    /// threads' worth of MACs, so the scoped-thread fused write-back
    /// genuinely runs multi-threaded (small shapes are clamped to one
    /// worker by the FLOP threshold in `parallel.rs`).
    #[test]
    fn property_fused_epilogue_matches_unfused_reference_to_zero_ulp() {
        let mut rng = StdRng::seed_from(0xF00D);
        let activations = [
            None,
            Some(EpilogueActivation::Relu),
            Some(EpilogueActivation::Sigmoid),
        ];
        for case in 0..44 {
            // Every eighth case is sized past the parallel threshold
            // (>= 2 threads' worth of MACs at the highest per-ISA floor) so
            // `Parallelism::fixed(2/4)` below actually splits rows.
            let (m, n, k) = if case % 8 == 7 {
                (
                    448 + (rng.next_u64() % 64) as usize,
                    320 + (rng.next_u64() % 32) as usize,
                    480 + (rng.next_u64() % 64) as usize,
                )
            } else {
                (
                    1 + (rng.next_u64() % 70) as usize,
                    1 + (rng.next_u64() % 70) as usize,
                    // Bias chains must survive KC spills: push k across the
                    // boundary on a third of the cases.
                    1 + (rng.next_u64() % if case % 3 == 0 { 600 } else { 60 }) as usize,
                )
            };
            let trans_a = rng.next_u64().is_multiple_of(2);
            let trans_b = rng.next_u64().is_multiple_of(2);
            let axis = if rng.next_u64().is_multiple_of(2) {
                BiasAxis::Row
            } else {
                BiasAxis::Col
            };
            let activation = activations[(rng.next_u64() % 3) as usize];
            let a = random_vec(m * k, &mut rng);
            let b = random_vec(k * n, &mut rng);
            let bias_values = random_vec(
                match axis {
                    BiasAxis::Row => m,
                    BiasAxis::Col => n,
                },
                &mut rng,
            );
            let bias = Bias {
                values: &bias_values,
                axis,
            };
            let expected = unfused_reference(trans_a, trans_b, m, n, k, &a, &b, bias, activation);
            for threads in [1usize, 2, 4] {
                let mut c = vec![f32::NAN; m * n];
                sgemm_epilogue(
                    trans_a,
                    trans_b,
                    m,
                    n,
                    k,
                    1.0,
                    &a,
                    &b,
                    0.0,
                    &mut c,
                    Epilogue::with_activation(bias, activation),
                    Parallelism::fixed(threads),
                );
                assert_bits_equal(
                    &c,
                    &expected,
                    &format!(
                        "case {case}: m={m} n={n} k={k} ta={trans_a} tb={trans_b} \
                         axis={axis:?} act={activation:?} threads={threads}"
                    ),
                );
            }
        }
    }

    /// The conv → batch-norm (→ activation) epilogue on a shape big enough
    /// to split across scoped threads: bit-identical to the unfused
    /// bias-GEMM + separate norm pass + separate activation pass, with the
    /// per-row statistics indexed by absolute row across every partition.
    #[test]
    fn norm_epilogue_matches_separate_passes_across_threads() {
        let mut rng = StdRng::seed_from(0x11AB);
        let (m, n, k) = (448, 320, 512); // ~73M MACs: two workers even at the AVX-512 floor
        let a = random_vec(m * k, &mut rng);
        let b = random_vec(k * n, &mut rng);
        let bias_values = random_vec(m, &mut rng);
        let gamma = random_vec(m, &mut rng);
        let beta_values = random_vec(m, &mut rng);
        let mean = random_vec(m, &mut rng);
        let var: Vec<f32> = (0..m).map(|_| rng.uniform_range(0.05, 2.0)).collect();
        let norm = ChannelNorm {
            gamma: &gamma,
            beta: &beta_values,
            mean: &mean,
            var: &var,
            epsilon: 1e-5,
        };
        let bias = Bias {
            values: &bias_values,
            axis: BiasAxis::Row,
        };
        let mut expected = unfused_reference(false, false, m, n, k, &a, &b, bias, None);
        for (row_index, row) in expected.chunks_mut(n).enumerate() {
            let params = norm.params(row_index);
            for x in row.iter_mut() {
                *x = params.transform(*x);
            }
            for x in row.iter_mut() {
                *x = EpilogueActivation::HardSwish.apply(*x);
            }
        }
        for threads in [1usize, 2, 4] {
            let mut c = vec![f32::NAN; m * n];
            sgemm_epilogue(
                false,
                false,
                m,
                n,
                k,
                1.0,
                &a,
                &b,
                0.0,
                &mut c,
                Epilogue::BiasNorm {
                    bias: Some(bias),
                    norm,
                    activation: Some(EpilogueActivation::HardSwish),
                },
                Parallelism::fixed(threads),
            );
            assert_bits_equal(&c, &expected, &format!("norm epilogue, threads={threads}"));
        }
    }

    /// The backward-fusion property: a [`Epilogue::Mask`] GEMM is
    /// bit-identical to the unfused GEMM followed by the standalone
    /// derivative-then-multiply pass, across random shapes, transpose
    /// flags, every activation derivative and thread counts — including
    /// shapes spanning several KC blocks (the mask must fire only on the
    /// final K block's write-back) and shapes with several threads' worth
    /// of MACs so the chunk-aligned mask slicing genuinely runs threaded.
    #[test]
    fn property_grad_mask_epilogue_matches_unfused_reference_to_zero_ulp() {
        let mut rng = StdRng::seed_from(0x6AAD);
        let grads = [
            ActivationGrad::Relu,
            ActivationGrad::Sigmoid,
            ActivationGrad::HardSigmoid,
            ActivationGrad::HardSwish,
        ];
        for case in 0..32 {
            let (m, n, k) = if case % 8 == 7 {
                (
                    448 + (rng.next_u64() % 64) as usize,
                    320 + (rng.next_u64() % 32) as usize,
                    480 + (rng.next_u64() % 64) as usize,
                )
            } else {
                (
                    1 + (rng.next_u64() % 70) as usize,
                    1 + (rng.next_u64() % 70) as usize,
                    1 + (rng.next_u64() % if case % 3 == 0 { 600 } else { 60 }) as usize,
                )
            };
            let trans_a = rng.next_u64().is_multiple_of(2);
            let trans_b = rng.next_u64().is_multiple_of(2);
            let grad = grads[(rng.next_u64() % grads.len() as u64) as usize];
            let a = random_vec(m * k, &mut rng);
            let b = random_vec(k * n, &mut rng);
            let forward_input = random_vec(m * n, &mut rng);
            // Unfused reference: plain GEMM, then the standalone activation
            // backward (derivative pass + element-wise product).
            let mut expected = vec![0.0f32; m * n];
            sgemm(
                trans_a,
                trans_b,
                m,
                n,
                k,
                1.0,
                &a,
                &b,
                0.0,
                &mut expected,
                Parallelism::single(),
            );
            for (slot, &x) in expected.iter_mut().zip(&forward_input) {
                *slot *= grad.derivative(x);
            }
            for threads in [1usize, 2, 4] {
                let mut c = vec![f32::NAN; m * n];
                sgemm_epilogue(
                    trans_a,
                    trans_b,
                    m,
                    n,
                    k,
                    1.0,
                    &a,
                    &b,
                    0.0,
                    &mut c,
                    Epilogue::Mask(GradMask {
                        input: &forward_input,
                        grad,
                    }),
                    Parallelism::fixed(threads),
                );
                assert_bits_equal(
                    &c,
                    &expected,
                    &format!(
                        "case {case}: m={m} n={n} k={k} ta={trans_a} tb={trans_b} \
                         grad={grad:?} threads={threads}"
                    ),
                );
            }
        }
    }

    #[test]
    fn grad_mask_on_degenerate_k_masks_zeros() {
        // k == 0: the chain is 0 * derivative — still multiplied, so the
        // sign of zero matches the unfused pass.
        let forward_input = [1.0f32, -2.0, 0.5, -0.5];
        let mut c = [f32::NAN; 4];
        sgemm_epilogue(
            false,
            false,
            2,
            2,
            0,
            1.0,
            &[],
            &[],
            0.0,
            &mut c,
            Epilogue::Mask(GradMask {
                input: &forward_input,
                grad: ActivationGrad::Relu,
            }),
            Parallelism::single(),
        );
        assert_eq!(c, [0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn degenerate_epilogue_broadcasts_activated_bias() {
        // k == 0: the chain is just the bias, activated.
        let bias_values = [2.0f32, -3.0];
        let mut c = [f32::NAN; 4];
        sgemm_epilogue(
            false,
            false,
            2,
            2,
            0,
            1.0,
            &[],
            &[],
            0.0,
            &mut c,
            Epilogue::BiasRelu(Bias {
                values: &bias_values,
                axis: BiasAxis::Row,
            }),
            Parallelism::single(),
        );
        assert_eq!(c, [2.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "bias epilogue requires beta == 0")]
    fn bias_epilogue_rejects_nonzero_beta() {
        let bias_values = [1.0f32];
        let mut c = [0.0f32; 1];
        sgemm_epilogue(
            false,
            false,
            1,
            1,
            1,
            1.0,
            &[1.0],
            &[1.0],
            1.0,
            &mut c,
            Epilogue::Bias(Bias {
                values: &bias_values,
                axis: BiasAxis::Col,
            }),
            Parallelism::single(),
        );
    }

    #[test]
    fn beta_zero_overwrites_poisoned_output() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let mut c = [f32::NAN; 1];
        sgemm(
            false,
            false,
            1,
            1,
            2,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
            Parallelism::single(),
        );
        assert_eq!(c[0], 11.0);
    }

    #[test]
    fn degenerate_k_applies_beta_only() {
        let mut c = [2.0f32, -4.0];
        sgemm(
            false,
            false,
            1,
            2,
            0,
            1.0,
            &[],
            &[],
            0.5,
            &mut c,
            Parallelism::single(),
        );
        assert_eq!(c, [1.0, -2.0]);
        let mut c = [f32::NAN, f32::NAN];
        sgemm(
            false,
            false,
            1,
            2,
            0,
            1.0,
            &[],
            &[],
            0.0,
            &mut c,
            Parallelism::single(),
        );
        assert_eq!(c, [0.0, 0.0]);
    }

    #[test]
    fn alpha_zero_short_circuits_to_beta_scaling() {
        let a = [f32::NAN; 4];
        let b = [f32::NAN; 4];
        let mut c = [1.0f32, 2.0, 3.0, 4.0];
        sgemm(
            false,
            false,
            2,
            2,
            2,
            0.0,
            &a,
            &b,
            2.0,
            &mut c,
            Parallelism::single(),
        );
        assert_eq!(c, [2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "sgemm: A buffer")]
    fn mismatched_buffers_panic() {
        let mut c = [0.0f32; 4];
        sgemm(
            false,
            false,
            2,
            2,
            2,
            1.0,
            &[0.0; 3],
            &[0.0; 4],
            0.0,
            &mut c,
            Parallelism::single(),
        );
    }
}
