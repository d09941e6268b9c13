//! Dense tensor primitives for the MTL-Split reproduction.
//!
//! This crate provides the numerical substrate used by every other crate in
//! the workspace: a row-major, heap-allocated `f32` [`Tensor`] with the
//! operations a small convolutional multi-task network needs — element-wise
//! arithmetic, broadcasting over the leading (batch) axis, matrix
//! multiplication, im2col-based 2-D convolution, pooling and reductions.
//!
//! # The compute-kernel layer
//!
//! Almost every forward and backward pass in the workspace bottoms out in
//! one kernel: the packed, cache-blocked [`sgemm`]. [`Tensor::matmul`] is a
//! thin shape-checked wrapper over it; dense and grouped [`conv2d`] (and
//! [`conv2d_backward`]) are grouped im2col/col2im lowerings onto it; the
//! `mtlsplit-nn` linear layer drives it directly with transpose flags so
//! no pass materialises a transposed copy. Depthwise convolutions are the
//! exception: both directions run direct tap kernels that keep the
//! lowered form's per-element chains, and so its bits.
//!
//! ## The GEMM contract
//!
//! `sgemm(trans_a, trans_b, m, n, k, alpha, a, b, beta, c, par)` computes
//! `C = alpha * op(A) * op(B) + beta * C` with these guarantees:
//!
//! * **Fixed accumulation chain.** Every output element is produced by one
//!   ascending-`k` accumulation chain, `beta`-scaled initial value first
//!   (`beta == 0` ignores — never multiplies — the prior contents of `C`).
//! * **Thread-count invariance.** [`Parallelism`] only partitions *rows of
//!   `C`* across `std::thread::scope` workers; each element is written by
//!   exactly one thread running exactly the chain above, so results are
//!   bit-identical for every thread count. The same argument covers the
//!   convolution drivers, which parallelise over `(batch, group)` output
//!   units.
//! * **Oracle equality.** For `alpha == 1, beta == 0` the result is
//!   bit-identical (0 ULP) to the naive triple loop, enforced by property
//!   tests against the `#[cfg(test)]` oracle kept in `kernels.rs`.
//!
//! * **ISA invariance.** The GEMM core is selected at runtime from
//!   explicitly vectorised micro-kernels (scalar, AVX2+FMA, AVX-512 — see
//!   [`Isa`]). Every path evaluates the same per-element accumulation
//!   chain, and on hardware with FMA every path (the scalar one included,
//!   via [`fused_mul_add`]) accumulates with the same correctly-rounded
//!   fused multiply-add — so on a given machine all dispatch paths produce
//!   bit-identical results. `MTLSPLIT_FORCE_ISA=scalar|avx2|avx512` pins a
//!   path process-wide; [`Isa::with`] pins one for a closure. Across
//!   *machines* with different FMA availability, results may differ by
//!   normal rounding.
//!
//! Kernels with no explicit configuration read the calling thread's ambient
//! [`Parallelism::current`] (default: one thread per core); training and
//! serving install their configured budgets via [`Parallelism::make_current`].
//! A per-ISA FLOP threshold caps the worker count — the faster the dispatch
//! path, the more multiply-accumulates a problem must offer per thread — so
//! small problems never pay scoped-thread spawn cost; the cap only ever
//! reduces the thread count, never changes results.
//!
//! ## The epilogue contract
//!
//! [`sgemm_epilogue`] fuses a bias, an optional per-row batch-norm and an
//! optional activation ([`Epilogue`]`::{None, Bias, BiasRelu, BiasSigmoid,
//! BiasHardSigmoid, BiasHardSwish, BiasNorm}`) into the GEMM:
//!
//! * the **bias initialises** each element's accumulation chain (`acc =
//!   bias`, then the ascending-`k` adds) — the exact chain the bias-prefill
//!   + `beta == 1` idiom produced, so not a bit changes;
//! * the **batch-norm** of a [`Epilogue::BiasNorm`] epilogue
//!   ([`ChannelNorm`], one statistics row per output row) and the
//!   **activation** are applied exactly once, in that order, in the final
//!   `K` block's register write-back — each evaluating the same scalar
//!   expression as the standalone `BatchNorm2d`/activation layers.
//!
//! Fused passes are therefore bit-identical to the unfused
//! GEMM-then-norm-then-activation chains for every thread count, while
//! skipping the separate norm and activation sweeps over the output. Any
//! non-`None` epilogue requires `beta == 0`.
//!
//! # Zero-allocation inference
//!
//! [`TensorArena`] is a recycling buffer pool: planned inference paths take
//! output buffers from it and return finished intermediates to it, so the
//! steady-state forward pass performs no heap allocation. [`conv2d_fused`]
//! and the `*_into` pooling kernels write into such caller-provided buffers;
//! internal scratch (GEMM packing, im2col columns) is thread-local and
//! reused across calls.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! use mtlsplit_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn Error>> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod arena;
mod conv;
mod error;
mod kernels;
mod ops;
mod parallel;
mod pool;
mod rng;
mod shape;
// The SIMD layer is the one part of the crate allowed to use `unsafe`: the
// intrinsic calls live in `simd::x86` behind `#[target_feature]` wrappers
// whose safe entry points re-check CPU support.
#[allow(unsafe_code)]
mod simd;
mod tensor;

pub use arena::TensorArena;
pub use conv::{
    col2im, conv2d, conv2d_backward, conv2d_backward_into, conv2d_backward_params_into,
    conv2d_cols_len, conv2d_fused, conv2d_fused_caching, conv2d_im2col, im2col, Conv2dSpec,
    ConvFusion,
};
pub use error::{Result, TensorError};
pub use kernels::{
    fused_mul_add, sgemm, sgemm_epilogue, ActivationGrad, Bias, BiasAxis, ChannelNorm, Epilogue,
    EpilogueActivation, GradMask, NormParams, FUSED_MULTIPLY_ADD, MR, NR,
};
pub use ops::{log_softmax_rows, log_softmax_rows_into, softmax_rows};
pub use parallel::Parallelism;
pub use pool::{
    avg_pool2d, avg_pool2d_backward, avg_pool2d_backward_into, avg_pool2d_into, global_avg_pool2d,
    global_avg_pool2d_into, max_pool2d, max_pool2d_backward, max_pool2d_backward_into,
    max_pool2d_infer, max_pool2d_infer_into, max_pool2d_train_into, pooled_dims,
};
pub use rng::StdRng;
pub use shape::{Shape, MAX_RANK};
pub use simd::{active_isa, fma_available, resolve_isa, Isa};
pub use tensor::Tensor;
