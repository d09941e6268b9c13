//! Neural-network building blocks for the MTL-Split reproduction.
//!
//! This crate layers a small but complete deep-learning toolkit on top of
//! [`mtlsplit_tensor`]: trainable [`Parameter`]s, a [`Layer`] trait with
//! explicit forward/backward passes, the concrete layers needed by the
//! paper's three backbone families (dense and depthwise convolutions, batch
//! normalisation, ReLU/hard-swish activations, pooling, dropout, linear
//! layers), classification and regression losses, and the SGD and AdamW
//! optimizers used for training and fine-tuning.
//!
//! Differentiation is *layer-wise reverse mode*: each layer caches whatever
//! it needs during `forward` and produces the input gradient (plus its own
//! parameter gradients) during `backward`. A [`Sequential`] container chains
//! layers; the multi-head topology of MTL-Split is composed in
//! `mtlsplit-core` by fanning one backbone output into several sequential
//! heads and summing the gradients that come back.
//!
//! Forward passes are driven by a typed [`RunMode`] instead of a boolean
//! flag: [`RunMode::Train`] carries the RNG that stochastic layers (dropout)
//! draw from and runs through `&mut self` so layers can cache activations
//! for [`Layer::backward`]; inference goes through [`Layer::infer`], which
//! takes `&self`, never mutates, and therefore lets a frozen model be shared
//! across threads behind an `Arc`.
//!
//! # The planned, zero-allocation runtimes
//!
//! Both phases have a planned counterpart running on a recycled-buffer
//! [`TensorArena`]:
//!
//! * **Inference** — [`Layer::infer_into`] draws every output from the
//!   arena and [`InferPlan`] packages the per-caller arena with a warm-up
//!   pass; adjacent fusable layers (conv → batch-norm → activation,
//!   GEMM → activation) collapse into single fused kernels at plan time.
//! * **Training** — [`Layer::forward_into`] / [`Layer::backward_into`] are
//!   the training twins: outputs, cached activations, and every gradient
//!   temporary come from the arena, replaced caches recycle the buffer the
//!   previous step used (cross-step reuse), and [`TrainPlan`] packages the
//!   arena for a whole training loop — after two warm-up steps (see
//!   [`TrainPlan`]), a training step performs **zero heap allocations**. On
//!   the backward pass, a GEMM-backed layer preceded by a fusable activation
//!   absorbs the activation's gradient mask into its input-gradient
//!   kernel's write-back ([`GradMask`] riding [`mtlsplit_tensor::Epilogue::Mask`]),
//!   a `Linear` layer's bias-gradient reduction runs on the GEMM's
//!   single-row GEMV fast path instead of a separate sum pass, and a
//!   network's first layer can skip its input gradient entirely
//!   ([`Layer::backward_into_params_only`]).
//!
//! Both default-implement via the allocating paths, so third-party layers
//! keep working unchanged. The contract mirrors `infer_into`'s: planned
//! results — outputs, caches, input gradients, parameter gradients, and
//! therefore every parameter over a full training run — must be
//! bit-identical to the allocating path for every thread count
//! (property-tested at the workspace level).
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! use mtlsplit_nn::{Layer, Linear, Relu, RunMode, Sequential, CrossEntropyLoss, Sgd, Optimizer};
//! use mtlsplit_tensor::{StdRng, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn Error>> {
//! let mut rng = StdRng::seed_from(0);
//! let mut net = Sequential::new()
//!     .push(Linear::new(4, 16, &mut rng))
//!     .push(Relu::new())
//!     .push(Linear::new(16, 3, &mut rng));
//! let x = Tensor::randn(&[8, 4], 0.0, 1.0, &mut rng);
//! let targets = vec![0usize, 1, 2, 0, 1, 2, 0, 1];
//!
//! let mut train_rng = StdRng::seed_from(1);
//! let logits = net.forward(&x, RunMode::train(&mut train_rng))?;
//! let loss = CrossEntropyLoss::new();
//! let (value, grad) = loss.forward_backward(&logits, &targets)?;
//! net.backward(&grad)?;
//! Sgd::new(0.1).step(&mut net.parameters_mut())?;
//! assert!(value.is_finite());
//!
//! // Inference is immutable: `infer` takes `&self`.
//! let frozen = &net;
//! let predictions = frozen.infer(&x)?;
//! assert_eq!(predictions.dims(), &[8, 3]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod activation;
mod conv_layer;
mod dropout;
mod error;
mod init;
mod linear;
mod loss;
mod norm;
mod optim;
mod param;
mod plan;
mod pool_layer;
mod sequential;

pub use activation::{HardSigmoid, HardSwish, Relu, Sigmoid};
pub use conv_layer::{Conv2d, DepthwiseConv2d, PointwiseConv2d};
pub use dropout::Dropout;
pub use error::{NnError, Result};
pub use init::{kaiming_normal, xavier_uniform};
pub use linear::{Flatten, Linear};
pub use loss::{CrossEntropyLoss, MseLoss};
pub use norm::BatchNorm2d;
pub use optim::{AdamW, LrSchedule, Optimizer, Sgd};
pub use param::Parameter;
pub use plan::{InferPlan, TrainPlan};
pub use pool_layer::{AvgPool2d, GlobalAvgPool2d, MaxPool2d};
pub use sequential::Sequential;

// Re-exported so planned-inference and planned-training callers need no
// direct tensor-crate dependency for the arena/epilogue vocabulary.
pub use mtlsplit_tensor::{ActivationGrad, ChannelNorm, EpilogueActivation, GradMask, TensorArena};

// Re-exported so callers can pull the named per-layer latency profile (one
// entry per possibly-fused layer window, aggregated from the spans the
// planned passes record) without a direct obs-crate dependency.
pub use mtlsplit_obs::{layer_profile, LayerProfile};

use mtlsplit_tensor::{StdRng, Tensor};

/// The typed run mode of a forward pass, replacing the old `training: bool`
/// flag.
///
/// [`RunMode::Train`] carries the RNG that stochastic layers draw from, so
/// layers themselves hold no RNG state and two training runs driven by the
/// same seed are exactly reproducible. [`RunMode::Infer`] runs the pure
/// inference path (dropout is the identity, batch norm reads its running
/// statistics) and writes no caches.
#[derive(Debug)]
pub enum RunMode<'a> {
    /// Training-time behaviour: dropout active (drawing from `rng`), batch
    /// statistics computed and running averages updated, activations cached
    /// for [`Layer::backward`].
    Train {
        /// The RNG stochastic layers draw from during this pass.
        rng: &'a mut StdRng,
    },
    /// Inference behaviour: deterministic, cache-free, mutation-free — the
    /// same computation [`Layer::infer`] performs through `&self`.
    Infer,
}

impl<'a> RunMode<'a> {
    /// Shorthand for [`RunMode::Train`] borrowing `rng`.
    pub fn train(rng: &'a mut StdRng) -> Self {
        RunMode::Train { rng }
    }

    /// Whether this is the training mode.
    pub fn is_train(&self) -> bool {
        matches!(self, RunMode::Train { .. })
    }

    /// Reborrows the mode so a container can hand it to each child layer in
    /// turn without giving up ownership.
    pub fn reborrow(&mut self) -> RunMode<'_> {
        match self {
            RunMode::Train { rng } => RunMode::Train { rng },
            RunMode::Infer => RunMode::Infer,
        }
    }
}

/// A differentiable network component.
///
/// Layers own their [`Parameter`]s, cache whatever activations they need
/// during [`Layer::forward`], and consume that cache in [`Layer::backward`]
/// to produce the gradient with respect to their input while accumulating
/// gradients into their parameters.
///
/// Training and inference are separate paths:
///
/// * [`Layer::forward`] takes `&mut self` plus a [`RunMode`]. In
///   [`RunMode::Train`] it caches activations for the subsequent backward
///   pass; in [`RunMode::Infer`] it behaves exactly like [`Layer::infer`]
///   (useful when the caller only holds a `&mut` handle mid-training).
/// * [`Layer::infer`] takes `&self` and never mutates: no cache writes, no
///   dropout state, batch norm reads its running statistics. A frozen model
///   can therefore serve concurrent inference from shared (`Arc`) state,
///   which is what the multi-worker `InferenceServer` in `mtlsplit-serve`
///   relies on. The trait requires `Sync` for exactly that reason.
///
/// The trait is object-safe so heterogeneous layers can be stored in a
/// [`Sequential`] container.
pub trait Layer: Send + Sync {
    /// Runs the layer on `input` under the given [`RunMode`].
    ///
    /// In [`RunMode::Train`] the layer caches whatever [`Layer::backward`]
    /// will need; in [`RunMode::Infer`] it must produce the same output as
    /// [`Layer::infer`] and leave every cache untouched.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor, mode: RunMode<'_>) -> Result<Tensor>;

    /// Runs the layer on `input` in inference mode through `&self`.
    ///
    /// Implementations must not mutate any state (the signature enforces it
    /// short of interior mutability, which layers must not use).
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn infer(&self, input: &Tensor) -> Result<Tensor>;

    /// Runs the layer on `input` in inference mode, drawing the output
    /// buffer from `ctx` instead of the heap.
    ///
    /// This is the planned, zero-allocation inference path: implementations
    /// take their output storage with [`TensorArena::take`] (contents
    /// unspecified — they must overwrite every element) and return it as an
    /// owned [`Tensor`]; the *caller* recycles the input once it is done
    /// with it. Results must be bit-identical to [`Layer::infer`].
    ///
    /// The default implementation simply calls the allocating
    /// [`Layer::infer`], so third-party layers keep working unchanged —
    /// they just do not benefit from the arena.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn infer_into(&self, input: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        let _ = ctx;
        self.infer(input)
    }

    /// If this layer is a pure element-wise activation that a preceding
    /// GEMM-backed layer can absorb into its fused epilogue, returns it.
    ///
    /// [`Sequential`] consults this during its planned inference pass: when
    /// layer `i + 1` reports an activation and layer `i` accepts it via
    /// [`Layer::infer_into_fused`], the pair runs as one fused kernel.
    fn fused_activation(&self) -> Option<EpilogueActivation> {
        None
    }

    /// Runs the layer with `activation` fused into its compute kernel's
    /// epilogue, if the layer supports fusion.
    ///
    /// Returns `None` when the layer cannot absorb the activation (the
    /// default), in which case the caller runs the unfused two-step path.
    /// When fusion happens, the result must be bit-identical to
    /// [`Layer::infer`] followed by the activation layer's own
    /// [`Layer::infer`].
    fn infer_into_fused(
        &self,
        input: &Tensor,
        activation: EpilogueActivation,
        ctx: &mut TensorArena,
    ) -> Option<Result<Tensor>> {
        let _ = (input, activation, ctx);
        None
    }

    /// If this layer is an inference-time per-channel affine normalisation
    /// (batch norm reading its running statistics) that a preceding
    /// convolution can absorb into its epilogue, returns the statistics.
    fn fused_channel_norm(&self) -> Option<ChannelNorm<'_>> {
        None
    }

    /// Runs the layer with a following batch-norm (and optionally the
    /// activation after it) fused into its kernel's write-back.
    ///
    /// Returns `None` when the layer cannot absorb the norm (the default,
    /// and also the right answer when the norm's channel count does not
    /// match — the caller then runs the unfused path, which surfaces the
    /// canonical shape error). When fusion happens, the result must be
    /// bit-identical to the unfused layer → norm → activation chain.
    fn infer_into_normed(
        &self,
        input: &Tensor,
        norm: ChannelNorm<'_>,
        activation: Option<EpilogueActivation>,
        ctx: &mut TensorArena,
    ) -> Option<Result<Tensor>> {
        let _ = (input, norm, activation, ctx);
        None
    }

    /// Runs the layer under `mode`, drawing the output — and, in
    /// [`RunMode::Train`], every cached activation — from `ctx` instead of
    /// the heap.
    ///
    /// This is the planned, zero-allocation *training* counterpart of
    /// [`Layer::infer_into`]: implementations take output and cache storage
    /// with [`TensorArena::take`] (contents unspecified — they must
    /// overwrite every element) and recycle the cache buffers they replace,
    /// so after the first (warm-up) step a training loop reuses the same
    /// memory across steps. Results and cached state must be bit-identical
    /// to [`Layer::forward`].
    ///
    /// The default implementation runs the allocating [`Layer::forward`] in
    /// train mode (so third-party layers keep working unchanged) and the
    /// planned [`Layer::infer_into`] in infer mode.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: RunMode<'_>,
        ctx: &mut TensorArena,
    ) -> Result<Tensor> {
        if mode.is_train() {
            self.forward(input, mode)
        } else {
            self.infer_into(input, ctx)
        }
    }

    /// Propagates `grad_output` backwards through the layer, returning the
    /// gradient with respect to the layer input and accumulating parameter
    /// gradients.
    ///
    /// # Errors
    ///
    /// Returns an error if called before `forward` or with a gradient whose
    /// shape does not match the cached activation.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// [`Layer::backward`] drawing the returned input gradient — and every
    /// gradient temporary — from `ctx` instead of the heap.
    ///
    /// Implementations accumulate parameter gradients exactly like
    /// [`Layer::backward`] (the temporaries go back to the arena once
    /// accumulated) and must produce bit-identical gradients. The *caller*
    /// recycles the returned tensor once consumed. The default
    /// implementation simply calls the allocating [`Layer::backward`].
    ///
    /// # Errors
    ///
    /// Returns an error if called before a train-mode forward or with a
    /// mismatched gradient shape.
    fn backward_into(&mut self, grad_output: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        let _ = ctx;
        self.backward(grad_output)
    }

    /// If this layer is a pure element-wise activation whose backward pass a
    /// preceding GEMM-backed layer can absorb into its backward GEMM's
    /// write-back, returns the mask (derivative kind plus the cached forward
    /// input it is evaluated at).
    ///
    /// [`Sequential`] consults this during its planned backward pass: when
    /// layer `i - 1` reports a mask and layer `i` accepts it via
    /// [`Layer::backward_into_masked`], the activation's backward collapses
    /// into layer `i`'s input-gradient GEMM. Returns `None` (the default)
    /// when the layer is not a fusable activation or has no cached forward
    /// input yet.
    fn fused_grad_mask(&self) -> Option<GradMask<'_>> {
        None
    }

    /// Runs the layer's backward pass with a following (in backward order)
    /// activation's gradient mask fused into the input-gradient kernel's
    /// write-back, if the layer supports it.
    ///
    /// Returns `None` when the layer cannot absorb the mask (the default,
    /// and also the right answer when the mask does not align with the
    /// layer's input gradient), in which case the caller runs the unfused
    /// two-step path. When fusion happens, the result must be bit-identical
    /// to [`Layer::backward`] followed by the activation layer's own
    /// backward pass.
    fn backward_into_masked(
        &mut self,
        grad_output: &Tensor,
        mask: GradMask<'_>,
        ctx: &mut TensorArena,
    ) -> Option<Result<Tensor>> {
        let _ = (grad_output, mask, ctx);
        None
    }

    /// Backward pass that accumulates parameter gradients but skips
    /// computing — or even allocating — the gradient with respect to the
    /// layer input.
    ///
    /// This is the planned-training optimisation for a network's *first*
    /// layer, whose input is raw data and needs no gradient: the
    /// input-gradient kernels simply never run. Parameter gradients must be
    /// bit-identical to [`Layer::backward_into`]. Returns `None` (the
    /// default) when the layer has no cheaper params-only path — callers
    /// then run the full backward and discard the input gradient.
    fn backward_into_params_only(
        &mut self,
        grad_output: &Tensor,
        ctx: &mut TensorArena,
    ) -> Option<Result<()>> {
        let _ = (grad_output, ctx);
        None
    }

    /// Visits every trainable parameter in the layer's stable order.
    ///
    /// This is the allocation-free counterpart of
    /// [`Layer::parameters_mut`]: optimizers and `zero_grad` sweeps on the
    /// planned training path walk parameters through this visitor instead
    /// of collecting `Vec`s each step. The default delegates to
    /// [`Layer::parameters_mut`]; layers that own parameters (or children)
    /// override it to visit directly.
    fn for_each_parameter(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for p in self.parameters_mut() {
            f(p);
        }
    }

    /// Mutable references to the layer's trainable parameters.
    fn parameters_mut(&mut self) -> Vec<&mut Parameter>;

    /// Immutable references to the layer's trainable parameters.
    fn parameters(&self) -> Vec<&Parameter>;

    /// Total number of trainable scalar parameters.
    fn parameter_count(&self) -> usize {
        self.parameters().iter().map(|p| p.value().len()).sum()
    }

    /// A short human-readable description used in summaries.
    fn name(&self) -> &'static str;
}

/// Replaces a layer's cached tensor with a copy of `source` drawn from the
/// arena, recycling the buffer the previous cache held.
///
/// This is the cross-step reuse discipline of the planned training path:
/// every step's caches are written into the buffers the previous step's
/// caches occupied, so after the warm-up step the cache churn allocates
/// nothing.
pub(crate) fn cache_from_arena(
    slot: &mut Option<Tensor>,
    source: &Tensor,
    ctx: &mut TensorArena,
) -> Result<()> {
    if let Some(old) = slot.take() {
        ctx.recycle(old);
    }
    let mut buffer = ctx.take(source.len());
    buffer.copy_from_slice(source.as_slice());
    *slot = Some(Tensor::from_vec(buffer, source.dims())?);
    Ok(())
}

#[cfg(test)]
mod run_mode_tests {
    use super::*;

    #[test]
    fn run_mode_reborrow_preserves_the_variant() {
        let mut rng = StdRng::seed_from(0);
        let mut train = RunMode::train(&mut rng);
        assert!(train.is_train());
        assert!(train.reborrow().is_train());
        // The original mode is still usable after the reborrow ends.
        assert!(train.is_train());
        let mut infer = RunMode::Infer;
        assert!(!infer.is_train());
        assert!(!infer.reborrow().is_train());
    }

    #[test]
    fn boxed_layers_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn Layer>();
        assert_send_sync::<Box<dyn Layer>>();
    }
}
