//! A sequential container chaining heterogeneous layers.

use mtlsplit_obs as obs;
use mtlsplit_tensor::{Tensor, TensorArena};

use crate::error::Result;
use crate::param::Parameter;
use crate::{Layer, RunMode};

/// An ordered stack of layers applied one after another.
///
/// `Sequential` is itself a [`Layer`], so stacks can be nested (a backbone
/// stage inside a backbone, a head appended to a backbone for the
/// local-only-computing baseline, and so on).
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// use mtlsplit_nn::{Layer, Linear, Relu, Sequential};
/// use mtlsplit_tensor::{StdRng, Tensor};
///
/// # fn main() -> Result<(), Box<dyn Error>> {
/// let mut rng = StdRng::seed_from(0);
/// let mlp = Sequential::new()
///     .push(Linear::new(4, 8, &mut rng))
///     .push(Relu::new())
///     .push(Linear::new(8, 2, &mut rng));
/// let y = mlp.infer(&Tensor::zeros(&[1, 4]))?;
/// assert_eq!(y.dims(), &[1, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer, returning the stack for chaining.
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the stack.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack contains no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer names in order, useful for printing a model summary.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Splits the stack in two at `index`: `self` keeps layers `[0, index)`
    /// and the returned stack owns layers `[index, len)`.
    ///
    /// Running the two halves back to back is bit-identical to running the
    /// original stack on the allocating [`Layer::infer`] path, and on the
    /// planned [`Layer::infer_into`] path whenever `index` does not land
    /// inside a fusion window — fused epilogues are themselves bit-identical
    /// to their unfused layer chains, so in practice any cut point preserves
    /// outputs exactly. This is the substrate for variable-depth deployment
    /// splits: an edge prefix and a server tail cut at a stage boundary.
    ///
    /// # Panics
    ///
    /// Panics if `index > len()`, mirroring [`Vec::split_off`].
    pub fn split_off(&mut self, index: usize) -> Sequential {
        Sequential {
            layers: self.layers.split_off(index),
        }
    }

    /// Freezes (or unfreezes) every parameter in the stack.
    ///
    /// Freezing the shared backbone while leaving the task heads trainable is
    /// one of the fine-tuning configurations studied in the paper (Eq. 6 with
    /// `eta = 0`).
    pub fn set_frozen(&mut self, frozen: bool) {
        for p in self.parameters_mut() {
            p.set_frozen(frozen);
        }
    }

    /// Sets the learning-rate multiplier of every parameter in the stack.
    pub fn set_lr_scale(&mut self, scale: f32) {
        for p in self.parameters_mut() {
            p.set_lr_scale(scale);
        }
    }

    /// Resets the gradient of every parameter in the stack.
    pub fn zero_grad(&mut self) {
        for p in self.parameters_mut() {
            p.zero_grad();
        }
    }

    /// The planned backward pass with the *input* gradient discarded: every
    /// layer backpropagates normally (parameter gradients bit-identical to
    /// [`Layer::backward_into`]), but the first layer skips producing the
    /// gradient with respect to the network input when it supports
    /// [`Layer::backward_into_params_only`] — the right call when the input
    /// is raw data, as in a backbone's training step.
    ///
    /// # Errors
    ///
    /// Returns an error if called before a train-mode forward or with a
    /// mismatched gradient shape.
    pub fn backward_into_discarding_input(
        &mut self,
        grad_output: &Tensor,
        ctx: &mut TensorArena,
    ) -> Result<()> {
        if let Some(output) = self.run_backward_into(grad_output, ctx, true)? {
            ctx.recycle(output);
        }
        Ok(())
    }

    /// The shared planned backward loop; with `discard_input` the first
    /// layer may take its params-only path, in which case no input gradient
    /// is returned.
    fn run_backward_into(
        &mut self,
        grad_output: &Tensor,
        ctx: &mut TensorArena,
        discard_input: bool,
    ) -> Result<Option<Tensor>> {
        let mut current: Option<Tensor> = None;
        let mut index = self.layers.len();
        while index > 0 {
            let i = index - 1;
            let grad = current.as_ref().unwrap_or(grad_output);
            // Layer-profile span: dims = [layer index, layers fused]; the
            // width is patched once the fusion decision is known.
            let mut window_span = obs::span_dims(
                self.layers[i].name(),
                obs::SpanKind::Layer,
                [i as u32, 1, 0, 0],
            );
            if discard_input && i == 0 {
                if let Some(result) = self.layers[0].backward_into_params_only(grad, ctx) {
                    result?;
                    if let Some(previous) = current.take() {
                        ctx.recycle(previous);
                    }
                    return Ok(None);
                }
            }
            let mut fused: Option<Result<Tensor>> = None;
            if i >= 1 {
                let (head, tail) = self.layers.split_at_mut(i);
                if let Some(mask) = head[i - 1].fused_grad_mask() {
                    fused = tail[0].backward_into_masked(grad, mask, ctx);
                }
            }
            let (next, consumed) = match fused {
                Some(result) => (result?, 2),
                None => (self.layers[i].backward_into(grad, ctx)?, 1),
            };
            window_span.set_dim(1, consumed as u32);
            drop(window_span);
            if let Some(previous) = current.take() {
                ctx.recycle(previous);
            }
            current = Some(next);
            index -= consumed;
        }
        match current {
            Some(output) => Ok(Some(output)),
            None => {
                // Empty stack: the identity, copied into an arena buffer.
                let mut out = ctx.take(grad_output.len());
                out.copy_from_slice(grad_output.as_slice());
                Ok(Some(Tensor::from_vec(out, grad_output.dims())?))
            }
        }
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layer_names())
            .field("parameters", &self.parameter_count())
            .finish()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, mut mode: RunMode<'_>) -> Result<Tensor> {
        let mut current = input.clone();
        for layer in &mut self.layers {
            current = layer.forward(&current, mode.reborrow())?;
        }
        Ok(current)
    }

    fn forward_into(
        &mut self,
        input: &Tensor,
        mut mode: RunMode<'_>,
        ctx: &mut TensorArena,
    ) -> Result<Tensor> {
        if !mode.is_train() {
            // Inference goes through the fusing planned path.
            return self.infer_into(input, ctx);
        }
        // Train mode: no forward fusion (batch norm needs batch statistics,
        // every layer needs its backward cache), but every intermediate
        // comes from — and returns to — the arena. Layer order, and with it
        // the RNG draw order of stochastic layers, matches `forward`.
        let mut current: Option<Tensor> = None;
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let source = current.as_ref().unwrap_or(input);
            let _layer_span =
                obs::span_dims(layer.name(), obs::SpanKind::Layer, [i as u32, 1, 0, 0]);
            let next = layer.forward_into(source, mode.reborrow(), ctx)?;
            if let Some(previous) = current.take() {
                ctx.recycle(previous);
            }
            current = Some(next);
        }
        match current {
            Some(output) => Ok(output),
            None => {
                // Empty stack: the identity, copied into an arena buffer.
                let mut out = ctx.take(input.len());
                out.copy_from_slice(input.as_slice());
                Ok(Tensor::from_vec(out, input.dims())?)
            }
        }
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        let mut current = input.clone();
        for layer in &self.layers {
            current = layer.infer(&current)?;
        }
        Ok(current)
    }

    fn infer_into(&self, input: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        // The planned pass: every intermediate comes from (and returns to)
        // the arena, and adjacent fusable layers collapse into one kernel —
        // conv → batch-norm → activation becomes a single write-back, and a
        // GEMM layer followed by an activation absorbs it into its
        // epilogue. All of it is bit-identical to the allocating `infer`
        // chain above.
        let mut current: Option<Tensor> = None;
        let mut index = 0;
        while index < self.layers.len() {
            let layer = &self.layers[index];
            let source = current.as_ref().unwrap_or(input);
            // Layer-profile span: dims = [window start index, layers
            // fused]; the width is patched once the fusion decision below
            // is known.
            let mut window_span =
                obs::span_dims(layer.name(), obs::SpanKind::Layer, [index as u32, 1, 0, 0]);
            // Widest window first: layer + batch-norm (+ activation).
            let mut fused: Option<(Result<Tensor>, usize)> = None;
            if let Some(norm) = self
                .layers
                .get(index + 1)
                .and_then(|next| next.fused_channel_norm())
            {
                let trailing = self
                    .layers
                    .get(index + 2)
                    .and_then(|next| next.fused_activation());
                fused = layer
                    .infer_into_normed(source, norm, trailing, ctx)
                    .map(|result| (result, if trailing.is_some() { 3 } else { 2 }));
            }
            // Then layer + activation.
            if fused.is_none() {
                if let Some(activation) = self
                    .layers
                    .get(index + 1)
                    .and_then(|next| next.fused_activation())
                {
                    fused = layer
                        .infer_into_fused(source, activation, ctx)
                        .map(|result| (result, 2));
                }
            }
            let (next, consumed) = match fused {
                Some((result, consumed)) => (result?, consumed),
                None => (layer.infer_into(source, ctx)?, 1),
            };
            window_span.set_dim(1, consumed as u32);
            drop(window_span);
            if let Some(previous) = current.take() {
                ctx.recycle(previous);
            }
            current = Some(next);
            index += consumed;
        }
        match current {
            Some(output) => Ok(output),
            None => {
                // Empty stack: the identity, copied into an arena buffer so
                // the output joins the recycling cycle like any other.
                let mut out = ctx.take(input.len());
                out.copy_from_slice(input.as_slice());
                Ok(Tensor::from_vec(out, input.dims())?)
            }
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut current = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            current = layer.backward(&current)?;
        }
        Ok(current)
    }

    fn backward_into(&mut self, grad_output: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        // The planned backward pass: every intermediate gradient comes from
        // (and returns to) the arena, and a GEMM-backed layer preceded (in
        // forward order) by a fusable activation absorbs the activation's
        // gradient mask into its input-gradient kernel — e.g. Linear → ReLU
        // backpropagates as one masked GEMM. Bit-identical to the
        // allocating `backward` chain above.
        Ok(self
            .run_backward_into(grad_output, ctx, false)?
            .expect("non-discarding backward always yields a gradient"))
    }

    fn for_each_parameter(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for layer in &mut self.layers {
            layer.for_each_parameter(f);
        }
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.parameters_mut())
            .collect()
    }

    fn parameters(&self) -> Vec<&Parameter> {
        self.layers.iter().flat_map(|l| l.parameters()).collect()
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::linear::Linear;
    use mtlsplit_tensor::StdRng;

    fn tiny_mlp(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from(seed);
        Sequential::new()
            .push(Linear::new(3, 8, &mut rng))
            .push(Relu::new())
            .push(Linear::new(8, 2, &mut rng))
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut seq = Sequential::new();
        let mut rng = StdRng::seed_from(0);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        assert_eq!(seq.forward(&x, RunMode::train(&mut rng)).unwrap(), x);
        assert_eq!(seq.infer(&x).unwrap(), x);
        assert_eq!(seq.backward(&x).unwrap(), x);
        assert!(seq.is_empty());
    }

    #[test]
    fn forward_chains_layers_in_order() {
        let seq = tiny_mlp(1);
        assert_eq!(seq.len(), 3);
        assert_eq!(seq.layer_names(), vec!["Linear", "Relu", "Linear"]);
        let y = seq.infer(&Tensor::zeros(&[4, 3])).unwrap();
        assert_eq!(y.dims(), &[4, 2]);
    }

    #[test]
    fn train_and_infer_paths_agree_for_deterministic_layers() {
        let mut seq = tiny_mlp(9);
        let mut rng = StdRng::seed_from(10);
        let x = Tensor::randn(&[4, 3], 0.0, 1.0, &mut rng);
        let trained = seq.forward(&x, RunMode::train(&mut rng)).unwrap();
        assert_eq!(seq.infer(&x).unwrap(), trained);
    }

    #[test]
    fn backward_produces_input_shaped_gradient() {
        let mut seq = tiny_mlp(2);
        let mut rng = StdRng::seed_from(3);
        let x = Tensor::randn(&[4, 3], 0.0, 1.0, &mut rng);
        let y = seq.forward(&x, RunMode::train(&mut rng)).unwrap();
        let grad = seq.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(grad.dims(), x.dims());
    }

    #[test]
    fn parameter_count_sums_over_layers() {
        let seq = tiny_mlp(4);
        assert_eq!(seq.parameter_count(), 3 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn zero_grad_clears_all_gradients() {
        let mut seq = tiny_mlp(5);
        let mut rng = StdRng::seed_from(6);
        let x = Tensor::randn(&[2, 3], 0.0, 1.0, &mut rng);
        let y = seq.forward(&x, RunMode::train(&mut rng)).unwrap();
        seq.backward(&Tensor::ones(y.dims())).unwrap();
        assert!(seq
            .parameters()
            .iter()
            .any(|p| p.grad().squared_norm() > 0.0));
        seq.zero_grad();
        assert!(seq
            .parameters()
            .iter()
            .all(|p| p.grad().squared_norm() == 0.0));
    }

    #[test]
    fn set_frozen_and_lr_scale_apply_to_every_parameter() {
        let mut seq = tiny_mlp(7);
        seq.set_frozen(true);
        assert!(seq.parameters().iter().all(|p| p.is_frozen()));
        seq.set_lr_scale(0.1);
        assert!(seq.parameters().iter().all(|p| p.lr_scale() == 0.1));
    }

    #[test]
    fn planned_inference_fuses_activations_bit_exactly() {
        use crate::activation::Sigmoid;
        use crate::InferPlan;
        // Linear→Relu and Linear→Sigmoid both fuse into the GEMM epilogue;
        // the trailing lone Relu runs unfused. All must match `infer`
        // bit-for-bit.
        let mut rng = StdRng::seed_from(31);
        let net = Sequential::new()
            .push(Linear::new(5, 9, &mut rng))
            .push(Relu::new())
            .push(Linear::new(9, 7, &mut rng))
            .push(Sigmoid::new())
            .push(Relu::new());
        let mut plan = InferPlan::new();
        for batch in [1usize, 4, 2] {
            let x = Tensor::randn(&[batch, 5], 0.0, 1.5, &mut rng);
            let planned = plan.run(&net, &x).unwrap();
            assert_eq!(planned, net.infer(&x).unwrap());
            plan.recycle(planned);
        }
    }

    #[test]
    fn planned_inference_fuses_conv_norm_activation_bit_exactly() {
        use crate::conv_layer::{Conv2d, DepthwiseConv2d};
        use crate::norm::BatchNorm2d;
        use crate::{HardSwish, InferPlan};
        // conv → BN → hard-swish (the MobileNet motif) collapses into one
        // fused write-back on the planned path, for both the dense GEMM
        // and the direct depthwise kernels; outputs must still
        // match `infer` bit-for-bit. Train-mode forwards first so the
        // running statistics are non-trivial.
        let mut rng = StdRng::seed_from(41);
        let mut net = Sequential::new()
            .push(Conv2d::new(3, 6, 3, 1, 1, &mut rng))
            .push(BatchNorm2d::new(6))
            .push(HardSwish::new())
            .push(DepthwiseConv2d::new(6, 3, 1, 1, &mut rng))
            .push(BatchNorm2d::new(6));
        let warm = Tensor::randn(&[4, 3, 8, 8], 0.3, 1.2, &mut rng);
        net.forward(&warm, RunMode::train(&mut rng)).unwrap();
        let mut plan = InferPlan::new();
        for batch in [2usize, 1, 3] {
            let x = Tensor::randn(&[batch, 3, 8, 8], 0.0, 1.0, &mut rng);
            let planned = plan.run(&net, &x).unwrap();
            assert_eq!(planned, net.infer(&x).unwrap());
            plan.recycle(planned);
        }
    }

    #[test]
    fn planned_backward_fuses_activation_masks_bit_exactly() {
        use crate::activation::{HardSwish, Sigmoid};
        use crate::TrainPlan;
        // Linear→ReLU→Linear→Sigmoid→Linear→HardSwish: on the planned
        // backward pass each Linear preceded by an activation absorbs the
        // activation's gradient mask into its grad-input GEMM. Outputs,
        // input gradients and parameter gradients must equal the allocating
        // chain bitwise, across repeated plan reuse.
        let build = |seed: u64| {
            let mut rng = StdRng::seed_from(seed);
            Sequential::new()
                .push(Linear::new(5, 11, &mut rng))
                .push(Relu::new())
                .push(Linear::new(11, 9, &mut rng))
                .push(Sigmoid::new())
                .push(Linear::new(9, 4, &mut rng))
                .push(HardSwish::new())
        };
        let mut reference = build(61);
        let mut planned = build(61);
        let mut ref_rng = StdRng::seed_from(62);
        let mut plan_rng = StdRng::seed_from(62);
        let mut plan = TrainPlan::new();
        let mut data_rng = StdRng::seed_from(63);
        for step in 0..4 {
            let x = Tensor::randn(&[3, 5], 0.0, 1.0, &mut data_rng);
            let probe = Tensor::randn(&[3, 4], 0.0, 1.0, &mut data_rng);
            let y_ref = reference.forward(&x, RunMode::train(&mut ref_rng)).unwrap();
            let g_ref = reference.backward(&probe).unwrap();
            let y = plan
                .forward(&mut planned, &x, RunMode::train(&mut plan_rng))
                .unwrap();
            assert_eq!(y, y_ref, "step {step}: forward diverged");
            let g = plan.backward(&mut planned, &probe).unwrap();
            assert_eq!(g, g_ref, "step {step}: fused backward diverged");
            for (a, b) in planned.parameters().iter().zip(reference.parameters()) {
                assert_eq!(a.grad(), b.grad(), "step {step}: param grads diverged");
            }
            plan.recycle(y);
            plan.recycle(g);
        }
    }

    #[test]
    fn planned_empty_sequential_is_identity() {
        use crate::InferPlan;
        let net = Sequential::new();
        let mut plan = InferPlan::new();
        let x = Tensor::from_vec(vec![1.0, -2.0], &[1, 2]).unwrap();
        assert_eq!(plan.run(&net, &x).unwrap(), x);
    }

    #[test]
    fn split_off_halves_compose_to_the_original_bitwise() {
        use crate::InferPlan;
        let mut rng = StdRng::seed_from(77);
        let x = Tensor::randn(&[3, 3], 0.0, 1.0, &mut rng);
        for cut in 0..=3 {
            let reference = tiny_mlp(12);
            let expected = reference.infer(&x).unwrap();
            let mut prefix = tiny_mlp(12);
            let suffix = prefix.split_off(cut);
            assert_eq!(prefix.len(), cut);
            assert_eq!(suffix.len(), 3 - cut);
            // Allocating path.
            let mid = prefix.infer(&x).unwrap();
            assert_eq!(suffix.infer(&mid).unwrap(), expected, "cut {cut}");
            // Planned path, including across the cut.
            let mut plan = InferPlan::new();
            let mid = plan.run(&prefix, &x).unwrap();
            let out = plan.run(&suffix, &mid).unwrap();
            assert_eq!(out, expected, "planned cut {cut}");
        }
    }

    #[test]
    fn nested_sequential_works_as_a_layer() {
        let mut rng = StdRng::seed_from(8);
        let inner = Sequential::new()
            .push(Linear::new(3, 4, &mut rng))
            .push(Relu::new());
        let mut outer = Sequential::new()
            .push(inner)
            .push(Linear::new(4, 2, &mut rng));
        let y = outer
            .forward(&Tensor::zeros(&[1, 3]), RunMode::train(&mut rng))
            .unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(outer.parameter_count(), 3 * 4 + 4 + 4 * 2 + 2);
    }
}
