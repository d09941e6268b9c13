//! Convolutional layers: dense, depthwise and pointwise (1×1) convolutions.
//!
//! All three route through `mtlsplit_tensor::conv2d` / `conv2d_backward`,
//! which lower dense and grouped cases onto the packed blocked GEMM and run
//! depthwise ones through direct tap kernels, so layer outputs are
//! bit-identical for every `Parallelism` thread count.

use mtlsplit_tensor::{
    conv2d, conv2d_backward, conv2d_backward_into, conv2d_backward_params_into, conv2d_cols_len,
    conv2d_fused, conv2d_fused_caching, ChannelNorm, Conv2dSpec, ConvFusion, EpilogueActivation,
    GradMask, StdRng, Tensor, TensorArena,
};

use crate::error::{NnError, Result};
use crate::init::kaiming_normal;
use crate::param::Parameter;
use crate::{Layer, RunMode};

/// A 2-D convolution layer with trainable weight and bias.
///
/// The three backbone families in the paper are built from this layer:
/// plain 3×3 stacks (VGG-style), depthwise-separable pairs
/// ([`DepthwiseConv2d`] + [`PointwiseConv2d`], MobileNet-style) and inverted
/// residual blocks (EfficientNet-style).
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// use mtlsplit_nn::{Conv2d, Layer};
/// use mtlsplit_tensor::{StdRng, Tensor};
///
/// # fn main() -> Result<(), Box<dyn Error>> {
/// let mut rng = StdRng::seed_from(0);
/// let conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
/// let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
/// let y = conv.infer(&x)?;
/// assert_eq!(y.dims(), &[2, 8, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Conv2d {
    spec: Conv2dSpec,
    weight: Parameter,
    bias: Parameter,
    cached_input: Option<Tensor>,
    /// Forward im2col columns cached by the planned training path (unit-
    /// major, sized by `conv2d_cols_len` for the cached input), so the
    /// backward weight-gradient GEMMs skip the second unfold. Only the
    /// planned `forward_into` fills this; the allocating `forward` clears
    /// it so a stale cache can never pair with a fresher input.
    cached_cols: Option<Vec<f32>>,
}

impl Conv2d {
    /// Creates a dense convolution: `in_channels → out_channels`, square
    /// `kernel`, given `stride` and `padding`.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut StdRng,
    ) -> Self {
        Self::with_spec(
            Conv2dSpec::new(in_channels, out_channels, kernel)
                .with_stride(stride)
                .with_padding(padding),
            rng,
        )
    }

    /// Creates a convolution layer from an explicit [`Conv2dSpec`].
    pub fn with_spec(spec: Conv2dSpec, rng: &mut StdRng) -> Self {
        let weight_dims = spec.weight_dims();
        let fan_in = weight_dims[1] * weight_dims[2] * weight_dims[3];
        let weight = kaiming_normal(&weight_dims, fan_in, rng);
        Self {
            spec,
            weight: Parameter::new(weight),
            bias: Parameter::new(Tensor::zeros(&[spec.out_channels])),
            cached_input: None,
            cached_cols: None,
        }
    }

    /// The convolution's static specification.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }

    /// The arena-backed inference kernel shared by the planned-path entry
    /// points: output storage from the arena, bias (plus any fused norm and
    /// activation) riding in the convolution kernels' write-back.
    fn run_infer_into(
        &self,
        input: &Tensor,
        fusion: ConvFusion<'_>,
        ctx: &mut TensorArena,
    ) -> Result<Tensor> {
        let (out_h, out_w) = {
            let dims = input.dims();
            if input.rank() != 4 {
                // Let the kernel produce its canonical error.
                return Ok(conv2d(
                    input,
                    self.weight.value(),
                    Some(self.bias.value()),
                    &self.spec,
                )?);
            }
            self.spec.output_size(dims[2], dims[3])?
        };
        let len = input.dims()[0] * self.spec.out_channels * out_h * out_w;
        let mut out = ctx.take(len);
        let dims = conv2d_fused(
            input,
            self.weight.value(),
            Some(self.bias.value()),
            &self.spec,
            fusion,
            &mut out,
        )?;
        Ok(Tensor::from_vec(out, &dims)?)
    }

    /// The shared planned-backward kernel: all three gradients on arena
    /// buffers, the forward-cached im2col columns (when the planned forward
    /// produced them) feeding the weight-gradient GEMMs, and an optional
    /// fused activation-gradient mask on the input gradient.
    fn run_backward_into(
        &mut self,
        grad_output: &Tensor,
        mask: Option<GradMask<'_>>,
        ctx: &mut TensorArena,
    ) -> Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::MissingForwardCache { layer: "Conv2d" })?;
        let input_shape = input.shape().clone();
        // Use the cached columns only when they demonstrably belong to the
        // cached input (exact expected length); anything else recomputes.
        let cols = match (&self.cached_cols, conv2d_cols_len(input, &self.spec)) {
            (Some(cached), Ok(expected)) if cached.len() == expected && expected > 0 => {
                Some(cached.as_slice())
            }
            _ => None,
        };
        let mut grad_input = ctx.take(input.len());
        let mut grad_weight = ctx.take(self.weight.value().len());
        let mut grad_bias = ctx.take(self.spec.out_channels);
        let result = conv2d_backward_into(
            input,
            self.weight.value(),
            grad_output,
            &self.spec,
            cols,
            mask,
            &mut grad_input,
            &mut grad_weight,
            &mut grad_bias,
        );
        if let Err(err) = result {
            // Give the untouched buffers back before surfacing the error.
            ctx.give(grad_input);
            ctx.give(grad_weight);
            ctx.give(grad_bias);
            return Err(err.into());
        }
        let grad_weight = Tensor::from_vec(grad_weight, self.weight.value().dims())?;
        self.weight.accumulate_grad(&grad_weight)?;
        ctx.recycle(grad_weight);
        let grad_bias = Tensor::from_vec(grad_bias, &[self.spec.out_channels])?;
        self.bias.accumulate_grad(&grad_bias)?;
        ctx.recycle(grad_bias);
        Ok(Tensor::from_vec(grad_input, input_shape.dims())?)
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: RunMode<'_>) -> Result<Tensor> {
        let out = self.infer(input)?;
        if mode.is_train() {
            self.cached_input = Some(input.clone());
            // An allocating forward computes no column cache; drop any
            // stale one so backward never pairs it with this input.
            self.cached_cols = None;
        }
        Ok(out)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        Ok(conv2d(
            input,
            self.weight.value(),
            Some(self.bias.value()),
            &self.spec,
        )?)
    }

    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: RunMode<'_>,
        ctx: &mut TensorArena,
    ) -> Result<Tensor> {
        if !mode.is_train() {
            return self.run_infer_into(input, ConvFusion::none(), ctx);
        }
        // Recycle the previous step's column cache before deciding whether
        // this input needs one (pointwise convolutions never unfold).
        if let Some(old) = self.cached_cols.take() {
            ctx.give(old);
        }
        let cols_len = match conv2d_cols_len(input, &self.spec) {
            Ok(len) => len,
            // Invalid input: let the plain path surface the canonical error.
            Err(_) => return self.run_infer_into(input, ConvFusion::none(), ctx),
        };
        let out = if cols_len == 0 {
            self.run_infer_into(input, ConvFusion::none(), ctx)?
        } else {
            let dims = input.dims();
            let (out_h, out_w) = self.spec.output_size(dims[2], dims[3])?;
            let mut out = ctx.take(dims[0] * self.spec.out_channels * out_h * out_w);
            let mut cols = ctx.take(cols_len);
            let result = conv2d_fused_caching(
                input,
                self.weight.value(),
                Some(self.bias.value()),
                &self.spec,
                ConvFusion::none(),
                &mut out,
                &mut cols,
            );
            match result {
                Ok(out_dims) => {
                    self.cached_cols = Some(cols);
                    Tensor::from_vec(out, &out_dims)?
                }
                Err(err) => {
                    // Give the untouched buffers back before surfacing the
                    // error, so a failed step does not shrink the pool.
                    ctx.give(out);
                    ctx.give(cols);
                    return Err(err.into());
                }
            }
        };
        crate::cache_from_arena(&mut self.cached_input, input, ctx)?;
        Ok(out)
    }

    fn infer_into(&self, input: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        self.run_infer_into(input, ConvFusion::none(), ctx)
    }

    fn infer_into_fused(
        &self,
        input: &Tensor,
        activation: EpilogueActivation,
        ctx: &mut TensorArena,
    ) -> Option<Result<Tensor>> {
        Some(self.run_infer_into(input, ConvFusion::activation(activation), ctx))
    }

    fn infer_into_normed(
        &self,
        input: &Tensor,
        norm: ChannelNorm<'_>,
        activation: Option<EpilogueActivation>,
        ctx: &mut TensorArena,
    ) -> Option<Result<Tensor>> {
        if !norm.covers(self.spec.out_channels) {
            // Channel mismatch: decline so the unfused path surfaces the
            // batch-norm layer's canonical error.
            return None;
        }
        Some(self.run_infer_into(
            input,
            ConvFusion {
                norm: Some(norm),
                activation,
            },
            ctx,
        ))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::MissingForwardCache { layer: "Conv2d" })?;
        let (grad_input, grad_weight, grad_bias) =
            conv2d_backward(input, self.weight.value(), grad_output, &self.spec)?;
        self.weight.accumulate_grad(&grad_weight)?;
        self.bias.accumulate_grad(&grad_bias)?;
        Ok(grad_input)
    }

    fn backward_into(&mut self, grad_output: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        self.run_backward_into(grad_output, None, ctx)
    }

    fn backward_into_masked(
        &mut self,
        grad_output: &Tensor,
        mask: GradMask<'_>,
        ctx: &mut TensorArena,
    ) -> Option<Result<Tensor>> {
        // Only absorb a mask that aligns element-for-element with this
        // layer's input gradient; otherwise the caller runs the unfused
        // path, which surfaces the canonical shape error.
        let aligned = self
            .cached_input
            .as_ref()
            .is_some_and(|input| input.len() == mask.input.len());
        if !aligned {
            return None;
        }
        Some(self.run_backward_into(grad_output, Some(mask), ctx))
    }

    fn backward_into_params_only(
        &mut self,
        grad_output: &Tensor,
        ctx: &mut TensorArena,
    ) -> Option<Result<()>> {
        // A missing cache falls back to the full path, which surfaces the
        // canonical error.
        let input = self.cached_input.as_ref()?;
        let cols = match (&self.cached_cols, conv2d_cols_len(input, &self.spec)) {
            (Some(cached), Ok(expected)) if cached.len() == expected && expected > 0 => {
                Some(cached.as_slice())
            }
            _ => None,
        };
        let mut grad_weight = ctx.take(self.weight.value().len());
        let mut grad_bias = ctx.take(self.spec.out_channels);
        let result = conv2d_backward_params_into(
            input,
            grad_output,
            &self.spec,
            cols,
            &mut grad_weight,
            &mut grad_bias,
        );
        if let Err(err) = result {
            ctx.give(grad_weight);
            ctx.give(grad_bias);
            return Some(Err(err.into()));
        }
        let accumulate = || -> Result<()> {
            let grad_weight = Tensor::from_vec(grad_weight, self.weight.value().dims())?;
            self.weight.accumulate_grad(&grad_weight)?;
            ctx.recycle(grad_weight);
            let grad_bias = Tensor::from_vec(grad_bias, &[self.spec.out_channels])?;
            self.bias.accumulate_grad(&grad_bias)?;
            ctx.recycle(grad_bias);
            Ok(())
        };
        Some(accumulate())
    }

    fn for_each_parameter(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn parameters(&self) -> Vec<&Parameter> {
        vec![&self.weight, &self.bias]
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }
}

/// A depthwise convolution: each channel is convolved independently
/// (`groups == channels`). The spatial mixing half of a depthwise-separable
/// convolution.
#[derive(Debug)]
pub struct DepthwiseConv2d {
    inner: Conv2d,
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution over `channels` channels.
    pub fn new(
        channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut StdRng,
    ) -> Self {
        let spec = Conv2dSpec::new(channels, channels, kernel)
            .with_stride(stride)
            .with_padding(padding)
            .with_groups(channels);
        Self {
            inner: Conv2d::with_spec(spec, rng),
        }
    }
}

impl Layer for DepthwiseConv2d {
    fn forward(&mut self, input: &Tensor, mode: RunMode<'_>) -> Result<Tensor> {
        self.inner.forward(input, mode)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        self.inner.infer(input)
    }

    fn infer_into(&self, input: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        self.inner.infer_into(input, ctx)
    }

    fn infer_into_fused(
        &self,
        input: &Tensor,
        activation: EpilogueActivation,
        ctx: &mut TensorArena,
    ) -> Option<Result<Tensor>> {
        self.inner.infer_into_fused(input, activation, ctx)
    }

    fn infer_into_normed(
        &self,
        input: &Tensor,
        norm: ChannelNorm<'_>,
        activation: Option<EpilogueActivation>,
        ctx: &mut TensorArena,
    ) -> Option<Result<Tensor>> {
        self.inner.infer_into_normed(input, norm, activation, ctx)
    }

    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: RunMode<'_>,
        ctx: &mut TensorArena,
    ) -> Result<Tensor> {
        self.inner.forward_into(input, mode, ctx)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        self.inner.backward(grad_output)
    }

    fn backward_into(&mut self, grad_output: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        self.inner.backward_into(grad_output, ctx)
    }

    fn backward_into_masked(
        &mut self,
        grad_output: &Tensor,
        mask: GradMask<'_>,
        ctx: &mut TensorArena,
    ) -> Option<Result<Tensor>> {
        self.inner.backward_into_masked(grad_output, mask, ctx)
    }

    fn for_each_parameter(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.inner.for_each_parameter(f);
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        self.inner.parameters_mut()
    }

    fn parameters(&self) -> Vec<&Parameter> {
        self.inner.parameters()
    }

    fn name(&self) -> &'static str {
        "DepthwiseConv2d"
    }
}

/// A pointwise (1×1) convolution: the channel-mixing half of a
/// depthwise-separable convolution.
#[derive(Debug)]
pub struct PointwiseConv2d {
    inner: Conv2d,
}

impl PointwiseConv2d {
    /// Creates a 1×1 convolution mapping `in_channels` to `out_channels`.
    pub fn new(in_channels: usize, out_channels: usize, rng: &mut StdRng) -> Self {
        Self {
            inner: Conv2d::new(in_channels, out_channels, 1, 1, 0, rng),
        }
    }
}

impl Layer for PointwiseConv2d {
    fn forward(&mut self, input: &Tensor, mode: RunMode<'_>) -> Result<Tensor> {
        self.inner.forward(input, mode)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        self.inner.infer(input)
    }

    fn infer_into(&self, input: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        self.inner.infer_into(input, ctx)
    }

    fn infer_into_fused(
        &self,
        input: &Tensor,
        activation: EpilogueActivation,
        ctx: &mut TensorArena,
    ) -> Option<Result<Tensor>> {
        self.inner.infer_into_fused(input, activation, ctx)
    }

    fn infer_into_normed(
        &self,
        input: &Tensor,
        norm: ChannelNorm<'_>,
        activation: Option<EpilogueActivation>,
        ctx: &mut TensorArena,
    ) -> Option<Result<Tensor>> {
        self.inner.infer_into_normed(input, norm, activation, ctx)
    }

    fn forward_into(
        &mut self,
        input: &Tensor,
        mode: RunMode<'_>,
        ctx: &mut TensorArena,
    ) -> Result<Tensor> {
        self.inner.forward_into(input, mode, ctx)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        self.inner.backward(grad_output)
    }

    fn backward_into(&mut self, grad_output: &Tensor, ctx: &mut TensorArena) -> Result<Tensor> {
        self.inner.backward_into(grad_output, ctx)
    }

    fn backward_into_masked(
        &mut self,
        grad_output: &Tensor,
        mask: GradMask<'_>,
        ctx: &mut TensorArena,
    ) -> Option<Result<Tensor>> {
        self.inner.backward_into_masked(grad_output, mask, ctx)
    }

    fn for_each_parameter(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.inner.for_each_parameter(f);
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        self.inner.parameters_mut()
    }

    fn parameters(&self) -> Vec<&Parameter> {
        self.inner.parameters()
    }

    fn name(&self) -> &'static str {
        "PointwiseConv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_output_shape_follows_spec() {
        let mut rng = StdRng::seed_from(1);
        let conv = Conv2d::new(3, 8, 3, 2, 1, &mut rng);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = conv.infer(&x).unwrap();
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn depthwise_preserves_channel_count_and_uses_few_parameters() {
        let mut rng = StdRng::seed_from(2);
        let dw = DepthwiseConv2d::new(8, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(&[1, 8, 6, 6]);
        let y = dw.infer(&x).unwrap();
        assert_eq!(y.dims(), &[1, 8, 6, 6]);
        // 8 channels * 1 * 3 * 3 weights + 8 biases — far fewer than a dense conv.
        assert_eq!(dw.parameter_count(), 8 * 9 + 8);
    }

    #[test]
    fn pointwise_changes_channel_count_only() {
        let mut rng = StdRng::seed_from(3);
        let pw = PointwiseConv2d::new(8, 16, &mut rng);
        let x = Tensor::zeros(&[1, 8, 5, 5]);
        let y = pw.infer(&x).unwrap();
        assert_eq!(y.dims(), &[1, 16, 5, 5]);
    }

    #[test]
    fn backward_accumulates_parameter_gradients() {
        let mut rng = StdRng::seed_from(4);
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, RunMode::train(&mut rng)).unwrap();
        let grad = Tensor::ones(y.dims());
        let grad_input = conv.backward(&grad).unwrap();
        assert_eq!(grad_input.dims(), x.dims());
        assert!(conv.parameters()[0].grad().squared_norm() > 0.0);
        assert!(conv.parameters()[1].grad().squared_norm() > 0.0);
    }

    #[test]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from(5);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        assert!(conv.backward(&Tensor::zeros(&[1, 1, 5, 5])).is_err());
    }

    #[test]
    fn depthwise_plus_pointwise_is_cheaper_than_dense() {
        let mut rng = StdRng::seed_from(6);
        let dense = Conv2d::new(32, 64, 3, 1, 1, &mut rng);
        let dw = DepthwiseConv2d::new(32, 3, 1, 1, &mut rng);
        let pw = PointwiseConv2d::new(32, 64, &mut rng);
        assert!(dw.parameter_count() + pw.parameter_count() < dense.parameter_count() / 3);
    }
}
