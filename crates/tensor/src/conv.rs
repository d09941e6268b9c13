//! 2-D convolution kernels (forward and backward) in NCHW layout.
//!
//! Every dense and grouped convolution in this crate, forward *and*
//! backward, is one lowering away from the packed blocked GEMM in
//! [`crate::kernels`]; depthwise convolutions run direct kernels instead:
//!
//! * **Forward**: per `(batch, group)` unit the input window is unfolded
//!   channel-major into a `[cin/g * k * k, out_h * out_w]` column matrix
//!   and multiplied by the group's `[cout/g, cin/g * k * k]` weight matrix,
//!   writing straight into the contiguous NCHW output slice (the bias — and
//!   an optionally fused batch-norm and activation — ride in the GEMM's
//!   [`Epilogue`]). Depthwise convolutions (one input and one output
//!   channel per group) skip the unfold: each `(batch, channel)` plane is
//!   copied once, zero-padded and split into `stride * stride` phase
//!   planes, and every tap becomes one contiguous FMA sweep over the
//!   output plane (see `DepthwiseSweep`). Each output keeps the chain the
//!   lowered GEMV ran — bias head, taps in ascending `(ky, kx)`, norm,
//!   activation — so the results are bitwise unchanged. The scratch is
//!   thread-local and reused across calls — the forward hot path allocates
//!   nothing beyond its output, and [`conv2d_fused`] not even that.
//! * **Backward**: `grad_input` is `Wᵀ x grad_out` folded back through the
//!   adjoint of the unfold (col2im), and `grad_weight` is
//!   `grad_out x colsᵀ` with the batch dimension concatenated into the
//!   GEMM's `K` dimension — two GEMMs, no direct accumulation loops.
//!
//! Units are spread over scoped threads (each `(batch, group)` output slice
//! is written by exactly one thread) and the GEMM itself partitions output
//! rows, so convolution results are bit-identical for every
//! [`crate::Parallelism`] setting. The seed's direct 7-deep loop survives
//! only as the `#[cfg(test)]` oracle that the GEMM formulation is
//! property-tested against.

use crate::error::{Result, TensorError};
use crate::kernels::{
    fma_step, sgemm_epilogue_quiet, sgemm_quiet, Bias, BiasAxis, ChannelNorm, Epilogue, GradMask,
    NormParams, FUSED_MULTIPLY_ADD,
};
use crate::parallel::{for_each_unit, for_each_unit_pair, threads_for_macs, Parallelism};
use crate::tensor::Tensor;
use crate::EpilogueActivation;
use mtlsplit_obs as obs;

/// What a convolution call fuses into its kernels' write-back: an optional
/// following batch-norm (per output channel) and an optional following
/// activation, applied in that order. Both are bit-identical to running the
/// separate passes — see [`ChannelNorm`] and [`EpilogueActivation`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvFusion<'a> {
    /// Batch-norm statistics over the convolution's output channels.
    pub norm: Option<ChannelNorm<'a>>,
    /// Activation applied after the norm (or directly, without one).
    pub activation: Option<EpilogueActivation>,
}

impl<'a> ConvFusion<'a> {
    /// No fusion: the plain convolution.
    pub fn none() -> Self {
        Self::default()
    }

    /// Fuses just an activation.
    pub fn activation(activation: EpilogueActivation) -> Self {
        Self {
            norm: None,
            activation: Some(activation),
        }
    }
}

/// Runs `f` on a thread-local, reusable `f32` scratch buffer of at least
/// `len` elements.
///
/// The buffer is only ever grown, never shrunk, so the steady-state hot
/// loop allocates nothing — the same pattern as the GEMM packing scratch.
/// Callers must fully overwrite every slot they read ([`im2col_group`],
/// the `beta == 0` GEMM output and the depthwise phase planes and wide
/// rows all do).
fn with_cols_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    thread_local! {
        static COLS: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    COLS.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// Static description of a 2-D convolution.
///
/// Grouped convolution is supported; `groups == in_channels` with
/// `out_channels == in_channels` yields a depthwise convolution, the building
/// block of the MobileNet-style backbone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Number of input channels.
    pub in_channels: usize,
    /// Number of output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding added to both sides of both spatial axes.
    pub padding: usize,
    /// Number of channel groups (1 for a dense convolution).
    pub groups: usize,
}

impl Conv2dSpec {
    /// Creates a dense (ungrouped) convolution specification.
    pub fn new(in_channels: usize, out_channels: usize, kernel: usize) -> Self {
        Self {
            in_channels,
            out_channels,
            kernel,
            stride: 1,
            padding: 0,
            groups: 1,
        }
    }

    /// Sets the stride, returning the updated spec.
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.stride = stride;
        self
    }

    /// Sets the padding, returning the updated spec.
    pub fn with_padding(mut self, padding: usize) -> Self {
        self.padding = padding;
        self
    }

    /// Sets the group count, returning the updated spec.
    pub fn with_groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }

    /// Spatial output size for the given input size.
    ///
    /// # Errors
    ///
    /// Returns an error if the kernel does not fit the padded input or the
    /// configuration is internally inconsistent (zero stride, channel counts
    /// not divisible by `groups`).
    pub fn output_size(&self, height: usize, width: usize) -> Result<(usize, usize)> {
        self.validate()?;
        let padded_h = height + 2 * self.padding;
        let padded_w = width + 2 * self.padding;
        if self.kernel > padded_h || self.kernel > padded_w {
            return Err(TensorError::InvalidWindow {
                reason: format!(
                    "kernel {} does not fit padded input {}x{}",
                    self.kernel, padded_h, padded_w
                ),
            });
        }
        Ok((
            (padded_h - self.kernel) / self.stride + 1,
            (padded_w - self.kernel) / self.stride + 1,
        ))
    }

    /// Expected weight tensor dimensions: `[out, in/groups, k, k]`.
    pub fn weight_dims(&self) -> [usize; 4] {
        [
            self.out_channels,
            self.in_channels / self.groups.max(1),
            self.kernel,
            self.kernel,
        ]
    }

    fn validate(&self) -> Result<()> {
        if self.stride == 0 || self.kernel == 0 || self.groups == 0 {
            return Err(TensorError::InvalidWindow {
                reason: "kernel, stride and groups must be positive".to_string(),
            });
        }
        if !self.in_channels.is_multiple_of(self.groups)
            || !self.out_channels.is_multiple_of(self.groups)
        {
            return Err(TensorError::InvalidWindow {
                reason: format!(
                    "channels ({} in, {} out) must be divisible by groups ({})",
                    self.in_channels, self.out_channels, self.groups
                ),
            });
        }
        Ok(())
    }
}

fn check_input(input: &Tensor, spec: &Conv2dSpec) -> Result<(usize, usize, usize)> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d",
            expected: 4,
            actual: input.rank(),
        });
    }
    let dims = input.dims();
    if dims[1] != spec.in_channels {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: dims.to_vec(),
            rhs: spec.weight_dims().to_vec(),
        });
    }
    Ok((dims[0], dims[2], dims[3]))
}

fn check_weight(weight: &Tensor, spec: &Conv2dSpec) -> Result<()> {
    if weight.dims() != spec.weight_dims() {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: weight.dims().to_vec(),
            rhs: spec.weight_dims().to_vec(),
        });
    }
    Ok(())
}

/// Pre-computed geometry shared by the forward and backward drivers.
#[derive(Clone, Copy)]
struct ConvGeometry {
    batch: usize,
    height: usize,
    width: usize,
    out_h: usize,
    out_w: usize,
    /// Input channels per group.
    cin_g: usize,
    /// Output channels per group.
    cout_g: usize,
    /// Rows of one group's column matrix: `cin_g * k * k`.
    ckk: usize,
    /// One spatial plane of the output: `out_h * out_w`.
    out_plane: usize,
}

impl ConvGeometry {
    fn new(input: &Tensor, spec: &Conv2dSpec) -> Result<Self> {
        let (batch, height, width) = check_input(input, spec)?;
        let (out_h, out_w) = spec.output_size(height, width)?;
        let cin_g = spec.in_channels / spec.groups;
        let cout_g = spec.out_channels / spec.groups;
        Ok(Self {
            batch,
            height,
            width,
            out_h,
            out_w,
            cin_g,
            cout_g,
            ckk: cin_g * spec.kernel * spec.kernel,
            out_plane: out_h * out_w,
        })
    }

    /// Whether every group has one input and one output channel: a
    /// depthwise convolution, which runs direct kernels in both directions
    /// instead of the im2col lowering.
    fn is_depthwise(&self) -> bool {
        self.cin_g == 1 && self.cout_g == 1
    }
}

/// Unfolds one `(batch, group)` unit of `src` channel-major into the
/// `[ckk, out_plane]` column matrix `dst`: row `(ic_local * k + ky) * k +
/// kx` holds that tap's value for every output position `oy * out_w + ox`
/// (out-of-image taps are zero).
fn im2col_group(
    dst: &mut [f32],
    src: &[f32],
    geometry: &ConvGeometry,
    spec: &Conv2dSpec,
    batch_index: usize,
    channel_start: usize,
) {
    // Single choke point for column materialisation: every unfold in the
    // crate lands here, so one relaxed add accounts all im2col bandwidth.
    obs::metrics::IM2COL_BYTES
        .add((geometry.ckk * geometry.out_plane * std::mem::size_of::<f32>()) as u64);
    let g = geometry;
    let k = spec.kernel;
    let pad = spec.padding as isize;
    for ic_local in 0..g.cin_g {
        let in_base =
            (batch_index * spec.in_channels + channel_start + ic_local) * g.height * g.width;
        for ky in 0..k {
            for kx in 0..k {
                let row = (ic_local * k + ky) * k + kx;
                let out_row = &mut dst[row * g.out_plane..][..g.out_plane];
                // `in_x = ox * stride + kx - pad` is monotonic in `ox`, so
                // the in-image positions form one contiguous run
                // `[ox_lo, ox_hi)` that depends on `kx` alone; everything
                // outside it is padding. Splitting each row that way
                // replaces the per-element bounds check with two fills and
                // (for stride 1) a plain `copy_from_slice`, which stays fast
                // without target-specific codegen.
                let (ox_lo, ox_hi) = tap_range(g.out_w, g.width, spec.stride, kx, spec.padding);
                for oy in 0..g.out_h {
                    let in_y = (oy * spec.stride + ky) as isize - pad;
                    let dst_row = &mut out_row[oy * g.out_w..(oy + 1) * g.out_w];
                    if in_y < 0 || in_y >= g.height as isize {
                        dst_row.fill(0.0);
                        continue;
                    }
                    let src_row = &src[in_base + in_y as usize * g.width..][..g.width];
                    dst_row[..ox_lo].fill(0.0);
                    dst_row[ox_hi..].fill(0.0);
                    if ox_lo == ox_hi {
                        continue;
                    }
                    let first = ox_lo * spec.stride + kx - pad as usize;
                    if spec.stride == 1 {
                        dst_row[ox_lo..ox_hi]
                            .copy_from_slice(&src_row[first..first + (ox_hi - ox_lo)]);
                    } else {
                        for (slot, ox) in dst_row[ox_lo..ox_hi].iter_mut().zip(ox_lo..) {
                            *slot = src_row[ox * spec.stride + kx - pad as usize];
                        }
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col_group`]: accumulates a `[ckk, out_plane]` column
/// matrix back into one `(batch, group)` unit `[cin_g, height, width]` of
/// the image gradient.
fn col2im_group(cols: &[f32], unit: &mut [f32], geometry: &ConvGeometry, spec: &Conv2dSpec) {
    let g = geometry;
    let k = spec.kernel;
    let pad = spec.padding as isize;
    for ic_local in 0..g.cin_g {
        let unit_base = ic_local * g.height * g.width;
        for ky in 0..k {
            for kx in 0..k {
                let row = (ic_local * k + ky) * k + kx;
                let src_row = &cols[row * g.out_plane..][..g.out_plane];
                for oy in 0..g.out_h {
                    let in_y = (oy * spec.stride + ky) as isize - pad;
                    if in_y < 0 || in_y >= g.height as isize {
                        continue;
                    }
                    let dst_row = &mut unit[unit_base + in_y as usize * g.width..][..g.width];
                    for (ox, &value) in src_row[oy * g.out_w..(oy + 1) * g.out_w].iter().enumerate()
                    {
                        let in_x = (ox * spec.stride + kx) as isize - pad;
                        if in_x >= 0 && in_x < g.width as isize {
                            dst_row[in_x as usize] += value;
                        }
                    }
                }
            }
        }
    }
}

/// Splits the ambient thread budget between `(batch, group)` units and the
/// per-unit GEMM: up to `units` threads spread over the units, and whatever
/// budget remains is handed to each unit's GEMM row partitioning (so two
/// units on a 16-core host run two 8-thread GEMMs, not two single-threaded
/// ones). `macs` is the convolution's total multiply-accumulate count — the
/// per-ISA FLOP floor of the active dispatch table keeps tiny problems on
/// the calling thread, so small convolutions never pay scoped-thread spawn
/// cost. The split never affects results: both levels partition output
/// elements only.
fn split_threads(units: usize, macs: usize) -> (usize, Parallelism) {
    let threads = threads_for_macs(
        Parallelism::current().resolve(),
        macs,
        crate::simd::kernels().min_macs_per_thread,
    );
    if threads <= 1 {
        (1, Parallelism::single())
    } else {
        let unit_threads = threads.min(units.max(1));
        (unit_threads, Parallelism::fixed(threads / unit_threads))
    }
}

/// 2-D convolution forward pass.
///
/// * `input` — `[batch, in_channels, h, w]`
/// * `weight` — `[out_channels, in_channels / groups, k, k]`
/// * `bias` — optional `[out_channels]`
///
/// Returns `[batch, out_channels, out_h, out_w]`.
///
/// Dense and grouped convolutions route through grouped im2col + GEMM,
/// depthwise ones through a direct tap kernel (see the module docs);
/// results are bit-identical for every [`Parallelism`] thread count.
///
/// # Errors
///
/// Returns an error if shapes are inconsistent with `spec` or the kernel does
/// not fit the padded input.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// use mtlsplit_tensor::{conv2d, Conv2dSpec, Tensor};
///
/// # fn main() -> Result<(), Box<dyn Error>> {
/// let spec = Conv2dSpec::new(1, 1, 3).with_padding(1);
/// let input = Tensor::ones(&[1, 1, 4, 4]);
/// let weight = Tensor::ones(&[1, 1, 3, 3]);
/// let out = conv2d(&input, &weight, None, &spec)?;
/// assert_eq!(out.dims(), &[1, 1, 4, 4]);
/// // The centre pixels see the full 3x3 window of ones.
/// assert_eq!(out.at(&[0, 0, 1, 1])?, 9.0);
/// # Ok(())
/// # }
/// ```
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    let g = ConvGeometry::new(input, spec)?;
    let mut out = vec![0.0f32; g.batch * spec.out_channels * g.out_plane];
    let dims = conv2d_fused(input, weight, bias, spec, ConvFusion::none(), &mut out)?;
    Ok(Tensor::from_vec(out, &dims).expect("conv2d output buffer matches computed shape"))
}

/// 2-D convolution forward pass writing into a caller-provided buffer, with
/// an optional activation fused into the kernel.
///
/// This is [`conv2d`] for the planned, zero-allocation inference path: `out`
/// must hold exactly `batch * out_channels * out_h * out_w` elements (its
/// prior contents are ignored and fully overwritten, so a recycled arena
/// buffer is safe), and `fusion` carries what the layer stack fused behind
/// this convolution — a following batch-norm and/or activation — applied
/// inside the GEMM epilogue (or the depthwise kernel's write-back) instead
/// of as separate full-tensor passes (only a convolution with neither bias
/// nor norm falls back to one in-place activation sweep, since it has no
/// epilogue to carry it).
///
/// Returns the output dimensions `[batch, out_channels, out_h, out_w]`.
/// Results are bit-identical to [`conv2d`] followed by the separate
/// norm/activation passes, for every thread count.
///
/// # Errors
///
/// Returns an error if shapes are inconsistent with `spec`, the norm
/// statistics do not cover the output channels, or `out` has the wrong
/// length.
pub fn conv2d_fused(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
    fusion: ConvFusion<'_>,
    out: &mut [f32],
) -> Result<[usize; 4]> {
    let g = ConvGeometry::new(input, spec)?;
    check_weight(weight, spec)?;
    if let Some(b) = bias {
        if b.len() != spec.out_channels {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d bias",
                lhs: b.dims().to_vec(),
                rhs: vec![spec.out_channels],
            });
        }
    }
    if let Some(norm) = fusion.norm {
        if !norm.covers(spec.out_channels) {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d fused norm",
                lhs: vec![norm.channels()],
                rhs: vec![spec.out_channels],
            });
        }
    }
    let expected_len = g.batch * spec.out_channels * g.out_plane;
    if out.len() != expected_len {
        return Err(TensorError::LengthMismatch {
            expected: expected_len,
            actual: out.len(),
        });
    }
    let src = input.as_slice();
    let w = weight.as_slice();
    let bias_values = bias.map(Tensor::as_slice);
    let units = g.batch * spec.groups;
    let unit_len = g.cout_g * g.out_plane;
    let macs = g.batch * spec.out_channels * g.out_plane * g.ckk;
    let depthwise = g.is_depthwise();
    if !depthwise {
        obs::metrics::GEMM_CALLS.add(units as u64);
    }
    obs::metrics::GEMM_FLOPS.add(2 * macs as u64);
    let _span = obs::span_dims(
        "conv2d",
        obs::SpanKind::Kernel,
        [
            g.batch as u32,
            spec.out_channels as u32,
            spec.kernel as u32,
            g.out_plane as u32,
        ],
    );
    let (unit_threads, gemm_par) = split_threads(units, macs);
    for_each_unit(out, unit_len, unit_threads, |unit_index, unit| {
        let (b, group) = (unit_index / spec.groups, unit_index % spec.groups);
        if depthwise {
            depthwise_forward_unit(unit, src, w, bias_values, &fusion, &g, spec, b, group);
            return;
        }
        if spec.kernel == 1 && spec.stride == 1 && spec.padding == 0 {
            // Pointwise (1x1) convolution: the unfolded column matrix *is*
            // the group's input slice ([cin_g, plane] channel-major), so
            // skip the im2col copy and feed the source directly. Same
            // values, same chains — bit-identical.
            let input_group = &src[(b * spec.in_channels + group * g.cin_g) * g.out_plane..]
                [..g.ckk * g.out_plane];
            conv_forward_unit(
                unit,
                input_group,
                w,
                bias_values,
                &fusion,
                &g,
                group,
                gemm_par,
            );
            return;
        }
        // Dense and grouped: unfold into thread-local scratch.
        with_cols_scratch(g.ckk * g.out_plane, |cols| {
            im2col_group(cols, src, &g, spec, b, group * g.cin_g);
            conv_forward_unit(unit, cols, w, bias_values, &fusion, &g, group, gemm_par);
        });
    });
    Ok([g.batch, spec.out_channels, g.out_h, g.out_w])
}

/// Slack (in `f32` elements) past the depthwise phase planes, and the
/// multiple the wide output is rounded up to, so every sweep runs whole
/// vectors of the widest path (16 lanes) with no scalar tail and never
/// reads past its scratch.
pub(crate) const SWEEP_SLACK: usize = 16;

/// One `(batch, channel)` unit of a depthwise forward, laid out for the
/// per-ISA sweep kernels (`Kernels::depthwise`).
///
/// The zero-padded input plane is split into `stride * stride` phase
/// planes: phase `(py, px)` (stored at index `py * stride + px`, each
/// `plane_len` long with rows of `row_len`) holds the padded pixels
/// `(y * stride + py, x * stride + px)`. Tap `(ky, kx)` of output
/// `(oy, ox)` then reads phase `(ky % stride, kx % stride)` at row
/// `oy + ky / stride`, column `ox + kx / stride` — so over the *wide*
/// output index `q = oy * row_len + ox` every tap is one contiguous run of
/// the planes (see [`tap_offset`]). Columns `ox >= out_w` of the wide rows
/// are scratch that the caller drops.
///
/// Every wide output runs the chain the lowered GEMV ran: `head`, the
/// taps in ascending `(ky, kx)` through the crate's single FMA step
/// (padding taps multiply an explicit zero, exactly as the unfolded
/// columns did), then `norm`, then `activation`.
pub(crate) struct DepthwiseSweep<'a> {
    /// The phase planes, `stride * stride * plane_len` values plus slack.
    pub(crate) planes: &'a [f32],
    /// The channel's `kernel * kernel` weights, row-major.
    pub(crate) taps: &'a [f32],
    /// Square kernel size.
    pub(crate) kernel: usize,
    /// Spatial stride.
    pub(crate) stride: usize,
    /// Length of one phase plane.
    pub(crate) plane_len: usize,
    /// Row length of every phase plane, and the row stride of the wide
    /// output.
    pub(crate) row_len: usize,
    /// The chain head: the channel's bias, or `0`.
    pub(crate) head: f32,
    /// The channel's fused batch-norm, applied after the taps.
    pub(crate) norm: Option<NormParams>,
    /// The fused activation, applied last.
    pub(crate) activation: Option<EpilogueActivation>,
}

impl DepthwiseSweep<'_> {
    /// Panics unless `out_len` is a whole number of [`SWEEP_SLACK`] blocks
    /// and a sweep writing that many wide outputs stays inside `planes` —
    /// the bounds the SIMD kernels' unchecked, tail-free loops rely on. The
    /// largest tap offset is at most `(s*s - 1) * plane_len + (k-1)/s *
    /// (row_len + 1)`.
    pub(crate) fn check(&self, out_len: usize) {
        let (k, s) = (self.kernel, self.stride);
        assert_eq!(self.taps.len(), k * k, "depthwise sweep: tap count");
        assert!(
            out_len.is_multiple_of(SWEEP_SLACK),
            "depthwise sweep: {out_len} outputs are not whole blocks"
        );
        let reach = (s * s - 1) * self.plane_len + (k - 1) / s * (self.row_len + 1);
        assert!(
            reach + out_len <= self.planes.len(),
            "depthwise sweep: {out_len} outputs overrun the phase planes"
        );
    }
}

/// Where tap `(ky, kx)` starts in the phase planes, relative to the wide
/// output index (see [`DepthwiseSweep`]). Constant-folds for a constant
/// kernel size and stride.
#[inline(always)]
pub(crate) fn tap_offset(
    ky: usize,
    kx: usize,
    stride: usize,
    plane_len: usize,
    row_len: usize,
) -> usize {
    ((ky % stride) * stride + kx % stride) * plane_len + (ky / stride) * row_len + kx / stride
}

/// The portable depthwise sweep: [`DepthwiseSweep`]'s chain per wide
/// output, with the crate's [`fused_mul_add`] semantics.
pub(crate) fn depthwise_sweep(sweep: &DepthwiseSweep<'_>, out: &mut [f32]) {
    depthwise_sweep_impl::<FUSED_MULTIPLY_ADD>(sweep, out)
}

/// The body of [`depthwise_sweep`], generic over the accumulation step so
/// the `x86` module can re-instantiate it inside a `#[target_feature]`
/// wrapper (see [`crate::kernels::fma_step`]). Each tap is one
/// autovectorised AXPY over the whole wide output, so its offset is worked
/// out once per tap and constant kernel sizes would gain nothing.
#[inline(always)]
pub(crate) fn depthwise_sweep_impl<const FMA: bool>(sweep: &DepthwiseSweep<'_>, out: &mut [f32]) {
    sweep.check(out.len());
    let (k, s, n) = (sweep.kernel, sweep.stride, out.len());
    out.fill(sweep.head);
    for ky in 0..k {
        for kx in 0..k {
            let w = sweep.taps[ky * k + kx];
            let off = tap_offset(ky, kx, s, sweep.plane_len, sweep.row_len);
            for (slot, &x) in out.iter_mut().zip(&sweep.planes[off..off + n]) {
                *slot = fma_step::<FMA>(w, x, *slot);
            }
        }
    }
    match (sweep.norm, sweep.activation) {
        (None, None) => {}
        (None, Some(act)) => {
            for x in out.iter_mut() {
                *x = act.apply(*x);
            }
        }
        (Some(params), None) => {
            for x in out.iter_mut() {
                *x = params.transform(*x);
            }
        }
        (Some(params), Some(act)) => {
            for x in out.iter_mut() {
                *x = act.apply(params.transform(*x));
            }
        }
    }
}

/// One depthwise `(batch, channel)` unit of the forward pass, with no
/// unfold and no GEMM: the input plane is copied once into thread-local
/// phase planes, the dispatch table's sweep runs every tap over the wide
/// output rows, and the valid columns are copied into `unit`. The
/// activation always rides the sweep: its in-register form equals the
/// scalar `apply` bit for bit, so the result is bit-identical to the
/// lowered single-row GEMV it replaces, with or without bias and norm.
#[allow(clippy::too_many_arguments)]
fn depthwise_forward_unit(
    unit: &mut [f32],
    src: &[f32],
    w: &[f32],
    bias_values: Option<&[f32]>,
    fusion: &ConvFusion<'_>,
    g: &ConvGeometry,
    spec: &Conv2dSpec,
    batch_index: usize,
    channel: usize,
) {
    let (k, s, pad) = (spec.kernel, spec.stride, spec.padding);
    let row_len = (g.width + 2 * pad).div_ceil(s);
    let plane_len = (g.height + 2 * pad).div_ceil(s) * row_len;
    let planes_len = s * s * plane_len + SWEEP_SLACK;
    let wide_len = ((g.out_h - 1) * row_len + g.out_w).next_multiple_of(SWEEP_SLACK);
    let plane = &src[(batch_index * spec.in_channels + channel) * g.height * g.width..]
        [..g.height * g.width];
    let head = bias_values.map_or(0.0, |values| values[channel]);
    let norm = fusion.norm.map(|nm| nm.params(channel));
    with_cols_scratch(planes_len + wide_len, |scratch| {
        let (planes, wide) = scratch.split_at_mut(planes_len);
        match (s, pad) {
            (1, 1) => fill_phase_planes(planes, plane, g, 1, 1, plane_len, row_len),
            (2, 1) => fill_phase_planes(planes, plane, g, 2, 1, plane_len, row_len),
            (s, pad) => fill_phase_planes(planes, plane, g, s, pad, plane_len, row_len),
        }
        (crate::simd::kernels().depthwise)(
            &DepthwiseSweep {
                planes,
                taps: &w[channel * k * k..][..k * k],
                kernel: k,
                stride: s,
                plane_len,
                row_len,
                head,
                norm,
                activation: fusion.activation,
            },
            wide,
        );
        for (row, wide_row) in unit.chunks_exact_mut(g.out_w).zip(wide.chunks(row_len)) {
            row.copy_from_slice(&wide_row[..g.out_w]);
        }
    });
}

/// Writes the zero-padded `height x width` input `plane` into `planes` as
/// `stride * stride` phase planes (see [`DepthwiseSweep`]); every other
/// slot, slack included, is zeroed.
#[inline(always)]
fn fill_phase_planes(
    planes: &mut [f32],
    plane: &[f32],
    g: &ConvGeometry,
    s: usize,
    pad: usize,
    plane_len: usize,
    row_len: usize,
) {
    planes.fill(0.0);
    for y in 0..g.height {
        let src_row = &plane[y * g.width..][..g.width];
        let (py, qy) = ((y + pad) % s, (y + pad) / s);
        if s == 1 {
            planes[qy * row_len + pad..][..g.width].copy_from_slice(src_row);
            continue;
        }
        for px in 0..s {
            // The input columns `x` with `(x + pad) % s == px`, ascending,
            // land contiguously in phase `(py, px)` from column
            // `(x0 + pad) / s` on.
            let x0 = (px + s - pad % s) % s;
            if x0 >= g.width {
                continue;
            }
            let dst = &mut planes[(py * s + px) * plane_len + qy * row_len + (x0 + pad) / s..];
            for (slot, &value) in dst.iter_mut().zip(src_row[x0..].iter().step_by(s)) {
                *slot = value;
            }
        }
    }
}

/// One `(batch, group)` unit of the forward pass: the group's GEMM with the
/// bias (and any fused norm/activation) riding in the epilogue. Shared by
/// the scratch-backed and column-caching forward drivers, so their outputs
/// are structurally bit-identical.
#[allow(clippy::too_many_arguments)]
fn conv_forward_unit(
    unit: &mut [f32],
    cols: &[f32],
    w: &[f32],
    bias_values: Option<&[f32]>,
    fusion: &ConvFusion<'_>,
    g: &ConvGeometry,
    group: usize,
    gemm_par: Parallelism,
) {
    let bias_group = bias_values.map(|v| &v[group * g.cout_g..][..g.cout_g]);
    // Slice the norm statistics down to this group's output channels so
    // the per-row index inside the kernels is channel-local.
    let norm_group = fusion.norm.map(|nm| ChannelNorm {
        gamma: &nm.gamma[group * g.cout_g..][..g.cout_g],
        beta: &nm.beta[group * g.cout_g..][..g.cout_g],
        mean: &nm.mean[group * g.cout_g..][..g.cout_g],
        var: &nm.var[group * g.cout_g..][..g.cout_g],
        epsilon: nm.epsilon,
    });
    let w_group = &w[group * g.cout_g * g.ckk..][..g.cout_g * g.ckk];
    let row_bias = bias_group.map(|values| Bias {
        values,
        axis: BiasAxis::Row,
    });
    let epilogue = match (row_bias, norm_group) {
        (bias, Some(norm)) => Epilogue::BiasNorm {
            bias,
            norm,
            activation: fusion.activation,
        },
        (Some(bias), None) => Epilogue::with_activation(bias, fusion.activation),
        (None, None) => Epilogue::None,
    };
    sgemm_epilogue_quiet(
        false,
        false,
        g.cout_g,
        g.out_plane,
        g.ckk,
        1.0,
        w_group,
        cols,
        0.0,
        unit,
        epilogue,
        gemm_par,
    );
    // Without a bias or norm there is no epilogue to carry the
    // activation; fall back to one in-place pass over this unit.
    if bias_group.is_none() && norm_group.is_none() {
        if let Some(act) = fusion.activation {
            for x in unit.iter_mut() {
                *x = act.apply(*x);
            }
        }
    }
}

/// Length (in `f32` elements) of the im2col column cache
/// [`conv2d_fused_caching`] fills for this input: one `[ckk, out_plane]`
/// matrix per `(batch, group)` unit, or 0 for pointwise (1x1, stride 1,
/// unpadded) and depthwise convolutions, which never unfold at all.
///
/// # Errors
///
/// Returns an error if the input is inconsistent with `spec`.
pub fn conv2d_cols_len(input: &Tensor, spec: &Conv2dSpec) -> Result<usize> {
    let g = ConvGeometry::new(input, spec)?;
    if spec.kernel == 1 && spec.stride == 1 && spec.padding == 0 {
        // Pointwise: the input slice is the column matrix.
        return Ok(0);
    }
    if g.is_depthwise() {
        // Depthwise: both directions run direct tap kernels that read the
        // input and weights without any column matrix.
        return Ok(0);
    }
    Ok(g.batch * spec.groups * g.ckk * g.out_plane)
}

/// [`conv2d_fused`] that additionally writes every `(batch, group)` unit's
/// unfolded column matrix into `cols_cache` (laid out unit-major, sized by
/// [`conv2d_cols_len`]) instead of throwaway thread-local scratch, so a
/// following [`conv2d_backward_into`] can reuse the columns and skip the
/// second unfold of the training step entirely. The cached values are the
/// ones the forward GEMM consumed — reusing them is bit-identical to
/// re-unfolding.
///
/// For pointwise and depthwise convolutions ([`conv2d_cols_len`] == 0)
/// this is exactly [`conv2d_fused`]; `cols_cache` must then be empty.
///
/// # Errors
///
/// Returns an error on the same shape problems as [`conv2d_fused`], or if
/// `cols_cache` has the wrong length.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_fused_caching(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
    fusion: ConvFusion<'_>,
    out: &mut [f32],
    cols_cache: &mut [f32],
) -> Result<[usize; 4]> {
    let expected = conv2d_cols_len(input, spec)?;
    if cols_cache.len() != expected {
        return Err(TensorError::LengthMismatch {
            expected,
            actual: cols_cache.len(),
        });
    }
    if expected == 0 {
        return conv2d_fused(input, weight, bias, spec, fusion, out);
    }
    let g = ConvGeometry::new(input, spec)?;
    check_weight(weight, spec)?;
    if let Some(b) = bias {
        if b.len() != spec.out_channels {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d bias",
                lhs: b.dims().to_vec(),
                rhs: vec![spec.out_channels],
            });
        }
    }
    if let Some(norm) = fusion.norm {
        if !norm.covers(spec.out_channels) {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d fused norm",
                lhs: vec![norm.channels()],
                rhs: vec![spec.out_channels],
            });
        }
    }
    let expected_len = g.batch * spec.out_channels * g.out_plane;
    if out.len() != expected_len {
        return Err(TensorError::LengthMismatch {
            expected: expected_len,
            actual: out.len(),
        });
    }
    let src = input.as_slice();
    let w = weight.as_slice();
    let bias_values = bias.map(Tensor::as_slice);
    let units = g.batch * spec.groups;
    let unit_len = g.cout_g * g.out_plane;
    let macs = g.batch * spec.out_channels * g.out_plane * g.ckk;
    obs::metrics::GEMM_CALLS.add(units as u64);
    obs::metrics::GEMM_FLOPS.add(2 * macs as u64);
    let _span = obs::span_dims(
        "conv2d_cached",
        obs::SpanKind::Kernel,
        [
            g.batch as u32,
            spec.out_channels as u32,
            spec.kernel as u32,
            g.out_plane as u32,
        ],
    );
    let (unit_threads, gemm_par) = split_threads(units, macs);
    for_each_unit_pair(
        out,
        unit_len,
        cols_cache,
        g.ckk * g.out_plane,
        unit_threads,
        |unit_index, unit, unit_cols| {
            let (b, group) = (unit_index / spec.groups, unit_index % spec.groups);
            im2col_group(unit_cols, src, &g, spec, b, group * g.cin_g);
            conv_forward_unit(
                unit,
                unit_cols,
                w,
                bias_values,
                &fusion,
                &g,
                group,
                gemm_par,
            );
        },
    );
    Ok([g.batch, spec.out_channels, g.out_h, g.out_w])
}

/// Gradients of a 2-D convolution.
///
/// Given the forward inputs and `grad_output` (`[batch, out_channels, out_h,
/// out_w]`), returns `(grad_input, grad_weight, grad_bias)` with the same
/// shapes as `input`, `weight` and `[out_channels]` respectively.
///
/// Both gradients are GEMM-shaped (see the module docs): `grad_input` is
/// `Wᵀ x grad_out` folded through col2im per `(batch, group)` unit, and
/// `grad_weight` accumulates `grad_out_b x cols_bᵀ` over the batch through
/// the GEMM's `beta = 1` path — one deterministic ascending `(batch,
/// position)` accumulation chain per element, with scratch bounded by a
/// single batch item.
///
/// # Errors
///
/// Returns an error if any shape disagrees with `spec`.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: &Conv2dSpec,
) -> Result<(Tensor, Tensor, Tensor)> {
    let mut grad_input = vec![0.0f32; input.len()];
    let mut grad_weight = vec![0.0f32; weight.len()];
    let mut grad_bias = vec![0.0f32; spec.out_channels];
    conv2d_backward_into(
        input,
        weight,
        grad_output,
        spec,
        None,
        None,
        &mut grad_input,
        &mut grad_weight,
        &mut grad_bias,
    )?;
    Ok((
        Tensor::from_vec(grad_input, input.dims())?,
        Tensor::from_vec(grad_weight, weight.dims())?,
        Tensor::from_vec(grad_bias, &[spec.out_channels])?,
    ))
}

/// [`conv2d_backward`] writing into caller-provided buffers — the planned,
/// zero-allocation training path — with two optional planned-path fusions:
///
/// * `cols`: the forward pass's im2col columns (from
///   [`conv2d_fused_caching`], sized by [`conv2d_cols_len`]). When given,
///   the weight-gradient GEMMs read them directly and the training step's
///   second unfold disappears. Reuse is bit-identical — the columns are the
///   very values a fresh unfold would produce.
/// * `mask`: a following (in backward order) activation's gradient mask
///   over this convolution's *input* gradient. For pointwise convolutions
///   it rides the input-gradient GEMM's write-back via [`Epilogue::Mask`];
///   otherwise it is one in-place sweep after col2im. Either way the result
///   is bit-identical to the unfused grad-input followed by the standalone
///   activation backward pass.
///
/// The three gradient buffers must hold exactly `input.len()`,
/// `weight.len()` and `out_channels` elements respectively; their prior
/// contents are ignored and fully overwritten (recycled arena buffers are
/// safe). Results are bit-identical to [`conv2d_backward`] (plus the
/// separate masking pass, when fused) for every thread count.
///
/// # Errors
///
/// Returns an error if any shape disagrees with `spec` or a buffer has the
/// wrong length.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_into(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: &Conv2dSpec,
    cols: Option<&[f32]>,
    mask: Option<GradMask<'_>>,
    grad_input: &mut [f32],
    grad_weight: &mut [f32],
    grad_bias: &mut [f32],
) -> Result<()> {
    let g = ConvGeometry::new(input, spec)?;
    check_weight(weight, spec)?;
    let expected = [g.batch, spec.out_channels, g.out_h, g.out_w];
    if grad_output.dims() != expected {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: grad_output.dims().to_vec(),
            rhs: expected.to_vec(),
        });
    }
    let src = input.as_slice();
    let w = weight.as_slice();
    let go = grad_output.as_slice();
    for (buffer, expected_len) in [
        (&*grad_input, src.len()),
        (&*grad_weight, w.len()),
        (&*grad_bias, spec.out_channels),
    ] {
        if buffer.len() != expected_len {
            return Err(TensorError::LengthMismatch {
                expected: expected_len,
                actual: buffer.len(),
            });
        }
    }
    if let Some(cached) = cols {
        let expected = conv2d_cols_len(input, spec)?;
        if cached.len() != expected {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: cached.len(),
            });
        }
    }
    if let Some(mask) = mask {
        if mask.input.len() != src.len() {
            return Err(TensorError::LengthMismatch {
                expected: src.len(),
                actual: mask.input.len(),
            });
        }
    }

    // grad_bias[oc] = sum of grad_output over batch and positions, ascending.
    for (oc, slot) in grad_bias.iter_mut().enumerate() {
        *slot = 0.0;
        for b in 0..g.batch {
            let plane = &go[(b * spec.out_channels + oc) * g.out_plane..][..g.out_plane];
            for &value in plane {
                *slot += value;
            }
        }
    }

    // Pointwise (1x1, stride 1, no padding) convolutions skip the lowering
    // in backward just like forward: the unfolded column matrix *is* the
    // input slice, and col2im is the identity scatter into a zeroed buffer
    // (`0.0 + v`, which is bit-identical to `v` — a beta == 0 GEMM never
    // produces a negative zero), so the input-gradient GEMM writes straight
    // into the image gradient and the weight-gradient GEMM reads the input
    // directly.
    let pointwise = spec.kernel == 1 && spec.stride == 1 && spec.padding == 0;

    // grad_input: per (batch, group) unit, grad_cols = W_gᵀ x grad_out_bg,
    // folded back through the adjoint unfold. col2im accumulates, so the
    // buffer is zeroed first — same chain head as a fresh zeroed vec.
    if !pointwise {
        grad_input.fill(0.0);
    }
    let units = g.batch * spec.groups;
    let macs = g.batch * spec.out_channels * g.out_plane * g.ckk;
    // Both backward GEMM families (grad-input and grad-weight) do the same
    // 2 * macs FLOPs each as the forward lowering. Depthwise convolutions
    // do that work in direct tap kernels, which are no GEMM calls.
    if pointwise || !g.is_depthwise() {
        obs::metrics::GEMM_CALLS.add(2 * units as u64);
    }
    obs::metrics::GEMM_FLOPS.add(4 * macs as u64);
    let _span = obs::span_dims(
        "conv2d_backward",
        obs::SpanKind::Kernel,
        [
            g.batch as u32,
            spec.out_channels as u32,
            spec.kernel as u32,
            g.out_plane as u32,
        ],
    );
    let (unit_threads, gemm_par) = split_threads(units, macs);
    let unit_len = g.cin_g * g.height * g.width;
    for_each_unit(grad_input, unit_len, unit_threads, |unit_index, unit| {
        let (b, group) = (unit_index / spec.groups, unit_index % spec.groups);
        let w_group = &w[group * g.cout_g * g.ckk..][..g.cout_g * g.ckk];
        let go_group = &go[(b * spec.out_channels + group * g.cout_g) * g.out_plane..]
            [..g.cout_g * g.out_plane];
        // This unit's slice of the fused activation mask, aligned with the
        // unit's region of the image gradient.
        let unit_mask = mask.map(|m| &m.input[unit_index * unit_len..][..unit.len()]);
        if pointwise {
            // The unit slice [cin_g, plane] is the column layout already;
            // the mask (if fused) rides the GEMM's write-back.
            let epilogue = match unit_mask {
                Some(mask_input) => Epilogue::Mask(GradMask {
                    input: mask_input,
                    grad: mask.expect("unit_mask implies mask").grad,
                }),
                None => Epilogue::None,
            };
            sgemm_epilogue_quiet(
                true,
                false,
                g.ckk,
                g.out_plane,
                g.cout_g,
                1.0,
                w_group,
                go_group,
                0.0,
                unit,
                epilogue,
                gemm_par,
            );
            return;
        }
        if g.is_depthwise() {
            // Depthwise fast path: the grad-cols "GEMM" is the rank-1 outer
            // product `w[tap] * go[pos]`, so fold it straight into the
            // col2im scatter — same tap-major accumulation order, each
            // product `fused_mul_add(w, go, 0)` replaced by the identical
            // `w * go`, and out-of-image taps (whose cols entries are zero)
            // contribute `±0` that the running sums ignore bit-exactly. No
            // per-unit GEMM call, no grad-cols materialisation.
            depthwise_grad_input_unit(unit, w_group, go_group, &g, spec);
        } else {
            with_cols_scratch(g.ckk * g.out_plane, |grad_cols| {
                sgemm_quiet(
                    true,
                    false,
                    g.ckk,
                    g.out_plane,
                    g.cout_g,
                    1.0,
                    w_group,
                    go_group,
                    0.0,
                    grad_cols,
                    gemm_par,
                );
                col2im_group(grad_cols, unit, &g, spec);
            });
        }
        if let (Some(mask_input), Some(mask)) = (unit_mask, mask) {
            // One in-place sweep: `g * d(x)`, exactly the standalone
            // activation backward product.
            for (v, &x) in unit.iter_mut().zip(mask_input) {
                *v *= mask.grad.derivative(x);
            }
        }
    });

    conv_grad_weight(src, go, spec, &g, pointwise, cols, grad_weight, macs);

    Ok(())
}

/// One depthwise `(batch, channel)` unit of the image gradient: the grad
/// columns of a depthwise convolution are the rank-1 product
/// `w[tap] * go[position]`, so the GEMM + col2im pair collapses into one
/// direct scatter. Iteration order is exactly [`col2im_group`]'s (tap-major,
/// then output positions), each scattered value is the same product the
/// GEMM produced, and sums of the form `x + ±0` are sign-insensitive here
/// (the destination never holds a negative zero), so the result is
/// bit-identical to the lowered path.
fn depthwise_grad_input_unit(
    unit: &mut [f32],
    w_tap: &[f32],
    go_unit: &[f32],
    g: &ConvGeometry,
    spec: &Conv2dSpec,
) {
    // Dispatch the common depthwise geometries to constant-folded copies of
    // the (single, `inline(always)`) body: with k/s/pad known the tap loops
    // unroll and the range arithmetic folds away — same code, same bits,
    // several times the throughput of the runtime-parameter fallback.
    match (spec.kernel, spec.stride, spec.padding) {
        (3, 1, 1) => dw_grad_input_body(unit, w_tap, go_unit, g, 3, 1, 1),
        (3, 2, 1) => dw_grad_input_body(unit, w_tap, go_unit, g, 3, 2, 1),
        (k, s, pad) => dw_grad_input_body(unit, w_tap, go_unit, g, k, s, pad),
    }
}

#[inline(always)]
fn dw_grad_input_body(
    unit: &mut [f32],
    w_tap: &[f32],
    go_unit: &[f32],
    g: &ConvGeometry,
    k: usize,
    s: usize,
    pad: usize,
) {
    for ky in 0..k {
        for kx in 0..k {
            let wv = w_tap[ky * k + kx];
            // Valid output-column range for this tap, hoisted out of the
            // scatter loop: `in_x = ox * s + kx - pad` must land in
            // `[0, width)`.
            let (lo, hi) = tap_range(g.out_w, g.width, s, kx, pad);
            if lo >= hi {
                continue;
            }
            for oy in 0..g.out_h {
                let in_y = (oy * s + ky) as isize - pad as isize;
                if in_y < 0 || in_y >= g.height as isize {
                    continue;
                }
                let dst_row = &mut unit[in_y as usize * g.width..][..g.width];
                let go_row = &go_unit[oy * g.out_w..(oy + 1) * g.out_w];
                if s == 1 {
                    // Contiguous AXPY: every destination in this tap row is
                    // touched exactly once, so the loop vectorises.
                    // `lo + kx >= pad` holds by construction of `lo`.
                    let off = lo + kx - pad;
                    for (d, &gv) in dst_row[off..off + (hi - lo)]
                        .iter_mut()
                        .zip(&go_row[lo..hi])
                    {
                        *d += wv * gv;
                    }
                } else {
                    for ox in lo..hi {
                        dst_row[ox * s + kx - pad] += wv * go_row[ox];
                    }
                }
            }
        }
    }
}

/// The output-column range `[lo, hi)` whose tap `kx` lands inside the image:
/// `0 <= ox * stride + kx - pad < width`. Both ends lie in `[0, out_w]`,
/// also when the padding is wider than the image and no column qualifies.
#[inline(always)]
fn tap_range(out_w: usize, width: usize, stride: usize, kx: usize, pad: usize) -> (usize, usize) {
    let lo = if kx >= pad {
        0
    } else {
        (pad - kx).div_ceil(stride).min(out_w)
    };
    let hi = if width + pad <= kx {
        0
    } else {
        out_w.min((width + pad - kx - 1) / stride + 1)
    };
    (lo, hi.max(lo))
}

/// One group of a depthwise weight gradient, computed by direct taps: each
/// tap's accumulator runs the exact ascending `(batch, position)`
/// [`fused_mul_add`] chain the lowered GEMV ran — out-of-image taps
/// contribute an explicit `fused_mul_add(go, 0.0, acc)` step, just as their
/// zero column entries did — so the result is bit-identical with no unfold
/// and no per-batch GEMM calls at all.
fn depthwise_grad_weight_group(
    unit: &mut [f32],
    src: &[f32],
    go: &[f32],
    g: &ConvGeometry,
    spec: &Conv2dSpec,
    channel: usize,
) {
    // Same constant-folding dispatch as `depthwise_grad_input_unit`. The
    // accumulator block is a const-generic size so the k == 3 instantiation
    // holds its nine chains in registers (a larger array defeats LLVM's
    // scalar replacement and pins every FMA to the stack).
    match (spec.kernel, spec.stride, spec.padding) {
        (3, 1, 1) => dw_grad_weight_body::<9>(unit, src, go, g, spec, channel, 3, 1, 1),
        (3, 2, 1) => dw_grad_weight_body::<9>(unit, src, go, g, spec, channel, 3, 2, 1),
        (k, s, pad) if k * k <= 25 => {
            dw_grad_weight_body::<25>(unit, src, go, g, spec, channel, k, s, pad)
        }
        (k, s, pad) => dw_grad_weight_tap_outer(unit, src, go, g, spec, channel, k, s, pad),
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
fn dw_grad_weight_body<const TAPS: usize>(
    unit: &mut [f32],
    src: &[f32],
    go: &[f32],
    g: &ConvGeometry,
    spec: &Conv2dSpec,
    channel: usize,
    k: usize,
    s_arg: usize,
    pad_arg: usize,
) {
    use crate::kernels::fused_mul_add;
    let ckk = k * k;
    // Position-outer with one independent accumulator chain per tap: each
    // chain still runs its exact ascending (batch, position) order, but the
    // `ckk` chains interleave, hiding the FMA latency a single serial chain
    // per tap would expose.
    debug_assert!(ckk <= TAPS);
    {
        let s = s_arg;
        let pad = pad_arg;
        let mut acc = [0.0f32; TAPS];
        // Interior ranges where every tap is in-image, hoisting the bounds
        // arithmetic out of the hot loop. Columns are still processed in
        // ascending order (edge, interior, edge), so each tap's chain is
        // unchanged.
        let (mut ox_lo, mut ox_hi) = (0usize, g.out_w);
        for kx in 0..k {
            let (lo, hi) = tap_range(g.out_w, g.width, s, kx, pad);
            ox_lo = ox_lo.max(lo);
            ox_hi = ox_hi.min(hi);
        }
        let (mut oy_lo, mut oy_hi) = (0usize, g.out_h);
        for ky in 0..k {
            let (lo, hi) = tap_range(g.out_h, g.height, s, ky, pad);
            oy_lo = oy_lo.max(lo);
            oy_hi = oy_hi.min(hi);
        }
        let ox_hi = ox_hi.max(ox_lo);
        let oy_hi = oy_hi.max(oy_lo);
        let pad_i = pad as isize;
        for b in 0..g.batch {
            let go_unit = &go[(b * spec.out_channels + channel) * g.out_plane..][..g.out_plane];
            let in_base = (b * spec.in_channels + channel) * g.height * g.width;
            for oy in 0..g.out_h {
                let go_row = &go_unit[oy * g.out_w..(oy + 1) * g.out_w];
                // The slow (edge) column step: per-tap bounds with explicit
                // zero contributions, preserving the exact chain. A macro —
                // not a closure — so the accumulator block is indexed
                // directly and stays eligible for scalar replacement
                // (a `&mut` capture would pin it to the stack).
                macro_rules! edge_step {
                    ($ox:expr) => {{
                        let ox = $ox;
                        let gv = go_row[ox];
                        for ky in 0..k {
                            let in_y = (oy * s + ky) as isize - pad_i;
                            let row_ok = in_y >= 0 && in_y < g.height as isize;
                            let row_base = in_base + in_y.max(0) as usize * g.width;
                            for kx in 0..k {
                                let in_x = (ox * s + kx) as isize - pad_i;
                                let sv = if row_ok && in_x >= 0 && in_x < g.width as isize {
                                    src[row_base + in_x as usize]
                                } else {
                                    0.0
                                };
                                acc[ky * k + kx] = fused_mul_add(gv, sv, acc[ky * k + kx]);
                            }
                        }
                    }};
                }
                if oy >= oy_lo && oy < oy_hi {
                    for ox in 0..ox_lo {
                        edge_step!(ox);
                    }
                    // Interior: every tap in-image, no bounds checks. The
                    // `oy * s + ky >= pad` and `ox * s + kx >= pad` offsets
                    // are non-negative by construction of the ranges.
                    debug_assert!(oy * s >= pad);
                    for ox in ox_lo..ox_hi {
                        let gv = go_row[ox];
                        let col0 = ox * s - pad;
                        for ky in 0..k {
                            let row_base = in_base + (oy * s + ky - pad) * g.width + col0;
                            let taps = &src[row_base..row_base + k];
                            for (kx, &sv) in taps.iter().enumerate() {
                                acc[ky * k + kx] = fused_mul_add(gv, sv, acc[ky * k + kx]);
                            }
                        }
                    }
                    for ox in ox_hi..g.out_w {
                        edge_step!(ox);
                    }
                } else {
                    for ox in 0..g.out_w {
                        edge_step!(ox);
                    }
                }
            }
        }
        unit.copy_from_slice(&acc[..ckk]);
    }
}

/// Tap-outer fallback for kernels too large for the register-blocked
/// position-outer path: one serial chain per tap, same ascending order.
#[allow(clippy::too_many_arguments)]
fn dw_grad_weight_tap_outer(
    unit: &mut [f32],
    src: &[f32],
    go: &[f32],
    g: &ConvGeometry,
    spec: &Conv2dSpec,
    channel: usize,
    k: usize,
    _s: usize,
    _pad: usize,
) {
    use crate::kernels::fused_mul_add;
    let pad = spec.padding as isize;
    for (tap, slot) in unit.iter_mut().enumerate() {
        let (ky, kx) = (tap / k, tap % k);
        let mut acc = 0.0f32;
        for b in 0..g.batch {
            let go_unit = &go[(b * spec.out_channels + channel) * g.out_plane..][..g.out_plane];
            let in_base = (b * spec.in_channels + channel) * g.height * g.width;
            for oy in 0..g.out_h {
                let in_y = (oy * spec.stride + ky) as isize - pad;
                let go_row = &go_unit[oy * g.out_w..(oy + 1) * g.out_w];
                if in_y < 0 || in_y >= g.height as isize {
                    for &gv in go_row {
                        acc = fused_mul_add(gv, 0.0, acc);
                    }
                    continue;
                }
                let src_row = &src[in_base + in_y as usize * g.width..][..g.width];
                for (ox, &gv) in go_row.iter().enumerate() {
                    let in_x = (ox * spec.stride + kx) as isize - pad;
                    let sv = if in_x >= 0 && in_x < g.width as isize {
                        src_row[in_x as usize]
                    } else {
                        0.0
                    };
                    acc = fused_mul_add(gv, sv, acc);
                }
            }
        }
        *slot = acc;
    }
}

/// The weight-gradient half of the convolution backward pass, shared by
/// [`conv2d_backward_into`] and [`conv2d_backward_params_into`]: per group,
/// accumulate `grad_out_b x cols_bᵀ` over the batch via `beta = 1`. The
/// per-element chain is the ascending (batch, position) order — identical
/// to a batch-concatenated GEMM — while any scratch stays one batch item
/// wide.
#[allow(clippy::too_many_arguments)]
fn conv_grad_weight(
    src: &[f32],
    go: &[f32],
    spec: &Conv2dSpec,
    g: &ConvGeometry,
    pointwise: bool,
    cols: Option<&[f32]>,
    grad_weight: &mut [f32],
    macs: usize,
) {
    // The first batch item's beta == 0 GEMM fully overwrites the buffer, so
    // no zeroing is needed — except for an empty batch, where no GEMM runs
    // at all.
    if g.batch == 0 {
        grad_weight.fill(0.0);
    }
    let (group_threads, gemm_par) = split_threads(spec.groups, macs);
    for_each_unit(
        grad_weight,
        g.cout_g * g.ckk,
        group_threads,
        |group, unit| {
            if g.is_depthwise() && !pointwise {
                // Depthwise fast path: direct taps, no unfold, no per-batch
                // GEMM calls (see `depthwise_grad_weight_group`).
                depthwise_grad_weight_group(unit, src, go, g, spec, group);
                return;
            }
            if pointwise {
                // Feed the input slices directly — no unfold copy at all.
                for b in 0..g.batch {
                    let input_group = &src
                        [(b * spec.in_channels + group * g.cin_g) * g.out_plane..]
                        [..g.ckk * g.out_plane];
                    let go_group = &go[(b * spec.out_channels + group * g.cout_g) * g.out_plane..]
                        [..g.cout_g * g.out_plane];
                    let beta = if b == 0 { 0.0 } else { 1.0 };
                    sgemm_quiet(
                        false,
                        true,
                        g.cout_g,
                        g.ckk,
                        g.out_plane,
                        1.0,
                        go_group,
                        input_group,
                        beta,
                        unit,
                        gemm_par,
                    );
                }
                return;
            }
            if let Some(cached) = cols {
                // Forward-cached columns: the second unfold of the training
                // step disappears — each (batch, group) unit's matrix is
                // read straight from the cache.
                for b in 0..g.batch {
                    let unit_cols = &cached[(b * spec.groups + group) * g.ckk * g.out_plane..]
                        [..g.ckk * g.out_plane];
                    let go_group = &go[(b * spec.out_channels + group * g.cout_g) * g.out_plane..]
                        [..g.cout_g * g.out_plane];
                    let beta = if b == 0 { 0.0 } else { 1.0 };
                    sgemm_quiet(
                        false,
                        true,
                        g.cout_g,
                        g.ckk,
                        g.out_plane,
                        1.0,
                        go_group,
                        unit_cols,
                        beta,
                        unit,
                        gemm_par,
                    );
                }
                return;
            }
            with_cols_scratch(g.ckk * g.out_plane, |cols| {
                for b in 0..g.batch {
                    im2col_group(cols, src, g, spec, b, group * g.cin_g);
                    let go_group = &go[(b * spec.out_channels + group * g.cout_g) * g.out_plane..]
                        [..g.cout_g * g.out_plane];
                    let beta = if b == 0 { 0.0 } else { 1.0 };
                    sgemm_quiet(
                        false,
                        true,
                        g.cout_g,
                        g.ckk,
                        g.out_plane,
                        1.0,
                        go_group,
                        cols,
                        beta,
                        unit,
                        gemm_par,
                    );
                }
            });
        },
    );
}

/// The parameter-gradient half of [`conv2d_backward_into`] alone: weight and
/// bias gradients, with the input gradient skipped entirely.
///
/// This is the planned-path optimisation for a network's *first* layer,
/// whose input is data and needs no gradient — the `Wᵀ x grad_out` GEMMs and
/// the col2im fold simply never run. The weight/bias gradients are
/// bit-identical to the full backward pass; `cols` plays the same
/// forward-cache role as in [`conv2d_backward_into`].
///
/// # Errors
///
/// Returns an error if any shape disagrees with `spec` or a buffer has the
/// wrong length.
pub fn conv2d_backward_params_into(
    input: &Tensor,
    grad_output: &Tensor,
    spec: &Conv2dSpec,
    cols: Option<&[f32]>,
    grad_weight: &mut [f32],
    grad_bias: &mut [f32],
) -> Result<()> {
    let g = ConvGeometry::new(input, spec)?;
    let expected = [g.batch, spec.out_channels, g.out_h, g.out_w];
    if grad_output.dims() != expected {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: grad_output.dims().to_vec(),
            rhs: expected.to_vec(),
        });
    }
    let weight_len: usize = spec.weight_dims().iter().product();
    for (buffer, expected_len) in [
        (&*grad_weight, weight_len),
        (&*grad_bias, spec.out_channels),
    ] {
        if buffer.len() != expected_len {
            return Err(TensorError::LengthMismatch {
                expected: expected_len,
                actual: buffer.len(),
            });
        }
    }
    if let Some(cached) = cols {
        let expected = conv2d_cols_len(input, spec)?;
        if cached.len() != expected {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: cached.len(),
            });
        }
    }
    let src = input.as_slice();
    let go = grad_output.as_slice();
    for (oc, slot) in grad_bias.iter_mut().enumerate() {
        *slot = 0.0;
        for b in 0..g.batch {
            let plane = &go[(b * spec.out_channels + oc) * g.out_plane..][..g.out_plane];
            for &value in plane {
                *slot += value;
            }
        }
    }
    let pointwise = spec.kernel == 1 && spec.stride == 1 && spec.padding == 0;
    let macs = g.batch * spec.out_channels * g.out_plane * g.ckk;
    if pointwise || !g.is_depthwise() {
        obs::metrics::GEMM_CALLS.add((g.batch * spec.groups) as u64);
    }
    obs::metrics::GEMM_FLOPS.add(2 * macs as u64);
    let _span = obs::span_dims(
        "conv2d_backward_params",
        obs::SpanKind::Kernel,
        [
            g.batch as u32,
            spec.out_channels as u32,
            spec.kernel as u32,
            g.out_plane as u32,
        ],
    );
    conv_grad_weight(src, go, spec, &g, pointwise, cols, grad_weight, macs);
    Ok(())
}

/// Unfolds `input` (`[batch, channels, h, w]`) into a matrix of sliding
/// windows with shape `[batch * out_h * out_w, channels * k * k]`.
///
/// The `spec` only uses `kernel`, `stride` and `padding`; channel counts are
/// taken from the input. This row-major layout is the classic lowering kept
/// for external use and tests; the convolution drivers above use an internal
/// channel-major variant that writes GEMM outputs straight into NCHW.
///
/// # Errors
///
/// Returns an error if the input is not rank 4 or the window does not fit.
pub fn im2col(input: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "im2col",
            expected: 4,
            actual: input.rank(),
        });
    }
    let [batch, channels, height, width] = [
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    ];
    let probe = Conv2dSpec {
        in_channels: channels,
        out_channels: channels,
        ..*spec
    };
    let (out_h, out_w) = probe.output_size(height, width)?;
    let k = spec.kernel;
    let cols_per_row = channels * k * k;
    obs::metrics::IM2COL_BYTES
        .add((batch * out_h * out_w * cols_per_row * std::mem::size_of::<f32>()) as u64);
    let _span = obs::span_dims(
        "im2col",
        obs::SpanKind::Kernel,
        [
            batch as u32,
            channels as u32,
            k as u32,
            (out_h * out_w) as u32,
        ],
    );
    let mut out = vec![0.0f32; batch * out_h * out_w * cols_per_row];
    let src = input.as_slice();
    let pad = spec.padding as isize;
    for b in 0..batch {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let row_base = ((b * out_h + oy) * out_w + ox) * cols_per_row;
                for c in 0..channels {
                    for ky in 0..k {
                        let in_y = (oy * spec.stride + ky) as isize - pad;
                        for kx in 0..k {
                            let in_x = (ox * spec.stride + kx) as isize - pad;
                            let col = (c * k + ky) * k + kx;
                            let value = if in_y >= 0
                                && in_y < height as isize
                                && in_x >= 0
                                && in_x < width as isize
                            {
                                src[((b * channels + c) * height + in_y as usize) * width
                                    + in_x as usize]
                            } else {
                                0.0
                            };
                            out[row_base + col] = value;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[batch * out_h * out_w, cols_per_row])
}

/// Folds an im2col matrix back into an image, accumulating overlapping
/// windows. This is the adjoint of [`im2col`].
///
/// # Errors
///
/// Returns an error if `cols` does not have the shape produced by [`im2col`]
/// for the given `image_dims` (`[batch, channels, h, w]`) and `spec`.
pub fn col2im(cols: &Tensor, image_dims: &[usize; 4], spec: &Conv2dSpec) -> Result<Tensor> {
    let [batch, channels, height, width] = *image_dims;
    let probe = Conv2dSpec {
        in_channels: channels,
        out_channels: channels,
        ..*spec
    };
    let (out_h, out_w) = probe.output_size(height, width)?;
    let k = spec.kernel;
    let cols_per_row = channels * k * k;
    let expected = [batch * out_h * out_w, cols_per_row];
    if cols.dims() != expected {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: cols.dims().to_vec(),
            rhs: expected.to_vec(),
        });
    }
    let mut out = vec![0.0f32; batch * channels * height * width];
    let src = cols.as_slice();
    let pad = spec.padding as isize;
    for b in 0..batch {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let row_base = ((b * out_h + oy) * out_w + ox) * cols_per_row;
                for c in 0..channels {
                    for ky in 0..k {
                        let in_y = (oy * spec.stride + ky) as isize - pad;
                        for kx in 0..k {
                            let in_x = (ox * spec.stride + kx) as isize - pad;
                            if in_y >= 0
                                && in_y < height as isize
                                && in_x >= 0
                                && in_x < width as isize
                            {
                                let col = (c * k + ky) * k + kx;
                                out[((b * channels + c) * height + in_y as usize) * width
                                    + in_x as usize] += src[row_base + col];
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[batch, channels, height, width])
}

/// Convolution forward pass through im2col and matrix multiplication.
///
/// Since the grouped GEMM lowering became the one and only [`conv2d`]
/// implementation this is an alias for it, kept for API compatibility; the
/// historical `groups == 1` restriction is gone.
///
/// # Errors
///
/// Returns an error for shapes inconsistent with `spec`.
pub fn conv2d_im2col(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    conv2d(input, weight, bias, spec)
}

#[cfg(test)]
mod oracle {
    //! The seed's direct 7-deep convolution loop, kept only as the
    //! reference the GEMM formulation is property-tested against.

    use super::*;
    use crate::kernels::fused_mul_add;

    /// Direct-loop convolution forward, accumulating with the same
    /// [`fused_mul_add`] step as the production GEMM so the two paths are
    /// comparable at full precision within one build.
    pub(super) fn conv2d_direct(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: &Conv2dSpec,
    ) -> Result<Tensor> {
        let (batch, height, width) = check_input(input, spec)?;
        check_weight(weight, spec)?;
        let (out_h, out_w) = spec.output_size(height, width)?;
        let groups = spec.groups;
        let cin_g = spec.in_channels / groups;
        let cout_g = spec.out_channels / groups;
        let k = spec.kernel;
        let mut out = vec![0.0f32; batch * spec.out_channels * out_h * out_w];
        let src = input.as_slice();
        let w = weight.as_slice();
        let pad = spec.padding as isize;
        for b in 0..batch {
            for g in 0..groups {
                for oc_local in 0..cout_g {
                    let oc = g * cout_g + oc_local;
                    let bias_val = bias.map_or(0.0, |t| t.as_slice()[oc]);
                    for oy in 0..out_h {
                        for ox in 0..out_w {
                            let mut acc = bias_val;
                            for ic_local in 0..cin_g {
                                let ic = g * cin_g + ic_local;
                                let w_base = ((oc * cin_g + ic_local) * k) * k;
                                let in_base = (b * spec.in_channels + ic) * height * width;
                                for ky in 0..k {
                                    let in_y = (oy * spec.stride + ky) as isize - pad;
                                    if in_y < 0 || in_y >= height as isize {
                                        continue;
                                    }
                                    let row_base = in_base + in_y as usize * width;
                                    let w_row = w_base + ky * k;
                                    for kx in 0..k {
                                        let in_x = (ox * spec.stride + kx) as isize - pad;
                                        if in_x < 0 || in_x >= width as isize {
                                            continue;
                                        }
                                        acc = fused_mul_add(
                                            src[row_base + in_x as usize],
                                            w[w_row + kx],
                                            acc,
                                        );
                                    }
                                }
                            }
                            out[((b * spec.out_channels + oc) * out_h + oy) * out_w + ox] = acc;
                        }
                    }
                }
            }
        }
        Tensor::from_vec(out, &[batch, spec.out_channels, out_h, out_w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::sgemm;
    use crate::rng::StdRng;
    use crate::Isa;

    fn finite_difference_check(spec: Conv2dSpec, input_dims: [usize; 4], seed: u64) {
        let mut rng = StdRng::seed_from(seed);
        let input = Tensor::randn(&input_dims, 0.0, 1.0, &mut rng);
        let weight = Tensor::randn(&spec.weight_dims(), 0.0, 0.5, &mut rng);
        let bias = Tensor::randn(&[spec.out_channels], 0.0, 0.5, &mut rng);
        let out = conv2d(&input, &weight, Some(&bias), &spec).unwrap();
        // Scalar loss: sum of outputs weighted by a fixed random tensor.
        let weights = Tensor::randn(out.dims(), 0.0, 1.0, &mut rng);
        let grad_output = weights.clone();
        let (gi, gw, gb) = conv2d_backward(&input, &weight, &grad_output, &spec).unwrap();

        let loss = |inp: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            conv2d(inp, w, Some(b), &spec)
                .unwrap()
                .mul(&weights)
                .unwrap()
                .sum()
        };

        let eps = 1e-2;
        // Spot-check a handful of coordinates in each gradient tensor.
        for idx in [0usize, input.len() / 2, input.len() - 1] {
            let mut plus = input.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[idx] -= eps;
            let num = (loss(&plus, &weight, &bias) - loss(&minus, &weight, &bias)) / (2.0 * eps);
            let ana = gi.as_slice()[idx];
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + num.abs()),
                "grad_input[{idx}]: numerical {num} vs analytical {ana}"
            );
        }
        for idx in [0usize, weight.len() / 2, weight.len() - 1] {
            let mut plus = weight.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = weight.clone();
            minus.as_mut_slice()[idx] -= eps;
            let num = (loss(&input, &plus, &bias) - loss(&input, &minus, &bias)) / (2.0 * eps);
            let ana = gw.as_slice()[idx];
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + num.abs()),
                "grad_weight[{idx}]: numerical {num} vs analytical {ana}"
            );
        }
        for idx in 0..spec.out_channels {
            let mut plus = bias.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = bias.clone();
            minus.as_mut_slice()[idx] -= eps;
            let num = (loss(&input, &weight, &plus) - loss(&input, &weight, &minus)) / (2.0 * eps);
            let ana = gb.as_slice()[idx];
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + num.abs()),
                "grad_bias[{idx}]: numerical {num} vs analytical {ana}"
            );
        }
    }

    #[test]
    fn output_size_accounts_for_stride_and_padding() {
        let spec = Conv2dSpec::new(3, 8, 3).with_stride(2).with_padding(1);
        assert_eq!(spec.output_size(8, 8).unwrap(), (4, 4));
        let spec = Conv2dSpec::new(3, 8, 3);
        assert_eq!(spec.output_size(8, 8).unwrap(), (6, 6));
    }

    #[test]
    fn output_size_rejects_oversized_kernel() {
        let spec = Conv2dSpec::new(1, 1, 5);
        assert!(spec.output_size(3, 3).is_err());
    }

    #[test]
    fn spec_rejects_bad_groups() {
        let spec = Conv2dSpec::new(3, 8, 3).with_groups(2);
        assert!(spec.output_size(8, 8).is_err());
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // A 1x1 kernel with weight 1 is the identity for a single channel.
        let spec = Conv2dSpec::new(1, 1, 1);
        let mut rng = StdRng::seed_from(1);
        let input = Tensor::randn(&[2, 1, 5, 5], 0.0, 1.0, &mut rng);
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let out = conv2d(&input, &weight, None, &spec).unwrap();
        assert!(out.allclose(&input, 1e-6));
    }

    #[test]
    fn known_3x3_convolution() {
        let spec = Conv2dSpec::new(1, 1, 3);
        // 4x4 input of increasing values, 3x3 averaging-like kernel of ones.
        let input = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let weight = Tensor::ones(&[1, 1, 3, 3]);
        let out = conv2d(&input, &weight, None, &spec).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        // Top-left window: rows 0..3, cols 0..3 = 0+1+2+4+5+6+8+9+10 = 45.
        assert_eq!(out.at(&[0, 0, 0, 0]).unwrap(), 45.0);
        assert_eq!(out.at(&[0, 0, 1, 1]).unwrap(), 45.0 + 9.0 * 5.0);
    }

    #[test]
    fn bias_is_added_to_every_output_position() {
        let spec = Conv2dSpec::new(1, 2, 1);
        let input = Tensor::zeros(&[1, 1, 3, 3]);
        let weight = Tensor::zeros(&[2, 1, 1, 1]);
        let bias = Tensor::from_vec(vec![1.5, -2.0], &[2]).unwrap();
        let out = conv2d(&input, &weight, Some(&bias), &spec).unwrap();
        assert_eq!(out.at(&[0, 0, 1, 1]).unwrap(), 1.5);
        assert_eq!(out.at(&[0, 1, 2, 2]).unwrap(), -2.0);
    }

    #[test]
    fn depthwise_convolution_keeps_channels_separate() {
        // groups == channels: each output channel only sees its own input channel.
        let spec = Conv2dSpec::new(2, 2, 1).with_groups(2);
        let input = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
            &[1, 2, 2, 2],
        )
        .unwrap();
        let weight = Tensor::from_vec(vec![2.0, 3.0], &[2, 1, 1, 1]).unwrap();
        let out = conv2d(&input, &weight, None, &spec).unwrap();
        assert_eq!(out.at(&[0, 0, 0, 0]).unwrap(), 2.0);
        assert_eq!(out.at(&[0, 1, 0, 0]).unwrap(), 30.0);
    }

    /// The satellite property test: the GEMM formulation equals the seed's
    /// direct loop on random dense, grouped and depthwise specifications,
    /// on every dispatch path and thread count. The last case carries
    /// ~37.7 M MACs over two batch units, two workers' worth at the scalar
    /// table's per-thread floor, so its scalar runs at 2 and 4 threads
    /// really spread over workers; every other case runs inline.
    #[test]
    fn property_gemm_conv_matches_direct_oracle() {
        let mut rng = StdRng::seed_from(0xC0FFEE);
        let cases: &[(Conv2dSpec, [usize; 4])] = &[
            (Conv2dSpec::new(3, 5, 3).with_padding(1), [2, 3, 9, 9]),
            (
                Conv2dSpec::new(4, 6, 3).with_padding(1).with_stride(2),
                [1, 4, 8, 8],
            ),
            (
                Conv2dSpec::new(6, 6, 3).with_padding(1).with_groups(6),
                [2, 6, 7, 7],
            ),
            (
                Conv2dSpec::new(8, 4, 3).with_padding(2).with_groups(2),
                [3, 8, 6, 6],
            ),
            (Conv2dSpec::new(4, 8, 1), [2, 4, 5, 5]),
            (
                Conv2dSpec::new(2, 2, 5).with_padding(2).with_groups(2),
                [1, 2, 11, 11],
            ),
            (Conv2dSpec::new(16, 32, 3).with_padding(1), [2, 16, 64, 64]),
        ];
        let (spec, dims) = cases[cases.len() - 1];
        let macs = dims[0] * spec.out_channels * dims[2] * dims[3] * dims[1] * 9;
        Parallelism::fixed(2).make_current();
        let (unit_threads, _) = Isa::Scalar.with(|| split_threads(dims[0], macs)).unwrap();
        assert_eq!(unit_threads, 2, "the last case must reach a second worker");
        for (case, (spec, dims)) in cases.iter().enumerate() {
            let input = Tensor::randn(dims, 0.0, 1.0, &mut rng);
            let weight = Tensor::randn(&spec.weight_dims(), 0.0, 0.5, &mut rng);
            let bias = Tensor::randn(&[spec.out_channels], 0.0, 0.5, &mut rng);
            for use_bias in [true, false] {
                let bias_ref = use_bias.then_some(&bias);
                let expected = oracle::conv2d_direct(&input, &weight, bias_ref, spec).unwrap();
                for isa in Isa::available() {
                    for threads in [1usize, 2, 4] {
                        Parallelism::fixed(threads).make_current();
                        let got = isa
                            .with(|| conv2d(&input, &weight, bias_ref, spec).unwrap())
                            .unwrap();
                        assert_eq!(
                            got, expected,
                            "case {case} (bias={use_bias}, {isa}, threads={threads}) diverged \
                             from the direct-loop oracle"
                        );
                    }
                }
            }
        }
        Parallelism::auto().make_current();
    }

    /// The direct depthwise forward equals the direct-loop oracle followed
    /// by the separate norm and activation passes, bit for bit, over kernel
    /// sizes, strides, paddings (wider than the image included), plane
    /// shapes down to a single output, batch sizes, bias, every fusion and
    /// every dispatch path. Every case is far below the per-thread MAC
    /// floor and runs inline; worker threads are covered by
    /// `depthwise_forward_is_bit_identical_on_worker_threads`.
    #[test]
    fn depthwise_forward_matches_direct_oracle_bitwise() {
        let mut rng = StdRng::seed_from(0xDE7);
        let channels = 3;
        let gamma = Tensor::randn(&[channels], 1.0, 0.3, &mut rng);
        let beta = Tensor::randn(&[channels], 0.0, 0.3, &mut rng);
        let mean = Tensor::randn(&[channels], 0.0, 0.3, &mut rng);
        let var = Tensor::rand_uniform(&[channels], 0.5, 1.5, &mut rng);
        let norm = ChannelNorm {
            gamma: gamma.as_slice(),
            beta: beta.as_slice(),
            mean: mean.as_slice(),
            var: var.as_slice(),
            epsilon: 1e-5,
        };
        let fusions = [
            ConvFusion::none(),
            ConvFusion::activation(EpilogueActivation::HardSwish),
            ConvFusion {
                norm: Some(norm),
                activation: None,
            },
            ConvFusion {
                norm: Some(norm),
                activation: Some(EpilogueActivation::HardSwish),
            },
        ];
        let mut checked = 0;
        for kernel in [1usize, 3, 5] {
            for stride in [1usize, 2, 3] {
                for padding in [0usize, 1, 2] {
                    let spec = Conv2dSpec::new(channels, channels, kernel)
                        .with_stride(stride)
                        .with_padding(padding)
                        .with_groups(channels);
                    // The smallest plane the kernel fits (a 1x1 output
                    // wherever the padding allows one) and a non-square one.
                    let min_side = kernel.saturating_sub(2 * padding).max(1);
                    for (height, width) in [(min_side, min_side), (kernel + 4, kernel + 9)] {
                        for batch in [1usize, 3] {
                            let dims = [batch, channels, height, width];
                            let input = Tensor::randn(&dims, 0.0, 1.0, &mut rng);
                            let weight = Tensor::randn(&spec.weight_dims(), 0.0, 0.5, &mut rng);
                            let bias = Tensor::randn(&[channels], 0.0, 0.5, &mut rng);
                            for bias_ref in [Some(&bias), None] {
                                let direct =
                                    oracle::conv2d_direct(&input, &weight, bias_ref, &spec)
                                        .unwrap();
                                let plane = direct.dims()[2] * direct.dims()[3];
                                for fusion in fusions {
                                    let expected: Vec<u32> = direct
                                        .as_slice()
                                        .iter()
                                        .enumerate()
                                        .map(|(i, &x)| {
                                            let channel = i / plane % channels;
                                            let x =
                                                fusion.norm.map_or(x, |nm| nm.apply(channel, x));
                                            fusion.activation.map_or(x, |a| a.apply(x)).to_bits()
                                        })
                                        .collect();
                                    for isa in Isa::available() {
                                        let mut out = vec![f32::NAN; direct.len()];
                                        isa.with(|| {
                                            conv2d_fused(
                                                &input, &weight, bias_ref, &spec, fusion, &mut out,
                                            )
                                        })
                                        .unwrap()
                                        .unwrap();
                                        let got: Vec<u32> =
                                            out.iter().map(|x| x.to_bits()).collect();
                                        assert_eq!(
                                            got,
                                            expected,
                                            "k{kernel} s{stride} p{padding} {height}x{width} \
                                             batch {batch} bias {} norm {} act {:?} {isa}",
                                            bias_ref.is_some(),
                                            fusion.norm.is_some(),
                                            fusion.activation,
                                        );
                                        checked += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(checked >= 27 * 2 * 2 * 2 * 4);
    }

    /// Depthwise units on worker threads, each with its own thread-local
    /// scratch, give the oracle's bits. The shape carries ~34.6 M MACs,
    /// two workers' worth at the scalar table's per-thread floor, so the
    /// scalar run really splits its units across threads; the SIMD
    /// tables' higher floors may keep theirs inline.
    #[test]
    fn depthwise_forward_is_bit_identical_on_worker_threads() {
        let mut rng = StdRng::seed_from(0xD1F);
        let channels = 32;
        let spec = Conv2dSpec::new(channels, channels, 5)
            .with_padding(2)
            .with_groups(channels);
        let input = Tensor::randn(&[3, channels, 120, 120], 0.0, 1.0, &mut rng);
        let weight = Tensor::randn(&spec.weight_dims(), 0.0, 0.5, &mut rng);
        let bias = Tensor::randn(&[channels], 0.0, 0.5, &mut rng);
        let expected = oracle::conv2d_direct(&input, &weight, Some(&bias), &spec).unwrap();
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        Parallelism::fixed(2).make_current();
        let (unit_threads, _) = Isa::Scalar
            .with(|| split_threads(3 * channels, expected.len() * 25))
            .unwrap();
        assert_eq!(unit_threads, 2, "the shape must reach a second worker");
        for isa in Isa::available() {
            for threads in [2usize, 4] {
                Parallelism::fixed(threads).make_current();
                let got = isa
                    .with(|| conv2d(&input, &weight, Some(&bias), &spec))
                    .unwrap()
                    .unwrap();
                assert_eq!(bits(&got), bits(&expected), "{isa}, threads {threads}");
            }
        }
        Parallelism::auto().make_current();
    }

    /// A depthwise backward whose padding is wider than the image (no
    /// output column has every tap in-image) matches the lowered
    /// formulation instead of indexing past the output row.
    #[test]
    fn depthwise_backward_handles_padding_wider_than_the_image() {
        let spec = Conv2dSpec::new(1, 1, 5).with_padding(2);
        let mut rng = StdRng::seed_from(0xD12);
        let input = Tensor::randn(&[1, 1, 10, 1], 0.0, 1.0, &mut rng);
        let weight = Tensor::randn(&spec.weight_dims(), 0.0, 0.5, &mut rng);
        let out = conv2d(&input, &weight, None, &spec).unwrap();
        assert_eq!(out.dims(), &[1, 1, 10, 1]);
        let grad_output = Tensor::randn(out.dims(), 0.0, 1.0, &mut rng);
        let (gi, gw, _) = conv2d_backward(&input, &weight, &grad_output, &spec).unwrap();
        // The lowered reference: grad_weight = go x colsᵀ, grad_input =
        // col2im(wᵀ x go).
        let g = ConvGeometry::new(&input, &spec).unwrap();
        let mut cols = vec![0.0f32; g.ckk * g.out_plane];
        im2col_group(&mut cols, input.as_slice(), &g, &spec, 0, 0);
        let mut expected_gw = vec![0.0f32; g.ckk];
        sgemm(
            false,
            true,
            1,
            g.ckk,
            g.out_plane,
            1.0,
            grad_output.as_slice(),
            &cols,
            0.0,
            &mut expected_gw,
            Parallelism::single(),
        );
        let mut grad_cols = vec![0.0f32; g.ckk * g.out_plane];
        sgemm(
            true,
            false,
            g.ckk,
            g.out_plane,
            1,
            1.0,
            weight.as_slice(),
            grad_output.as_slice(),
            0.0,
            &mut grad_cols,
            Parallelism::single(),
        );
        let mut expected_gi = vec![0.0f32; input.len()];
        col2im_group(&grad_cols, &mut expected_gi, &g, &spec);
        assert_eq!(gw.as_slice(), expected_gw.as_slice());
        assert_eq!(gi.as_slice(), expected_gi.as_slice());
    }

    /// Forward and backward results must not depend on the thread count.
    /// The shape carries ~37.7 M forward MACs, two workers' worth at the
    /// scalar table's per-thread floor, so the scalar run really spreads
    /// its (batch, group) units over threads; the SIMD tables' higher
    /// floors may keep theirs inline.
    #[test]
    fn conv_backward_is_bit_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from(99);
        let spec = Conv2dSpec::new(16, 32, 3).with_padding(1).with_groups(2);
        let input = Tensor::randn(&[4, 16, 64, 64], 0.0, 1.0, &mut rng);
        let weight = Tensor::randn(&spec.weight_dims(), 0.0, 0.5, &mut rng);
        let grad_output = Tensor::randn(&[4, 32, 64, 64], 0.0, 1.0, &mut rng);
        Parallelism::fixed(2).make_current();
        // Output elements × 8 input channels per group × 3 × 3 taps, over
        // 4 batch items × 2 groups of units.
        let macs = grad_output.len() * 8 * 9;
        let (unit_threads, _) = Isa::Scalar.with(|| split_threads(4 * 2, macs)).unwrap();
        assert_eq!(unit_threads, 2, "the shape must reach a second worker");
        Parallelism::single().make_current();
        let forward_reference = conv2d(&input, &weight, None, &spec).unwrap();
        let reference = conv2d_backward(&input, &weight, &grad_output, &spec).unwrap();
        for isa in Isa::available() {
            for threads in [2usize, 4] {
                Parallelism::fixed(threads).make_current();
                let (forward, got) = isa
                    .with(|| {
                        (
                            conv2d(&input, &weight, None, &spec).unwrap(),
                            conv2d_backward(&input, &weight, &grad_output, &spec).unwrap(),
                        )
                    })
                    .unwrap();
                assert_eq!(
                    forward, forward_reference,
                    "forward diverged: {isa}, {threads}"
                );
                assert_eq!(got.0, reference.0, "grad_input diverged: {isa}, {threads}");
                assert_eq!(got.1, reference.1, "grad_weight diverged: {isa}, {threads}");
                assert_eq!(got.2, reference.2, "grad_bias diverged: {isa}, {threads}");
            }
        }
        Parallelism::auto().make_current();
    }

    #[test]
    fn im2col_matmul_matches_direct_convolution() {
        let spec = Conv2dSpec::new(3, 5, 3).with_padding(1).with_stride(2);
        let mut rng = StdRng::seed_from(3);
        let input = Tensor::randn(&[2, 3, 9, 9], 0.0, 1.0, &mut rng);
        let weight = Tensor::randn(&spec.weight_dims(), 0.0, 0.5, &mut rng);
        let bias = Tensor::randn(&[5], 0.0, 0.5, &mut rng);
        let direct = oracle::conv2d_direct(&input, &weight, Some(&bias), &spec).unwrap();
        let via_cols = conv2d_im2col(&input, &weight, Some(&bias), &spec).unwrap();
        assert!(direct.allclose(&via_cols, 1e-4));
    }

    #[test]
    fn conv2d_im2col_now_accepts_groups() {
        let spec = Conv2dSpec::new(4, 4, 3).with_padding(1).with_groups(4);
        let mut rng = StdRng::seed_from(8);
        let input = Tensor::randn(&[1, 4, 6, 6], 0.0, 1.0, &mut rng);
        let weight = Tensor::randn(&spec.weight_dims(), 0.0, 0.5, &mut rng);
        let grouped = conv2d_im2col(&input, &weight, None, &spec).unwrap();
        assert_eq!(grouped, conv2d(&input, &weight, None, &spec).unwrap());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for any x, y — the defining property
        // of the adjoint, which is what the backward pass relies on.
        let spec = Conv2dSpec::new(2, 2, 3).with_padding(1);
        let dims = [1usize, 2, 5, 5];
        let mut rng = StdRng::seed_from(4);
        let x = Tensor::randn(&dims, 0.0, 1.0, &mut rng);
        let cols = im2col(&x, &spec).unwrap();
        let y = Tensor::randn(cols.dims(), 0.0, 1.0, &mut rng);
        let lhs = cols.dot(&y).unwrap();
        let folded = col2im(&y, &dims, &spec).unwrap();
        let rhs = x.dot(&folded).unwrap();
        assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()));
    }

    /// The depthwise backward fast paths (direct-tap grad_weight, fused
    /// rank-1 grad_input scatter) must equal the generic lowered
    /// formulation — grad-cols GEMM + col2im, per-batch GEMV over unfolded
    /// columns — exactly.
    #[test]
    fn depthwise_backward_matches_lowered_formulation_bitwise() {
        let mut rng = StdRng::seed_from(0xD11);
        for (stride, size) in [(1usize, 9usize), (2, 8)] {
            let spec = Conv2dSpec::new(6, 6, 3)
                .with_padding(1)
                .with_stride(stride)
                .with_groups(6);
            let dims = [3usize, 6, size, size];
            let input = Tensor::randn(&dims, 0.0, 1.0, &mut rng);
            let weight = Tensor::randn(&spec.weight_dims(), 0.0, 0.5, &mut rng);
            let g = ConvGeometry::new(&input, &spec).unwrap();
            let grad_output = Tensor::randn(
                &[g.batch, spec.out_channels, g.out_h, g.out_w],
                0.0,
                1.0,
                &mut rng,
            );
            Parallelism::single().make_current();
            let (gi, gw, gb) = conv2d_backward(&input, &weight, &grad_output, &spec).unwrap();

            // The lowered reference: exactly the pre-fast-path algorithm.
            let src = input.as_slice();
            let w = weight.as_slice();
            let go = grad_output.as_slice();
            let mut expected_gi = vec![0.0f32; src.len()];
            let unit_len = g.cin_g * g.height * g.width;
            for (unit_index, unit) in expected_gi.chunks_mut(unit_len).enumerate() {
                let (b, group) = (unit_index / spec.groups, unit_index % spec.groups);
                let w_group = &w[group * g.cout_g * g.ckk..][..g.cout_g * g.ckk];
                let go_group = &go[(b * spec.out_channels + group * g.cout_g) * g.out_plane..]
                    [..g.cout_g * g.out_plane];
                let mut grad_cols = vec![0.0f32; g.ckk * g.out_plane];
                sgemm(
                    true,
                    false,
                    g.ckk,
                    g.out_plane,
                    g.cout_g,
                    1.0,
                    w_group,
                    go_group,
                    0.0,
                    &mut grad_cols,
                    Parallelism::single(),
                );
                col2im_group(&grad_cols, unit, &g, &spec);
            }
            let mut expected_gw = vec![0.0f32; w.len()];
            for (group, unit) in expected_gw.chunks_mut(g.cout_g * g.ckk).enumerate() {
                let mut cols = vec![0.0f32; g.ckk * g.out_plane];
                for b in 0..g.batch {
                    im2col_group(&mut cols, src, &g, &spec, b, group * g.cin_g);
                    let go_group = &go[(b * spec.out_channels + group * g.cout_g) * g.out_plane..]
                        [..g.cout_g * g.out_plane];
                    let beta = if b == 0 { 0.0 } else { 1.0 };
                    sgemm(
                        false,
                        true,
                        g.cout_g,
                        g.ckk,
                        g.out_plane,
                        1.0,
                        go_group,
                        &cols,
                        beta,
                        unit,
                        Parallelism::single(),
                    );
                }
            }
            assert_eq!(
                gi.as_slice(),
                expected_gi.as_slice(),
                "grad_input diverged (stride {stride})"
            );
            assert_eq!(
                gw.as_slice(),
                expected_gw.as_slice(),
                "grad_weight diverged (stride {stride})"
            );
            assert_eq!(gb.len(), 6);
            Parallelism::auto().make_current();
        }
    }

    #[test]
    fn backward_matches_finite_differences_dense() {
        finite_difference_check(Conv2dSpec::new(2, 3, 3).with_padding(1), [1, 2, 5, 5], 10);
    }

    #[test]
    fn backward_matches_finite_differences_strided() {
        finite_difference_check(
            Conv2dSpec::new(3, 4, 3).with_padding(1).with_stride(2),
            [2, 3, 6, 6],
            11,
        );
    }

    #[test]
    fn backward_matches_finite_differences_depthwise() {
        finite_difference_check(
            Conv2dSpec::new(4, 4, 3).with_padding(1).with_groups(4),
            [1, 4, 5, 5],
            12,
        );
    }

    #[test]
    fn backward_rejects_wrong_grad_output_shape() {
        let spec = Conv2dSpec::new(1, 1, 3);
        let input = Tensor::zeros(&[1, 1, 5, 5]);
        let weight = Tensor::zeros(&[1, 1, 3, 3]);
        let wrong = Tensor::zeros(&[1, 1, 5, 5]);
        assert!(conv2d_backward(&input, &weight, &wrong, &spec).is_err());
    }

    #[test]
    fn conv_rejects_channel_mismatch() {
        let spec = Conv2dSpec::new(3, 4, 3);
        let input = Tensor::zeros(&[1, 2, 5, 5]);
        let weight = Tensor::zeros(&spec.weight_dims());
        assert!(conv2d(&input, &weight, None, &spec).is_err());
    }
}
