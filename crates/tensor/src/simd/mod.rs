//! Runtime ISA dispatch for the compute kernels.
//!
//! Every hot kernel in this crate — the blocked GEMM micro-kernel, the
//! `m == 1` GEMV serving path, the direct depthwise-convolution sweep, and
//! the vectorised epilogue/softmax sweeps —
//! is reached through a [`Kernels`] dispatch table resolved **once per
//! process** from what the CPU reports at runtime (after the
//! `rten-simd` dispatch pattern):
//!
//! * **AVX-512** (`avx512f` + `avx2` + `fma`): a 14-row × 2 × 16-lane
//!   register tile,
//! * **AVX2 + FMA**: a 6-row × 2 × 8-lane register tile,
//! * **scalar**: the portable 4 × 24 tile in `kernels.rs`, autovectorised
//!   by LLVM (compiled against hardware FMA when the CPU has it, so its
//!   bits match the explicit-SIMD paths).
//!
//! Because every path accumulates each output element along the same
//! ascending-`k` chain and uses a correctly-rounded fused multiply-add
//! exactly when the CPU has one (see [`crate::fused_mul_add`]), **all
//! dispatch paths produce bit-identical results on a given machine** —
//! the cross-path property tests in `kernels.rs` enforce this to 0 ULP.
//!
//! The resolved default can be pinned with the `MTLSPLIT_FORCE_ISA`
//! environment variable (`scalar`, `avx2` or `avx512`); unknown values are
//! rejected with [`TensorError::UnknownIsa`] and paths the CPU lacks with
//! [`TensorError::UnsupportedIsa`] (surfaced by [`resolve_isa`], or as a
//! panic at first kernel use if never pre-flighted). Tests pin a path for
//! one closure with [`Isa::with`].

use crate::conv::DepthwiseSweep;
use crate::error::{Result, TensorError};
use crate::kernels::{Epilogue, TilePass};
use std::cell::Cell;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod vec;
#[cfg(target_arch = "x86_64")]
mod x86;

/// One GEMM micro-kernel: `(panel_a, panel_b, kc, c, c_offset, ldc, height,
/// width, abs_row, pass)` with the exact semantics of the scalar
/// `micro_kernel` in `kernels.rs`.
pub(crate) type MicroFn =
    fn(&[f32], &[f32], usize, &mut [f32], usize, usize, usize, usize, usize, TilePass<'_>);

/// One `m == 1` GEMV kernel: `(trans_b, n, k, alpha, a, b, beta, c,
/// epilogue)` with the exact semantics of `gemv_row` in `kernels.rs`.
pub(crate) type GemvFn = fn(bool, usize, usize, f32, &[f32], &[f32], f32, &mut [f32], Epilogue<'_>);

/// One depthwise sweep: every wide output of one `(batch, channel)` unit,
/// with the exact semantics of `depthwise_sweep` in `conv.rs`.
pub(crate) type DepthwiseFn = fn(&DepthwiseSweep<'_>, &mut [f32]);

/// Subtracts a scalar from every slice element (the log-softmax shift
/// passes). Subtraction is correctly rounded lane-wise, so every
/// implementation is bit-identical.
pub(crate) type SubFn = fn(&mut [f32], f32);

/// The per-ISA kernel set plus the blocking and threading parameters tuned
/// for it. Resolved once (see [`kernels`]) and threaded down through the
/// GEMM/conv drivers so spawned workers use the caller's path.
pub(crate) struct Kernels {
    /// Which dispatch path this table implements.
    pub(crate) isa: Isa,
    /// Micro-tile height (rows of packed `A` per panel).
    pub(crate) mr: usize,
    /// Micro-tile width (columns of packed `B` per panel).
    pub(crate) nr: usize,
    /// Row-block size (`mr`-aligned) for packed `A`.
    pub(crate) mc: usize,
    /// Minimum multiply-accumulates per worker thread before the drivers
    /// spread work over scoped threads — higher for wider tiles, whose
    /// higher throughput makes thread spawn overhead relatively costlier.
    pub(crate) min_macs_per_thread: usize,
    /// The register-tiled GEMM micro-kernel.
    pub(crate) micro: MicroFn,
    /// The `m == 1` GEMV fast path.
    pub(crate) gemv: GemvFn,
    /// The direct depthwise-convolution sweep.
    pub(crate) depthwise: DepthwiseFn,
    /// Vectorised scalar-subtract for the softmax shift passes.
    pub(crate) sub: SubFn,
}

/// Thread floor for the scalar (autovectorised 4×24) path.
pub(crate) const SCALAR_MIN_MACS: usize = 16 * 1024 * 1024;
/// Thread floor for the AVX2 path.
pub(crate) const AVX2_MIN_MACS: usize = 24 * 1024 * 1024;
/// Thread floor for the AVX-512 path.
pub(crate) const AVX512_MIN_MACS: usize = 32 * 1024 * 1024;

/// The portable dispatch table: the existing 4 × 24 scalar tile compiled
/// without explicit SIMD. Used directly when the build already targets
/// hardware FMA (then `f32::mul_add` lowers to `vfmadd` natively) or when
/// the CPU has no FMA at all; on FMA hardware under a portable build the
/// `x86` module swaps in a re-instantiation of the same code compiled with
/// the `fma` (and `avx2` where present) target features so LLVM
/// autovectorises it exactly like a `target-cpu=native` build.
static SCALAR_PLAIN: Kernels = Kernels {
    isa: Isa::Scalar,
    mr: crate::kernels::MR,
    nr: crate::kernels::NR,
    mc: crate::kernels::MC,
    min_macs_per_thread: SCALAR_MIN_MACS,
    micro: crate::kernels::micro_kernel,
    gemv: crate::kernels::gemv_row,
    depthwise: crate::conv::depthwise_sweep,
    sub: sub_scalar,
};

/// Plain scalar-subtract; exact per element, autovectorises at the SSE2
/// baseline.
pub(crate) fn sub_scalar(xs: &mut [f32], s: f32) {
    for x in xs.iter_mut() {
        *x -= s;
    }
}

/// A runtime-selectable instruction-set path for the compute kernels.
///
/// The crate resolves the best supported path once per process (override
/// with `MTLSPLIT_FORCE_ISA=scalar|avx2|avx512`); [`Isa::with`] pins a path
/// for the duration of one closure on the calling thread, which is how the
/// per-ISA property tests drive every path in one process.
///
/// All paths are bit-identical on a given machine — see the crate docs for
/// the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// The portable 4 × 24 tile, no explicit SIMD (LLVM autovectorised).
    Scalar,
    /// AVX2 + FMA: 6-row × 2 × 8-lane register tile.
    Avx2,
    /// AVX-512F: 14-row × 2 × 16-lane register tile.
    Avx512,
}

impl Isa {
    /// The canonical lower-case name (`scalar`, `avx2`, `avx512`) — the
    /// accepted `MTLSPLIT_FORCE_ISA` values.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Whether the running CPU can execute this path. [`Isa::Scalar`] is
    /// always supported; the SIMD paths additionally require hardware FMA
    /// so the accumulation chains stay bit-identical across paths.
    pub fn is_supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            match self {
                Isa::Scalar => true,
                Isa::Avx2 => {
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma")
                }
                Isa::Avx512 => {
                    std::arch::is_x86_feature_detected!("avx512f")
                        && std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma")
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            matches!(self, Isa::Scalar)
        }
    }

    /// Every path the running CPU supports, scalar first.
    pub fn available() -> Vec<Isa> {
        [Isa::Scalar, Isa::Avx2, Isa::Avx512]
            .into_iter()
            .filter(|isa| isa.is_supported())
            .collect()
    }

    /// The widest supported path — what the process resolves to when
    /// `MTLSPLIT_FORCE_ISA` is unset.
    pub fn detect_best() -> Isa {
        if Isa::Avx512.is_supported() {
            Isa::Avx512
        } else if Isa::Avx2.is_supported() {
            Isa::Avx2
        } else {
            Isa::Scalar
        }
    }

    /// Runs `f` with this path pinned as the calling thread's dispatch
    /// target, restoring the previous setting afterwards (also on panic).
    /// Kernel calls made by `f` — including work they fan out to scoped
    /// worker threads — use this path.
    ///
    /// # Errors
    ///
    /// [`TensorError::UnsupportedIsa`] if the CPU cannot execute the path.
    pub fn with<R>(self, f: impl FnOnce() -> R) -> Result<R> {
        if !self.is_supported() {
            return Err(TensorError::UnsupportedIsa { isa: self.name() });
        }
        Ok(with_kernels(table(self), f))
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Isa {
    type Err = TensorError;

    /// Parses a `MTLSPLIT_FORCE_ISA` value; unknown strings produce
    /// [`TensorError::UnknownIsa`].
    fn from_str(s: &str) -> Result<Isa> {
        match s {
            "scalar" => Ok(Isa::Scalar),
            "avx2" => Ok(Isa::Avx2),
            "avx512" => Ok(Isa::Avx512),
            other => Err(TensorError::UnknownIsa {
                value: other.to_string(),
            }),
        }
    }
}

/// Selects the dispatch table for one supported path.
fn table(isa: Isa) -> &'static Kernels {
    match isa {
        Isa::Scalar => scalar_table(),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => &x86::AVX2,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => &x86::AVX512,
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar_table(),
    }
}

/// The scalar table variant whose accumulation bits match the SIMD paths on
/// this machine — see [`SCALAR_PLAIN`].
fn scalar_table() -> &'static Kernels {
    if crate::kernels::FUSED_MULTIPLY_ADD {
        return &SCALAR_PLAIN;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if Isa::Avx2.is_supported() {
            return &x86::SCALAR_AVX2_FMA;
        }
        if std::arch::is_x86_feature_detected!("fma") {
            return &x86::SCALAR_FMA;
        }
    }
    &SCALAR_PLAIN
}

/// Whether accumulation on this machine uses a correctly-rounded hardware
/// fused multiply-add — the runtime complement of
/// [`crate::FUSED_MULTIPLY_ADD`]. Every kernel path agrees with this
/// answer, which is what keeps the dispatch paths bit-identical.
pub fn fma_available() -> bool {
    if crate::kernels::FUSED_MULTIPLY_ADD {
        return true;
    }
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One scalar correctly-rounded fused multiply-add through the hardware
/// unit, callable from builds that did not enable the `fma` target feature.
/// Only invoked after [`fma_available`] returned true.
#[inline]
pub(crate) fn fma_single(a: f32, b: f32, acc: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: gated on runtime FMA detection by the caller
        // (`fused_mul_add` checks `fma_available` first).
        unsafe { x86::fma_scalar(a, b, acc) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        a.mul_add(b, acc)
    }
}

/// The process-default dispatch table, or the typed error explaining why
/// the `MTLSPLIT_FORCE_ISA` override could not be honoured.
fn default_kernels() -> std::result::Result<&'static Kernels, TensorError> {
    static DEFAULT: OnceLock<std::result::Result<&'static Kernels, TensorError>> = OnceLock::new();
    DEFAULT
        .get_or_init(|| {
            let isa = match std::env::var_os("MTLSPLIT_FORCE_ISA") {
                None => Isa::detect_best(),
                Some(raw) => {
                    let value = raw.to_str().ok_or_else(|| TensorError::UnknownIsa {
                        value: raw.to_string_lossy().into_owned(),
                    })?;
                    let isa: Isa = value.parse()?;
                    if !isa.is_supported() {
                        return Err(TensorError::UnsupportedIsa { isa: isa.name() });
                    }
                    isa
                }
            };
            Ok(table(isa))
        })
        .clone()
}

thread_local! {
    /// A thread-scoped dispatch override installed by [`Isa::with`] (and by
    /// the parallel drivers, so scoped workers inherit the caller's path).
    static OVERRIDE: Cell<Option<&'static Kernels>> = const { Cell::new(None) };
}

/// Runs `f` with `kt` installed as the calling thread's dispatch table,
/// restoring the previous override afterwards (also on unwind).
pub(crate) fn with_kernels<R>(kt: &'static Kernels, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<&'static Kernels>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|cell| cell.replace(Some(kt))));
    f()
}

/// The dispatch table kernel entry points resolve against: the thread's
/// [`Isa::with`] override if one is installed, the process default
/// otherwise.
///
/// # Panics
///
/// If `MTLSPLIT_FORCE_ISA` holds an invalid or unsupported value and the
/// caller never pre-flighted it via [`resolve_isa`].
pub(crate) fn kernels() -> &'static Kernels {
    if let Some(kt) = OVERRIDE.with(Cell::get) {
        return kt;
    }
    match default_kernels() {
        Ok(kt) => kt,
        Err(err) => panic!("MTLSPLIT_FORCE_ISA rejected: {err}"),
    }
}

/// Resolves (and memoises) the process-default dispatch path, surfacing an
/// invalid `MTLSPLIT_FORCE_ISA` override as a typed error instead of the
/// panic the kernels themselves would raise. Call early — at program start —
/// to reject bad overrides gracefully.
///
/// # Errors
///
/// [`TensorError::UnknownIsa`] for an unrecognised override value,
/// [`TensorError::UnsupportedIsa`] for a path this CPU cannot run.
pub fn resolve_isa() -> Result<Isa> {
    default_kernels().map(|kt| kt.isa)
}

/// The dispatch path the calling thread's kernel calls would use right now:
/// the [`Isa::with`] override if inside one, the process default otherwise.
///
/// # Panics
///
/// Like the kernels, panics on an invalid `MTLSPLIT_FORCE_ISA` override —
/// pre-flight with [`resolve_isa`] to handle that as a typed error.
pub fn active_isa() -> Isa {
    kernels().isa
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_parses_canonical_names_and_rejects_unknowns() {
        assert_eq!("scalar".parse::<Isa>(), Ok(Isa::Scalar));
        assert_eq!("avx2".parse::<Isa>(), Ok(Isa::Avx2));
        assert_eq!("avx512".parse::<Isa>(), Ok(Isa::Avx512));
        for bad in ["", "AVX2", "neon", "avx-512", "scalar "] {
            assert_eq!(
                bad.parse::<Isa>(),
                Err(TensorError::UnknownIsa {
                    value: bad.to_string()
                }),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn names_round_trip() {
        for isa in [Isa::Scalar, Isa::Avx2, Isa::Avx512] {
            assert_eq!(isa.name().parse::<Isa>(), Ok(isa));
            assert_eq!(isa.to_string(), isa.name());
        }
    }

    #[test]
    fn scalar_is_always_supported_and_available() {
        assert!(Isa::Scalar.is_supported());
        let available = Isa::available();
        assert_eq!(available[0], Isa::Scalar);
        assert!(available.contains(&Isa::detect_best()));
    }

    #[test]
    fn with_pins_and_restores_the_active_path() {
        let outer = active_isa();
        let inner = Isa::Scalar
            .with(|| {
                // Nested pinning works and unwinds in order.
                let nested = Isa::detect_best().with(active_isa).unwrap();
                assert_eq!(nested, Isa::detect_best());
                active_isa()
            })
            .unwrap();
        assert_eq!(inner, Isa::Scalar);
        assert_eq!(active_isa(), outer);
    }

    #[test]
    fn every_available_table_is_consistent() {
        for isa in Isa::available() {
            let kt = table(isa);
            assert_eq!(kt.isa, isa);
            assert!(kt.mr > 0 && kt.nr > 0);
            assert!(kt.mc.is_multiple_of(kt.mr), "mc must be mr-aligned");
            assert!(kt.min_macs_per_thread >= SCALAR_MIN_MACS);
        }
    }

    #[test]
    fn fma_single_matches_mul_add_when_available() {
        if !fma_available() {
            return;
        }
        for (a, b, acc) in [
            (1.5f32, -2.25, 0.125),
            (3.0e-7, 1.0e7, -3.0),
            (0.1, 0.2, 0.3),
        ] {
            assert_eq!(fma_single(a, b, acc).to_bits(), a.mul_add(b, acc).to_bits());
        }
    }
}
