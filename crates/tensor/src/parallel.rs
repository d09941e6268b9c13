//! Zero-dependency scoped-thread parallelism for the compute kernels.
//!
//! Every parallel split in this crate partitions *output* elements: each
//! thread owns a disjoint, contiguous slice of the result buffer and runs
//! exactly the same per-element accumulation it would run single-threaded.
//! No thread ever writes an element another thread reads, there are no
//! atomics on the hot path, and — because the per-element floating-point
//! accumulation order never depends on the partition — results are
//! **bit-identical for every thread count**.
//!
//! The thread count comes from a [`Parallelism`] value. Kernels that take no
//! explicit configuration (such as [`crate::Tensor::matmul`]) read the
//! calling thread's ambient setting via [`Parallelism::current`], which
//! defaults to [`Parallelism::auto`] (one thread per available core).
//! Embedders that already shard work across threads — the serving worker
//! pool, for instance — pin their workers to [`Parallelism::single`] so the
//! kernels do not oversubscribe the machine.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;

/// How many threads the compute kernels may use.
///
/// `Parallelism` is a plain copyable value with three constructors:
///
/// * [`Parallelism::auto`] — resolve to `std::thread::available_parallelism`,
///   queried once per process (the default),
/// * [`Parallelism::single`] — always one thread,
/// * [`Parallelism::fixed`] — an explicit thread count.
///
/// The setting only ever bounds the *worker count*; it never changes
/// numerical results. See the module docs for the determinism argument.
///
/// # Example
///
/// ```
/// use mtlsplit_tensor::Parallelism;
///
/// assert_eq!(Parallelism::single().resolve(), 1);
/// assert_eq!(Parallelism::fixed(4).resolve(), 4);
/// assert!(Parallelism::auto().resolve() >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism(usize);

thread_local! {
    /// The calling thread's ambient parallelism, read by kernels that take
    /// no explicit configuration.
    static CURRENT: Cell<Parallelism> = const { Cell::new(Parallelism(0)) };
}

impl Parallelism {
    /// One worker per core: resolves to `available_parallelism` when used.
    pub fn auto() -> Self {
        Self(0)
    }

    /// Exactly one thread — kernels run inline on the caller.
    pub fn single() -> Self {
        Self(1)
    }

    /// An explicit thread count (clamped to at least 1).
    pub fn fixed(threads: usize) -> Self {
        Self(threads.max(1))
    }

    /// Whether this value defers to `available_parallelism`.
    pub fn is_auto(self) -> bool {
        self.0 == 0
    }

    /// The concrete thread count this value stands for, resolving
    /// [`Parallelism::auto`] against the machine.
    ///
    /// `auto` asks `std::thread::available_parallelism` once per process
    /// and reuses the answer: the query re-reads the affinity mask and the
    /// cgroup quota on every call (about 24 µs on a 2-vCPU Linux VM), a
    /// cost that every convolution and GEMM on a thread left at the default
    /// would otherwise pay. A later change of the process's CPU affinity or
    /// quota is therefore not observed; pin an explicit
    /// [`Parallelism::fixed`] budget to follow one.
    pub fn resolve(self) -> usize {
        static AVAILABLE: OnceLock<usize> = OnceLock::new();
        match self.0 {
            0 => *AVAILABLE.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            }),
            n => n,
        }
    }

    /// The ambient parallelism of the calling thread.
    ///
    /// This is what [`crate::Tensor::matmul`] and the convolution kernels
    /// use. It defaults to [`Parallelism::auto`] on every thread and is
    /// changed with [`Parallelism::make_current`].
    pub fn current() -> Self {
        CURRENT.with(Cell::get)
    }

    /// Installs this value as the calling thread's ambient parallelism.
    ///
    /// The setting is thread-local: a serving worker pinning itself to
    /// [`Parallelism::single`] does not affect a training loop running on
    /// another thread. Threads spawned by the kernels themselves never
    /// consult the ambient value (they execute their assigned slice
    /// inline), so nested oversubscription cannot occur.
    pub fn make_current(self) {
        CURRENT.with(|c| c.set(self));
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::auto()
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            0 => write!(f, "auto({})", self.resolve()),
            n => write!(f, "{n}"),
        }
    }
}

/// Caps `requested` worker threads by the FLOP budget: one thread per
/// `macs_per_thread` multiply-accumulates, and always at least one.
///
/// Spawning and joining a scoped thread costs tens of microseconds; below
/// roughly one floor's worth of work per thread that overhead exceeds the
/// compute, so small problems must run inline. A thread-count sweep of
/// square GEMMs showed exactly that regression before the floor existed:
/// 2- and 4-thread GEMMs slower than single-threaded up to `n = 384`. The floor
/// is *per dispatch path* — a wider micro-kernel retires the same MACs in
/// fewer cycles, so the faster the path, the more work a worker must bring
/// to amortise its spawn (see `simd::{SCALAR,AVX2,AVX512}_MIN_MACS`). The
/// values were calibrated on the 1-core reference container (which can
/// only ever show the overhead side of the trade); on a real multi-core
/// host the crossover may sit lower, so re-tune there if mid-size GEMMs
/// profile as underthreaded. The cap only ever reduces the worker count,
/// never changes results (see the module docs).
///
/// Every kernel in this crate routes its thread count through this helper,
/// so a tiny GEMM or convolution never pays scoped-thread spawn cost no
/// matter what the ambient [`Parallelism`] asks for.
pub(crate) fn threads_for_macs(requested: usize, macs: usize, macs_per_thread: usize) -> usize {
    requested.min(macs / macs_per_thread.max(1)).max(1)
}

/// Splits `rows` into at most `parts` contiguous ranges whose starts are
/// multiples of `align` (except possibly the last end). Every row is covered
/// exactly once and ranges are returned in ascending order.
pub(crate) fn partition_rows(rows: usize, parts: usize, align: usize) -> Vec<Range<usize>> {
    let align = align.max(1);
    let parts = parts.max(1);
    // Ceil-divide twice so each chunk is an aligned block count.
    let blocks = rows.div_ceil(align);
    let blocks_per_part = blocks.div_ceil(parts);
    let chunk = blocks_per_part * align;
    let mut ranges = Vec::new();
    let mut start = 0;
    while start < rows {
        let end = (start + chunk).min(rows);
        ranges.push(start..end);
        start = end;
    }
    if ranges.is_empty() {
        ranges.push(0..0);
    }
    ranges
}

/// Runs `f(unit_index, unit_slice)` over every `unit_len` chunk of `buf`,
/// spreading contiguous runs of units across up to `threads` scoped threads.
///
/// Each unit is written by exactly one thread and the work done per unit is
/// independent of the thread count, so outputs are bit-identical however the
/// units are spread. With `threads <= 1` (or a single unit) everything runs
/// inline on the caller.
pub(crate) fn for_each_unit<F>(buf: &mut [f32], unit_len: usize, threads: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if unit_len == 0 || buf.is_empty() {
        return;
    }
    let total = buf.len().div_ceil(unit_len);
    let threads = threads.clamp(1, total);
    if threads == 1 {
        // Inline fast path: no unit list is materialised, so a
        // single-threaded kernel call performs no heap allocation at all —
        // the planned inference runtime relies on this.
        for (index, unit) in buf.chunks_mut(unit_len).enumerate() {
            f(index, unit);
        }
        return;
    }
    let mut units: Vec<&mut [f32]> = buf.chunks_mut(unit_len).collect();
    let per_thread = total.div_ceil(threads);
    // Spawned workers start with a fresh thread-local ISA override; install
    // the caller's resolved dispatch table in each so a pinned path (for
    // example a forced-scalar property test) stays pinned across the scope.
    let kt = crate::simd::kernels();
    std::thread::scope(|scope| {
        let f = &f;
        let mut base = 0usize;
        let mut handles = Vec::new();
        while !units.is_empty() {
            let take = per_thread.min(units.len());
            let rest = units.split_off(take);
            let mine = std::mem::replace(&mut units, rest);
            let start = base;
            base += take;
            if units.is_empty() {
                // Run the final chunk inline: the caller is a worker too.
                for (offset, unit) in mine.into_iter().enumerate() {
                    f(start + offset, unit);
                }
            } else {
                handles.push(scope.spawn(move || {
                    crate::simd::with_kernels(kt, || {
                        for (offset, unit) in mine.into_iter().enumerate() {
                            f(start + offset, unit);
                        }
                    })
                }));
            }
        }
        for handle in handles {
            handle.join().expect("kernel worker thread panicked");
        }
    });
}

/// [`for_each_unit`] over two parallel buffers: `f(index, unit, extra_unit)`
/// receives the `unit_len` chunk of `buf` *and* the `extra_len` chunk of
/// `extra` for the same unit index. Both are written by exactly one thread;
/// the same determinism argument applies. `extra_len` must be positive and
/// `extra` must hold one chunk per unit of `buf`.
pub(crate) fn for_each_unit_pair<F>(
    buf: &mut [f32],
    unit_len: usize,
    extra: &mut [f32],
    extra_len: usize,
    threads: usize,
    f: F,
) where
    F: Fn(usize, &mut [f32], &mut [f32]) + Sync,
{
    if unit_len == 0 || buf.is_empty() {
        return;
    }
    debug_assert!(extra_len > 0);
    debug_assert_eq!(buf.len() / unit_len * extra_len, extra.len());
    let total = buf.len().div_ceil(unit_len);
    let threads = threads.clamp(1, total);
    if threads == 1 {
        // Inline fast path, allocation-free like `for_each_unit`.
        for (index, (unit, extra_unit)) in buf
            .chunks_mut(unit_len)
            .zip(extra.chunks_mut(extra_len))
            .enumerate()
        {
            f(index, unit, extra_unit);
        }
        return;
    }
    let mut units: Vec<(&mut [f32], &mut [f32])> = buf
        .chunks_mut(unit_len)
        .zip(extra.chunks_mut(extra_len))
        .collect();
    let per_thread = total.div_ceil(threads);
    // Same dispatch-table propagation as `for_each_unit`.
    let kt = crate::simd::kernels();
    std::thread::scope(|scope| {
        let f = &f;
        let mut base = 0usize;
        let mut handles = Vec::new();
        while !units.is_empty() {
            let take = per_thread.min(units.len());
            let rest = units.split_off(take);
            let mine = std::mem::replace(&mut units, rest);
            let start = base;
            base += take;
            if units.is_empty() {
                for (offset, (unit, extra_unit)) in mine.into_iter().enumerate() {
                    f(start + offset, unit, extra_unit);
                }
            } else {
                handles.push(scope.spawn(move || {
                    crate::simd::with_kernels(kt, || {
                        for (offset, (unit, extra_unit)) in mine.into_iter().enumerate() {
                            f(start + offset, unit, extra_unit);
                        }
                    })
                }));
            }
        }
        for handle in handles {
            handle.join().expect("kernel worker thread panicked");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_to_at_least_one() {
        assert!(Parallelism::auto().resolve() >= 1);
        assert!(Parallelism::auto().is_auto());
        // The memoised answer is the machine's, and it is stable.
        let machine = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(Parallelism::auto().resolve(), machine);
        assert_eq!(Parallelism::auto().resolve(), machine);
        assert!(!Parallelism::fixed(2).is_auto());
    }

    #[test]
    fn fixed_zero_is_clamped_to_one() {
        assert_eq!(Parallelism::fixed(0).resolve(), 1);
    }

    #[test]
    fn current_is_thread_local() {
        Parallelism::fixed(3).make_current();
        assert_eq!(Parallelism::current().resolve(), 3);
        let other = std::thread::spawn(|| Parallelism::current().is_auto())
            .join()
            .unwrap();
        assert!(other, "a fresh thread must start at auto");
        Parallelism::auto().make_current();
    }

    #[test]
    fn partition_covers_every_row_once() {
        for rows in [0usize, 1, 5, 17, 64, 100] {
            for parts in [1usize, 2, 3, 4, 9] {
                for align in [1usize, 4, 8] {
                    let ranges = partition_rows(rows, parts, align);
                    let mut next = 0;
                    for range in &ranges {
                        assert_eq!(range.start, next);
                        assert!(range.end > range.start || rows == 0);
                        if range.end != rows {
                            assert!(range.end.is_multiple_of(align));
                        }
                        next = range.end;
                    }
                    assert_eq!(next, rows);
                }
            }
        }
    }

    #[test]
    fn for_each_unit_visits_every_unit_exactly_once() {
        for threads in [1usize, 2, 4, 7] {
            let mut buf = vec![0.0f32; 6 * 5];
            for_each_unit(&mut buf, 5, threads, |index, unit| {
                for x in unit.iter_mut() {
                    *x += (index + 1) as f32;
                }
            });
            for (index, chunk) in buf.chunks(5).enumerate() {
                assert!(chunk.iter().all(|&x| x == (index + 1) as f32));
            }
        }
    }

    #[test]
    fn small_problems_never_get_extra_threads() {
        const FLOOR: usize = 16 * 1024 * 1024;
        // Below one thread's worth of MACs everything runs inline.
        assert_eq!(threads_for_macs(8, 64 * 64 * 64, FLOOR), 1);
        assert_eq!(threads_for_macs(8, 128 * 128 * 128, FLOOR), 1);
        // Enough work buys threads one at a time, capped by the request.
        assert_eq!(threads_for_macs(8, 2 * FLOOR, FLOOR), 2);
        assert_eq!(threads_for_macs(2, 64 * FLOOR, FLOOR), 2);
        // Degenerate inputs still yield a worker, and a zero floor is
        // treated as one rather than dividing by zero.
        assert_eq!(threads_for_macs(0, 0, FLOOR), 1);
        assert_eq!(threads_for_macs(4, FLOOR, 0), 4);
    }

    #[test]
    fn display_formats_both_modes() {
        assert_eq!(Parallelism::fixed(2).to_string(), "2");
        assert!(Parallelism::auto().to_string().starts_with("auto("));
    }
}
