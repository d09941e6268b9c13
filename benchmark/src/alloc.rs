//! A counting `#[global_allocator]`: every heap allocation of the whole
//! process (generator, poller, workers) is counted, so allocations per op
//! cover the request path from socket bytes in to socket bytes out.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator and counts calls and bytes.
pub struct CountingAllocator {
    allocations: AtomicU64,
    bytes: AtomicU64,
}

impl CountingAllocator {
    pub const fn new() -> Self {
        Self {
            allocations: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// `(allocations, bytes)` requested since the process started.
    /// `realloc` counts as one allocation of the new size.
    pub fn counts(&self) -> (u64, u64) {
        // Relaxed: the counters are statistics and publish no other data.
        (
            self.allocations.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }

    fn count(&self, size: usize) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only ever hands out `System` memory.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_number_of_allocations() {
        // A private instance, so other tests' allocations cannot interfere.
        let counter = CountingAllocator::new();
        let layout = Layout::new::<u64>();
        for _ in 0..100 {
            // SAFETY: `layout` has non-zero size, and each pointer is freed
            // once with the layout it was allocated with.
            unsafe {
                let ptr = counter.alloc(layout);
                assert!(!ptr.is_null());
                counter.dealloc(ptr, layout);
            }
        }
        assert_eq!(counter.counts(), (100, 800));
    }

    #[test]
    fn the_global_allocator_is_the_counting_one() {
        let (before, _) = crate::ALLOCATOR.counts();
        std::hint::black_box(Box::new(1u64));
        assert!(crate::ALLOCATOR.counts().0 > before);
    }
}
