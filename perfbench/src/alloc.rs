//! Process-wide heap-allocation counter.
//!
//! `odrl_bench::allocs` counts per thread, so allocations made on shard
//! pool workers or sweep workers never show up in the caller's numbers.
//! This counter sees every thread: allocations on the thread that called
//! [`mark_caller`] go to the caller tally, all others to the worker tally.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static CALLER: AtomicU64 = AtomicU64::new(0);
static WORKER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static IS_CALLER: Cell<bool> = const { Cell::new(false) };
}

/// Counts every allocation and reallocation, then forwards to the system
/// allocator.
pub struct CountingAllocator;

#[inline]
fn count() {
    // `try_with`: allocations during TLS teardown land in the worker tally.
    if IS_CALLER.try_with(Cell::get).unwrap_or(false) {
        CALLER.fetch_add(1, Ordering::Relaxed);
    } else {
        WORKER.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; counting touches
// only atomics and a `const`-initialised thread-local, never the heap.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Marks the current thread as the benchmark's caller thread.
pub fn mark_caller() {
    IS_CALLER.with(|c| c.set(true));
}

/// Allocation totals so far, split by thread role.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Allocations on the caller thread.
    pub caller: u64,
    /// Allocations on every other thread.
    pub worker: u64,
}

impl Allocs {
    /// The current totals.
    pub fn now() -> Self {
        Self {
            caller: CALLER.load(Ordering::Relaxed),
            worker: WORKER.load(Ordering::Relaxed),
        }
    }

    /// Allocations since `earlier`.
    #[must_use]
    pub fn since(self, earlier: Self) -> Self {
        Self {
            caller: self.caller - earlier.caller,
            worker: self.worker - earlier.worker,
        }
    }

    /// Caller plus worker allocations.
    pub fn total(self) -> u64 {
        self.caller + self.worker
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Self) {
        self.caller += other.caller;
        self.worker += other.worker;
    }
}
