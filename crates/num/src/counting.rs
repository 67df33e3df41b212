//! A counting global allocator for allocation-budget tests. A test binary
//! declares it as its `#[global_allocator]`; [`allocations`] then reads the
//! calling thread's tally, so neither the harness nor a pool worker can add
//! to it. In a binary that does not declare it, the tally stays 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, plus a per-thread count of `alloc` and `realloc` calls.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` without a destructor, so bumping it neither allocates
// nor touches freed TLS.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: `layout` is the caller's, passed through as received.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `System` under this `layout` (all three
    // methods forward there).
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: `ptr`/`layout` describe a live `System` block, as above.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations made on this thread so far through [`CountingAlloc`].
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
