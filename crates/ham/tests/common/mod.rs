//! A counting global allocator shared by the steady-state tests of this
//! crate (each test binary includes this module and so gets its own copy).
//! The tally is per thread, so neither the harness nor a pool worker can
//! add to the calling thread's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` without a destructor, so bumping it neither allocates
// nor touches freed TLS.
unsafe impl GlobalAlloc for Counting {
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

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations made on this thread so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations on this thread and `pt_trace` counter activity in the
/// process during `f`.
pub fn cost_of(f: impl FnOnce()) -> (u64, pt_trace::CounterSnapshot) {
    let mark = pt_trace::mark();
    let before = allocations();
    f();
    let allocated = allocations() - before;
    (allocated, pt_trace::counters_since(&mark))
}
