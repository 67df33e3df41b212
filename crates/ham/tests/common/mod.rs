//! The steady-state tests of this crate count allocations with
//! `pt_num::CountingAlloc` (each test binary includes this module and so
//! declares it as its own global allocator). The tally is per thread, so
//! neither the harness nor a pool worker can add to the calling thread's
//! count.

#[global_allocator]
static ALLOCATOR: pt_num::CountingAlloc = pt_num::CountingAlloc;

/// Allocations on this thread and `pt_trace` counter activity in the
/// process during `f`.
pub fn cost_of(f: impl FnOnce()) -> (u64, pt_trace::CounterSnapshot) {
    let mark = pt_trace::mark();
    let before = pt_num::allocations();
    f();
    let allocated = pt_num::allocations() - before;
    (allocated, pt_trace::counters_since(&mark))
}
