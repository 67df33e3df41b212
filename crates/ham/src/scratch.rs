//! Per-thread grid scratch for the band loops (the `pt-fft` / `pt-xc`
//! idiom): the local Hamiltonian's dense array and `density`'s real-space
//! orbital are grown on a thread's first band and reused by every band
//! after it. A buffer of its own, not `pt-fft`'s: it is held across
//! transforms.

use pt_num::c64;
use std::cell::RefCell;

thread_local! {
    static SCRATCH: RefCell<Vec<c64>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on the first `len` elements of this thread's scratch buffer.
pub(crate) fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [c64]) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, c64::ZERO);
        }
        f(&mut buf[..len])
    })
}
