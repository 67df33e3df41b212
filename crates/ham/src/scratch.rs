//! Per-thread grid scratch for the band loops, read through
//! [`pt_num::with_scratch`] as in `pt-fft` / `pt-xc`: the local
//! Hamiltonian's dense array and `density`'s real-space orbital are grown
//! on a thread's first band and reused by every band after it. A buffer of
//! its own, not `pt-fft`'s: it is held across transforms.

use pt_num::c64;
use std::cell::RefCell;

thread_local! {
    pub(crate) static SCRATCH: RefCell<Vec<c64>> = const { RefCell::new(Vec::new()) };
}
