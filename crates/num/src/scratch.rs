//! Per-thread work arrays: the one body behind every crate's scratch
//! buffer. A buffer is grown on a thread's first call and reused by every
//! call after it, so a warm kernel allocates nothing.
//!
//! Each crate passes its **own** `thread_local!` key: pt-xc and pt-ham
//! hold their buffer across pt-fft transforms, which borrow pt-fft's, so a
//! single shared key would be a `RefCell` double borrow.

use crate::c64;
use std::cell::RefCell;
use std::thread::LocalKey;

/// Run `f` on the first `len` elements of this thread's buffer in `key`
/// (grown with zeros when shorter).
pub fn with_scratch<R>(
    key: &'static LocalKey<RefCell<Vec<c64>>>,
    len: usize,
    f: impl FnOnce(&mut [c64]) -> R,
) -> R {
    key.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, c64::ZERO);
        }
        f(&mut buf[..len])
    })
}
