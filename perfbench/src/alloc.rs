//! A counting global allocator, switched on only for traced runs.
//!
//! Every allocation (`alloc`, `alloc_zeroed`, `realloc`) bumps a
//! per-thread counter while counting is on, and a process-wide total too
//! when asked for: the shared total costs a contended atomic per
//! allocation once several threads allocate at once, so runs whose
//! workers run side by side count per thread only. With counting off
//! (untraced runs) each allocation pays one relaxed atomic load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// The benchmark binary's global allocator.
pub struct CountingAlloc;

/// 0: off; 1: per thread; 2: per thread and process-wide.
static MODE: AtomicU8 = AtomicU8::new(0);
static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count() {
    let mode = MODE.load(Ordering::Relaxed);
    if mode > 0 {
        if mode > 1 {
            TOTAL.fetch_add(1, Ordering::Relaxed);
        }
        // `try_with`: an allocation during thread teardown is still
        // counted in the total, just not per thread.
        let _ = THREAD.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; `ptr` came from `System` via this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on (per thread, plus the process-wide total when
/// `total`) or off.
pub fn set_counting(on: bool, total: bool) {
    let mode = match (on, total) {
        (false, _) => 0,
        (true, false) => 1,
        (true, true) => 2,
    };
    MODE.store(mode, Ordering::SeqCst);
}

/// Allocations counted on the calling thread so far.
pub fn thread_count() -> u64 {
    THREAD.try_with(Cell::get).unwrap_or(0)
}

/// Allocations counted on all threads so far.
pub fn total_count() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}
