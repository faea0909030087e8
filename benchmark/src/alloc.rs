//! Counting wrapper around the system allocator.
//!
//! Installed for the whole process but switched on only around the real
//! op of a traced pass, so the untraced end-to-end numbers pay one relaxed
//! load per allocation and nothing else. The counts are exact: every
//! thread's allocator calls are included, pool workers too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The process allocator; see the module docs.
pub struct Counting;

// Statistics only: none of these publishes other data, so Relaxed is enough.
static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if ON.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow or shrink is one allocator call asking for `new_size`.
        note(new_size);
        // SAFETY: as in `dealloc`; `layout`/`new_size` are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` with counting on; returns its result and the `(calls, bytes)`
/// requested from the allocator while it ran.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (c0, b0) = (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ON.store(true, Ordering::Relaxed);
    let r = f();
    ON.store(false, Ordering::Relaxed);
    (
        r,
        COUNT.load(Ordering::Relaxed) - c0,
        BYTES.load(Ordering::Relaxed) - b0,
    )
}

/// Give the pages of freed blocks back to the kernel, so the resident set
/// is what is live and not what malloc happens to keep for reuse. Only
/// glibc has the call; elsewhere this does nothing.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and may be called at any
        // time from any thread; it only returns free pages to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}
