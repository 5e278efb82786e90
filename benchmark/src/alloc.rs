//! A counting global allocator, so the traced run can report heap
//! allocations per packet around `BatchExecutor::execute` and the heap
//! bytes one more live `EpochState` holds.
//!
//! The counts are per thread: on `churn` the controller thread builds
//! epochs (and allocates heavily) beside the worker, and only the
//! worker's own allocations belong in `batch.allocs_per_pkt`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Wraps the system allocator; every `alloc`/`realloc` bumps the
/// calling thread's counter.
pub struct CountingAllocator;

thread_local! {
    // `const` initialisation: no lazy-init allocation and no destructor,
    // so touching it from inside the allocator cannot recurse.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    // Bytes this thread allocated minus bytes it freed.
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` because the allocator still runs during thread teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn add_bytes(delta: i64) {
    let _ = NET_BYTES.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every call is forwarded to `System` with the caller's layout
// and pointer unchanged; the only addition is a thread-local counter
// and byte-count update, which touch no allocator state and never
// allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        add_bytes(layout.size() as i64);
        // SAFETY: same layout the caller guaranteed valid for `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        add_bytes(layout.size() as i64);
        // SAFETY: same layout the caller guaranteed valid. Forwarded (not
        // defaulted to alloc + memset) so large zeroed tables keep the
        // system allocator's lazily-zeroed pages and RSS reads true.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_bytes(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc`/`realloc` above with
        // this layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        add_bytes(new_size as i64 - layout.size() as i64);
        // SAFETY: pointer, layout and size are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocation events made by the calling thread so far.
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// Bytes the calling thread has allocated minus bytes it has freed.
/// A difference of two readings around a build is the heap the build's
/// result holds (as long as the same thread frees what it allocates).
pub fn thread_net_bytes() -> i64 {
    NET_BYTES.try_with(Cell::get).unwrap_or(0)
}
