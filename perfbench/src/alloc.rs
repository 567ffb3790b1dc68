//! A counting global allocator: live heap bytes and their high-water
//! mark, so `peak_heap_mb` measures what the engine actually keeps
//! allocated (resident-set size also counts freed pages the allocator
//! has not returned, and varies run to run). Counting is exact but puts
//! every allocation on one shared cache line, so it is switched on only
//! for a dedicated, untimed phase ([`count`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// Wraps the system allocator and tallies live bytes while counting.
pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn note(delta: isize) {
    // Relaxed: the flag and both counters are statistics and publish no
    // other data.
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if delta > 0 && live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Run `f` with counting on. Returns its result and the peak live heap
/// `f` added on top of what was allocated before it started, in MiB.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, f64) {
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, PEAK.load(Ordering::SeqCst) as f64 / (1024.0 * 1024.0))
}
