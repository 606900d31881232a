//! A counting global allocator: live heap bytes and their peak.
//!
//! The resident set a process reaches depends on when the system
//! allocator returns freed memory, which varies from run to run; the
//! peak of live heap bytes is what the program itself asked for, so a
//! change in it is a change in the program.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct CountingAlloc;

// Relaxed: the counters publish no other data; they are statistics read
// after the measured work has been joined.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result, so `System`'s guarantees hold; the
// counting around the calls touches only the two atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `alloc`'s requirements for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (hence
        // `System`) returned, with the layout it was allocated with.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller meets `realloc`'s requirements; `System`
        // allocated `ptr` with `layout`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

/// Restarts the peak from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Runs `f` (a check, not measured work) with its allocations kept out
/// of the peak: afterwards the peak is what it was before `f`, or the
/// bytes live now if that is more. Whatever other threads allocate
/// meanwhile is left out too, so the caller runs it while no measured
/// work is in flight.
pub fn unmeasured<T>(f: impl FnOnce() -> T) -> T {
    let peak = PEAK.load(Ordering::Relaxed);
    let value = f();
    PEAK.store(peak.max(LIVE.load(Ordering::Relaxed)), Ordering::Relaxed);
    value
}

/// The largest number of heap bytes live at once since the last reset,
/// in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
