//! Heap bytes the process holds, counted by its global allocator.
//!
//! `peak_heap_mb` comes from here rather than from the kernel's peak RSS
//! (`VmHWM`): with several threads glibc spreads allocations over arenas
//! and keeps freed memory in each, so the same run's RSS settled at about
//! 40 MB or climbed to about 58 MB depending on which threads met which
//! arenas. The bytes the program holds allocated do not depend on that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

/// The system allocator, counting the bytes it hands out.
pub struct Counting;

/// Net bytes a thread allocates before it adds them to [`LIVE`], so that
/// threads allocating in parallel (SELECT's refresh on the pool) do not
/// meet on one shared atomic at every allocation; the peak may read low
/// by up to this much per thread.
const BATCH: isize = 64 * 1024;

/// Bytes held, as flushed so far (a free may be flushed before the
/// allocation it undoes, so it can dip below 0).
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// A thread's count not yet in [`LIVE`]; added when the thread exits.
struct Pending(Cell<isize>);

impl Drop for Pending {
    fn drop(&mut self) {
        add_live(self.0.replace(0));
    }
}

thread_local! {
    static PENDING: Pending = const { Pending(Cell::new(0)) };
}

fn add_live(delta: isize) {
    let live = LIVE.fetch_add(delta, Relaxed) + delta;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn count(delta: isize) {
    let flush = PENDING
        .try_with(|pending| {
            let d = pending.0.get() + delta;
            if d.abs() < BATCH {
                pending.0.set(d);
                0
            } else {
                pending.0.set(0);
                d
            }
        })
        // A thread being torn down counts directly.
        .unwrap_or(delta);
    if flush != 0 {
        add_live(flush);
    }
}

fn grew(by: usize) {
    count(by as isize);
}

fn shrank(by: usize) {
    count(-(by as isize));
}

// SAFETY: every call is forwarded to `System` with the caller's
// arguments unchanged, so `System`'s guarantees are this allocator's; the
// counting only reads the layout and the returned pointer's nullness.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` meets the caller's contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Restarts the peak from the bytes held now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The most bytes held since the last [`reset_peak`], in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed).max(0) as f64 / (1024.0 * 1024.0)
}
