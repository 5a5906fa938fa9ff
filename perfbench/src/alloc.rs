//! A counting global allocator for the traced run.
//!
//! Counting is off until [`set_counting`] turns it on, so an untraced run
//! pays one relaxed load per allocation and nothing else. Threads count
//! into separate cache lines, so counting does not make the pool's threads
//! contend.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);

#[repr(align(64))]
struct Shard {
    calls: AtomicU64,
    bytes: AtomicU64,
}

const SHARDS: usize = 16;
static COUNTS: [Shard; SHARDS] = [const {
    Shard {
        calls: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Constant-initialised and without a destructor, so reading it never
    // allocates.
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The system allocator plus call and byte counters.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn note(bytes: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    let shard = SHARD
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            s.get()
        })
        .unwrap_or(0);
    COUNTS[shard].calls.fetch_add(1, Ordering::Relaxed);
    COUNTS[shard]
        .bytes
        .fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Turns counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// `(allocation calls, bytes requested)` counted so far.
pub fn totals() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(calls, bytes), s| {
        (
            calls + s.calls.load(Ordering::Relaxed),
            bytes + s.bytes.load(Ordering::Relaxed),
        )
    })
}
