//! A modeler's memory follows a granule's distinct addresses, not the
//! trace length.
//!
//! The granule set keeps one page of bits per touched page of address
//! space and recycles the pages at every granule boundary. The worst case
//! for it is one distinct address per page, so this test feeds random
//! 64-bit addresses and bounds what the modeler holds per distinct address
//! of a granule, then checks that many more granules hold no more. A
//! counting global allocator measures the live bytes of this thread; the
//! file holds a single test, so nothing else allocates while it measures.

use mhe_model::params::ITraceModeler;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Heap bytes the modeler may hold per distinct address of a granule.
const BYTES_PER_ADDRESS: usize = 128;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's live bytes.
struct Counting;

fn count(bytes: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> usize {
    LIVE.with(Cell::get).max(0) as usize
}

#[test]
fn scattered_addresses_hold_a_bounded_set_that_does_not_grow_with_granules() {
    const GRANULE: usize = 5000;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let base = live();
    let mut m = ITraceModeler::new(GRANULE);
    for _ in 0..2 * GRANULE {
        m.process(next());
    }
    let few = live() - base;
    for _ in 0..60 * GRANULE {
        m.process(next());
    }
    let many = live() - base;
    assert_eq!(m.granules(), 62);
    let p = m.finish();
    assert_eq!(p.u1, GRANULE as f64, "random 64-bit addresses are all distinct");
    assert!(
        few <= BYTES_PER_ADDRESS * GRANULE,
        "{few} bytes for {GRANULE} distinct addresses ({} per address)",
        few / GRANULE
    );
    assert!(many <= few, "60 more granules grew the set from {few} to {many} bytes");
}
