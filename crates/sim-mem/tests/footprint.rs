//! Heap footprint of the page table, measured by a counting global
//! allocator: an empty memory and a copy-on-write clone must cost what
//! the workload touched, not the size of the 32-bit address space.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sim_mem::memory::PAGE_BYTES;
use sim_mem::SimMemory;

/// Counts the bytes the current thread allocates (tests run on their
/// own threads, so concurrent tests do not pollute each other's count).
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: defers every call to `System`; the bookkeeping touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated on this thread while running `f`.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

const KIB: usize = 1024;
/// One page-table leaf: 1024 page slots of one pointer each, spanning
/// 4 MiB of address space.
const LEAF_BYTES: usize = 1024 * std::mem::size_of::<usize>();
const LEAF_SPAN: u32 = 1 << 22;

#[test]
fn empty_memory_allocates_at_most_64_kib() {
    let (mem, bytes) = allocated_by(SimMemory::new);
    assert_eq!(mem.resident_pages(), 0);
    assert!(bytes <= 64 * KIB, "SimMemory::new allocated {bytes} bytes");
}

#[test]
fn clone_allocates_directory_plus_touched_leaves() {
    // 256 resident pages spread over 16 leaves, 16 pages in each.
    let mut mem = SimMemory::new();
    let leaves = 16u32;
    for leaf in 0..leaves {
        for page in 0..256 / leaves {
            mem.write_u32(
                0x1000_0000 + leaf * LEAF_SPAN + page * PAGE_BYTES as u32,
                leaf,
            );
        }
    }
    assert_eq!(mem.resident_pages(), 256);

    let (copy, bytes) = allocated_by(|| mem.clone());
    let bound = 64 * KIB + leaves as usize * LEAF_BYTES;
    assert!(
        bytes <= bound,
        "clone of 256 pages in {leaves} leaves allocated {bytes} bytes (bound {bound})"
    );
    // No page data was copied: the clone shares every page.
    assert!(bytes < 256 * PAGE_BYTES);
    assert_eq!(copy.resident_page_indices(), mem.resident_page_indices());

    // Restoring into an existing image of the same shape reuses its
    // directory and leaves.
    let mut working = copy.clone();
    working.write_u32(0x1000_0000, 99);
    let ((), bytes) = allocated_by(|| working.clone_from(&mem));
    assert!(bytes <= 64 * KIB, "clone_from allocated {bytes} bytes");
    assert_eq!(working.read_u32(0x1000_0000), 0);
}
