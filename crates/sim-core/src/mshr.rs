//! Miss-status-holding registers for the last-level cache.
//!
//! Each entry records, per the paper's Table 7, the triggering load's block
//! offset (here: the full trigger address) and — for ECDP — the hint bit
//! vector context needed when the fill arrives. Demand requests arriving for
//! a block whose prefetch is already in flight *merge* into the entry; such
//! prefetches are counted as used-but-late.

use crate::frame::{FrameError, FrameReader, FrameWriter};
use crate::prefetcher::{AccessKind, PgTag, PrefetcherId};
use sim_mem::Addr;

/// An in-flight last-level-cache miss.
#[derive(Debug, Clone)]
pub struct MshrEntry {
    /// Block address being fetched.
    pub block_addr: Addr,
    /// What allocated the entry.
    pub kind: AccessKind,
    /// PC of the triggering (root) load.
    pub trigger_pc: u32,
    /// Exact byte address of the triggering demand access.
    pub trigger_addr: Addr,
    /// Content-directed recursion depth (prefetch entries).
    pub depth: u8,
    /// Pointer-group attribution (prefetch entries).
    pub pg: Option<PgTag>,
    /// Window slots (trace op indices) waiting on the fill.
    pub waiters: Vec<u32>,
    /// True if a demand request merged into a prefetch-allocated entry.
    pub demand_merged: bool,
    /// True if a merged demand was a store.
    pub store_merged: bool,
}

/// A fixed-capacity MSHR file with block-address lookup.
///
/// # Example
///
/// ```
/// use sim_core::mshr::MshrFile;
/// use sim_core::prefetcher::AccessKind;
///
/// let mut m = MshrFile::new(2);
/// let slot = m.alloc(0x1000, AccessKind::DemandLoad, 0x400, 0x1004).expect("free slot");
/// assert!(m.find(0x1000).is_some());
/// let entry = m.free(slot);
/// assert_eq!(entry.block_addr, 0x1000);
/// assert!(m.find(0x1000).is_none());
/// ```
#[derive(Debug)]
pub struct MshrFile {
    entries: Vec<Option<MshrEntry>>,
    /// Block address held by each slot, [`FREE`] when the slot is empty:
    /// a compact mirror of `entries` that [`MshrFile::find`] scans instead
    /// of the full entries.
    blocks: Vec<Addr>,
    occupied: u32,
    /// Retired waiter vectors awaiting reuse by [`MshrFile::alloc`], so
    /// the steady state allocates no per-miss `Vec`s.
    spare_waiters: Vec<Vec<u32>>,
}

/// Marks a free slot in [`MshrFile::blocks`]. Block addresses are 64-byte
/// aligned, so no real block ever equals it.
const FREE: Addr = Addr::MAX;

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries.
    pub fn new(capacity: u32) -> Self {
        MshrFile {
            entries: (0..capacity).map(|_| None).collect(),
            blocks: vec![FREE; capacity as usize],
            occupied: 0,
            spare_waiters: Vec::new(),
        }
    }

    /// Number of occupied entries.
    pub fn occupied(&self) -> u32 {
        self.occupied
    }

    /// True if no entry is free.
    pub fn is_full(&self) -> bool {
        self.occupied as usize == self.entries.len()
    }

    /// Finds the slot holding `block_addr`, if any.
    pub fn find(&self, block_addr: Addr) -> Option<usize> {
        self.blocks.iter().position(|&b| b == block_addr)
    }

    /// Immutable access to a slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn get(&self, slot: usize) -> &MshrEntry {
        self.entries[slot].as_ref().expect("free MSHR slot")
    }

    /// Mutable access to a slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn get_mut(&mut self, slot: usize) -> &mut MshrEntry {
        self.entries[slot].as_mut().expect("free MSHR slot")
    }

    /// Allocates an entry for `block_addr`. Returns `None` when full.
    pub fn alloc(
        &mut self,
        block_addr: Addr,
        kind: AccessKind,
        trigger_pc: u32,
        trigger_addr: Addr,
    ) -> Option<usize> {
        debug_assert!(self.find(block_addr).is_none(), "duplicate MSHR");
        debug_assert_ne!(block_addr, FREE, "MSHR blocks are 64-byte aligned");
        let slot = self.find(FREE)?;
        self.blocks[slot] = block_addr;
        self.entries[slot] = Some(MshrEntry {
            block_addr,
            kind,
            trigger_pc,
            trigger_addr,
            depth: 0,
            pg: None,
            waiters: self.spare_waiters.pop().unwrap_or_default(),
            demand_merged: false,
            store_merged: false,
        });
        self.occupied += 1;
        Some(slot)
    }

    /// Frees a slot, returning the entry.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already free.
    pub fn free(&mut self, slot: usize) -> MshrEntry {
        let e = self.entries[slot].take().expect("double free of MSHR slot");
        self.blocks[slot] = FREE;
        self.occupied -= 1;
        e
    }

    /// Returns a freed entry's waiter storage for reuse by a later
    /// [`MshrFile::alloc`] (the pool is bounded by the entry count).
    pub fn recycle_waiters(&mut self, mut waiters: Vec<u32>) {
        if self.spare_waiters.len() < self.entries.len() {
            waiters.clear();
            self.spare_waiters.push(waiters);
        }
    }

    /// Serializes every slot in order (slot indices are stored in DRAM
    /// requests, so positions must survive the round trip). The spare
    /// waiter pool is a pure allocation cache and is not captured.
    pub(crate) fn save_state(&self, w: &mut FrameWriter) {
        w.u32(self.entries.len() as u32);
        for slot in &self.entries {
            match slot {
                None => w.bool(false),
                Some(e) => {
                    w.bool(true);
                    w.u32(e.block_addr);
                    write_access_kind(w, e.kind);
                    w.u32(e.trigger_pc);
                    w.u32(e.trigger_addr);
                    w.u8(e.depth);
                    match e.pg {
                        None => w.bool(false),
                        Some(pg) => {
                            w.bool(true);
                            w.u32(pg.pc);
                            w.i16(pg.offset);
                        }
                    }
                    w.u32(e.waiters.len() as u32);
                    for &wt in &e.waiters {
                        w.u32(wt);
                    }
                    w.bool(e.demand_merged);
                    w.bool(e.store_merged);
                }
            }
        }
    }

    /// Restores state saved by [`MshrFile::save_state`] into a file of
    /// the same capacity.
    pub(crate) fn restore_state(&mut self, r: &mut FrameReader<'_>) -> Result<(), FrameError> {
        let n = r.u32()? as usize;
        if n != self.entries.len() {
            return Err(FrameError::Malformed(format!(
                "snapshot has {n} MSHRs, this file has {}",
                self.entries.len()
            )));
        }
        self.occupied = 0;
        for slot in &mut self.entries {
            *slot = None;
        }
        self.blocks.fill(FREE);
        for i in 0..n {
            if !r.bool()? {
                continue;
            }
            let block_addr = r.u32()?;
            let kind = read_access_kind(r)?;
            let trigger_pc = r.u32()?;
            let trigger_addr = r.u32()?;
            let depth = r.u8()?;
            let pg = if r.bool()? {
                let pc = r.u32()?;
                let offset = r.i16()?;
                Some(PgTag { pc, offset })
            } else {
                None
            };
            let num_waiters = r.count(4)?;
            let mut waiters = Vec::with_capacity(num_waiters);
            for _ in 0..num_waiters {
                waiters.push(r.u32()?);
            }
            let demand_merged = r.bool()?;
            let store_merged = r.bool()?;
            if block_addr == FREE {
                return Err(FrameError::Malformed(format!(
                    "MSHR {i} holds the free-slot sentinel as its block"
                )));
            }
            self.blocks[i] = block_addr;
            self.entries[i] = Some(MshrEntry {
                block_addr,
                kind,
                trigger_pc,
                trigger_addr,
                depth,
                pg,
                waiters,
                demand_merged,
                store_merged,
            });
            self.occupied += 1;
        }
        Ok(())
    }
}

fn write_access_kind(w: &mut FrameWriter, k: AccessKind) {
    match k {
        AccessKind::DemandLoad => w.u8(0),
        AccessKind::DemandStore => w.u8(1),
        AccessKind::Prefetch(id) => {
            w.u8(2);
            w.u8(id.0);
        }
    }
}

fn read_access_kind(r: &mut FrameReader<'_>) -> Result<AccessKind, FrameError> {
    match r.u8()? {
        0 => Ok(AccessKind::DemandLoad),
        1 => Ok(AccessKind::DemandStore),
        2 => Ok(AccessKind::Prefetch(PrefetcherId(r.u8()?))),
        t => Err(FrameError::Malformed(format!("access kind tag {t}"))),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Records the largest single allocation the current thread asks for
    /// (tests run on their own threads, so they do not see each other's).
    struct Counting;

    thread_local! {
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    fn note(size: usize) {
        LARGEST.with(|l| l.set(l.get().max(size)));
    }

    // SAFETY: defers every call to `System`; the bookkeeping touches only
    // a const-initialized thread-local `Cell`, which never allocates.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    #[test]
    fn hostile_waiter_count_fails_before_allocating() {
        // One occupied MSHR whose waiter count claims 2^24 entries (64 MiB
        // of u32s) while no waiter follows.
        let mut w = FrameWriter::new();
        w.u32(1);
        w.bool(true);
        w.u32(0x1000);
        write_access_kind(&mut w, AccessKind::DemandLoad);
        w.u32(0x400);
        w.u32(0x1000);
        w.u8(0);
        w.bool(false);
        w.u32(1 << 24);
        w.bool(false);
        w.bool(false);
        let bytes = w.into_bytes();
        let mut m = MshrFile::new(1);
        LARGEST.with(|l| l.set(0));
        let result = m.restore_state(&mut FrameReader::new(&bytes));
        let largest = LARGEST.with(Cell::get);
        assert_eq!(result.unwrap_err(), FrameError::Truncated);
        assert!(
            largest <= bytes.len() + 64 * 1024,
            "restore allocated {largest} bytes from a {}-byte input",
            bytes.len()
        );
    }

    #[test]
    fn alloc_until_full() {
        let mut m = MshrFile::new(2);
        assert!(m.alloc(0x0, AccessKind::DemandLoad, 1, 0x0).is_some());
        assert!(m.alloc(0x40, AccessKind::DemandLoad, 1, 0x40).is_some());
        assert!(m.is_full());
        assert!(m.alloc(0x80, AccessKind::DemandLoad, 1, 0x80).is_none());
    }

    #[test]
    fn free_slot_is_reusable() {
        let mut m = MshrFile::new(1);
        let s = m.alloc(0x0, AccessKind::DemandLoad, 1, 0x0).unwrap();
        m.free(s);
        assert_eq!(m.occupied(), 0);
        assert!(m.alloc(0x40, AccessKind::DemandLoad, 1, 0x40).is_some());
    }

    #[test]
    fn find_locates_entry_by_block() {
        let mut m = MshrFile::new(4);
        m.alloc(0x100, AccessKind::DemandLoad, 1, 0x104).unwrap();
        let s = m.alloc(0x200, AccessKind::DemandLoad, 2, 0x200).unwrap();
        assert_eq!(m.find(0x200), Some(s));
        assert_eq!(m.find(0x300), None);
    }

    #[test]
    fn block_index_follows_alloc_free_and_restore() {
        let mut m = MshrFile::new(4);
        let a = m.alloc(0x100, AccessKind::DemandLoad, 1, 0x100).unwrap();
        let b = m.alloc(0x200, AccessKind::DemandLoad, 1, 0x200).unwrap();
        let c = m.alloc(0x300, AccessKind::DemandLoad, 1, 0x300).unwrap();
        m.free(b);
        assert_eq!(m.find(0x200), None);
        // The lowest free slot is reused, as before the index existed.
        assert_eq!(m.alloc(0x400, AccessKind::DemandLoad, 1, 0x400), Some(b));
        assert_eq!(
            (m.find(0x100), m.find(0x300), m.find(0x400)),
            (Some(a), Some(c), Some(b))
        );

        let mut w = FrameWriter::new();
        m.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = MshrFile::new(4);
        restored
            .alloc(0x900, AccessKind::DemandLoad, 1, 0x900)
            .unwrap();
        restored
            .restore_state(&mut FrameReader::new(&bytes))
            .unwrap();
        assert_eq!(restored.find(0x900), None);
        assert_eq!(restored.find(0x400), Some(b));
        assert_eq!(restored.find(0x300), Some(c));
        assert_eq!(
            restored.alloc(0x500, AccessKind::DemandLoad, 1, 0x500),
            Some(3)
        );
        assert!(restored.is_full());
    }

    #[test]
    fn restore_rejects_the_free_sentinel_as_a_block() {
        let mut w = FrameWriter::new();
        w.u32(1);
        w.bool(true);
        w.u32(FREE);
        write_access_kind(&mut w, AccessKind::DemandLoad);
        w.u32(0x400);
        w.u32(0x400);
        w.u8(0);
        w.bool(false);
        w.u32(0);
        w.bool(false);
        w.bool(false);
        let bytes = w.into_bytes();
        let mut m = MshrFile::new(1);
        assert!(m.restore_state(&mut FrameReader::new(&bytes)).is_err());
    }

    #[test]
    fn merge_state_tracks_waiters() {
        let mut m = MshrFile::new(1);
        let s = m
            .alloc(
                0x0,
                AccessKind::Prefetch(crate::prefetcher::PrefetcherId(1)),
                0,
                0,
            )
            .unwrap();
        let e = m.get_mut(s);
        e.waiters.push(7);
        e.demand_merged = true;
        assert_eq!(m.get(s).waiters, vec![7]);
        assert!(m.get(s).demand_merged);
    }
}
