//! Sparse page-granular simulated memory.

use std::sync::Arc;

use crate::{Addr, BLOCK_BYTES};

const PAGE_SHIFT: u32 = 12;
/// Size of one simulated memory page in bytes (the CoW sharing granule).
pub const PAGE_BYTES: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = (PAGE_BYTES as u32) - 1;
/// Number of pages in the 32-bit address space.
const NUM_PAGES: usize = 1 << (32 - PAGE_SHIFT);
/// Page slots per leaf of the page table: one leaf spans 4 MiB.
const LEAF_SHIFT: u32 = 10;
const LEAF_PAGES: usize = 1 << LEAF_SHIFT;
/// Leaves in the page-table directory.
const NUM_LEAVES: usize = NUM_PAGES / LEAF_PAGES;

/// Pages are reference-counted so cloning a memory image copies page
/// *pointers*, not page *data*; writes un-share lazily.
type Page = Arc<[u8; PAGE_BYTES]>;
/// One second-level table: the page slots of a 4 MiB address range.
type Leaf = [Option<Page>; LEAF_PAGES];

/// A sparse, byte-addressable simulated 32-bit memory.
///
/// Pages are allocated lazily on first write; reads of untouched memory
/// return zero, which conveniently never looks like a heap pointer to the
/// CDP compare-bits predictor.
///
/// The page table has two levels: a directory of 1024 leaves, each
/// holding the slots of 1024 pages, and a leaf is allocated only on the
/// first write into its 4 MiB range. An empty memory therefore costs an
/// 8 KiB directory, and a populated one 8 KiB more per touched range —
/// the table follows what the workload touches, not the size of the
/// address space.
///
/// Cloning is copy-on-write: the clone shares every resident page with
/// the original, and either side transparently un-shares a page the
/// first time it writes to it. Clones therefore behave exactly like deep
/// copies while costing only a copy of the directory and the touched
/// leaves — which is what lets the engine treat
/// `trace.initial_memory.clone()` as a cheap per-run snapshot restore.
///
/// All multi-byte accessors are little-endian (the modelled ISA is x86) and
/// impose no alignment requirements.
///
/// # Example
///
/// ```
/// use sim_mem::SimMemory;
///
/// let mut mem = SimMemory::new();
/// mem.write_u32(0x4000_0000, 42);
/// assert_eq!(mem.read_u32(0x4000_0000), 42);
/// assert_eq!(mem.read_u32(0x5000_0000), 0); // untouched => zero
/// ```
pub struct SimMemory {
    leaves: Box<[Option<Box<Leaf>>; NUM_LEAVES]>,
    resident: usize,
}

impl SimMemory {
    /// Creates an empty memory with no resident pages.
    pub fn new() -> Self {
        SimMemory {
            leaves: Box::new([const { None }; NUM_LEAVES]),
            resident: 0,
        }
    }

    /// Number of 4 KB pages currently resident (lazily allocated).
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Indices of the resident 4 KB pages (page `i` spans addresses
    /// `i * 4096 .. (i + 1) * 4096`), in ascending order.
    pub fn resident_page_indices(&self) -> Vec<u32> {
        let mut indices = Vec::with_capacity(self.resident);
        for (l, leaf) in self.leaves.iter().enumerate() {
            let Some(leaf) = leaf else { continue };
            for (s, slot) in leaf.iter().enumerate() {
                if slot.is_some() {
                    indices.push(((l << LEAF_SHIFT) | s) as u32);
                }
            }
        }
        indices
    }

    /// Raw bytes of the resident page `index` (see
    /// [`SimMemory::resident_page_indices`]), or `None` if the page was
    /// never touched. Used by the warm-state snapshot serializer.
    pub fn page_bytes(&self, index: u32) -> Option<&[u8]> {
        if index as usize >= NUM_PAGES {
            return None;
        }
        self.page(index << PAGE_SHIFT).map(|p| p.as_slice())
    }

    /// Installs a full page image at `index`, allocating it if absent.
    ///
    /// Returns `false` (without touching memory) if `index` is out of
    /// range or `data` is not exactly [`PAGE_BYTES`] long — the snapshot
    /// decoder turns that into a structured error instead of panicking.
    pub fn install_page(&mut self, index: u32, data: &[u8]) -> bool {
        if index as usize >= NUM_PAGES {
            return false;
        }
        let Ok(page) = <&[u8; PAGE_BYTES]>::try_from(data) else {
            return false;
        };
        let slot = Self::slot_mut(&mut self.leaves, index << PAGE_SHIFT);
        if slot.is_none() {
            self.resident += 1;
        }
        *slot = Some(Arc::new(*page));
        true
    }

    /// Directory and leaf positions of the page holding `addr`.
    #[inline]
    fn split(addr: Addr) -> (usize, usize) {
        let page = (addr >> PAGE_SHIFT) as usize;
        (page >> LEAF_SHIFT, page & (LEAF_PAGES - 1))
    }

    #[inline]
    fn page(&self, addr: Addr) -> Option<&Page> {
        let (l, s) = Self::split(addr);
        self.leaves[l].as_ref()?[s].as_ref()
    }

    /// The slot of the page holding `addr`, allocating its leaf if absent.
    #[inline]
    fn slot_mut(leaves: &mut [Option<Box<Leaf>>; NUM_LEAVES], addr: Addr) -> &mut Option<Page> {
        let (l, s) = Self::split(addr);
        let leaf = leaves[l].get_or_insert_with(|| Box::new([const { None }; LEAF_PAGES]));
        &mut leaf[s]
    }

    #[inline]
    fn page_mut(&mut self, addr: Addr) -> &mut [u8; PAGE_BYTES] {
        let slot = Self::slot_mut(&mut self.leaves, addr);
        if slot.is_none() {
            *slot = Some(Arc::new([0u8; PAGE_BYTES]));
            self.resident += 1;
        }
        // Copy-on-write: un-share the page if a clone still references it.
        let page = slot.as_mut().expect("page allocated above");
        Arc::make_mut(page)
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: Addr) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: Addr, value: u8) {
        let p = self.page_mut(addr);
        p[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads a little-endian `u16` (no alignment requirement).
    pub fn read_u16(&self, addr: Addr) -> u16 {
        u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr.wrapping_add(1))])
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: Addr, value: u16) {
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    /// Reads a little-endian `u32` (no alignment requirement).
    #[inline]
    pub fn read_u32(&self, addr: Addr) -> u32 {
        // Fast path: the access does not straddle a page boundary.
        if (addr & PAGE_MASK) <= PAGE_MASK - 3 {
            match self.page(addr) {
                Some(p) => {
                    let off = (addr & PAGE_MASK) as usize;
                    let bytes = p[off..off + 4].try_into().expect("4-byte slice");
                    u32::from_le_bytes(bytes)
                }
                None => 0,
            }
        } else {
            u32::from_le_bytes([
                self.read_u8(addr),
                self.read_u8(addr.wrapping_add(1)),
                self.read_u8(addr.wrapping_add(2)),
                self.read_u8(addr.wrapping_add(3)),
            ])
        }
    }

    /// Writes a little-endian `u32`.
    #[inline]
    pub fn write_u32(&mut self, addr: Addr, value: u32) {
        if (addr & PAGE_MASK) <= PAGE_MASK - 3 {
            let p = self.page_mut(addr);
            let off = (addr & PAGE_MASK) as usize;
            p[off..off + 4].copy_from_slice(&value.to_le_bytes());
        } else {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), *b);
            }
        }
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        (self.read_u32(addr) as u64) | ((self.read_u32(addr.wrapping_add(4)) as u64) << 32)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        self.write_u32(addr, value as u32);
        self.write_u32(addr.wrapping_add(4), (value >> 32) as u32);
    }

    /// Copies the cache block containing `addr` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != BLOCK_BYTES`.
    pub fn read_block(&self, addr: Addr, buf: &mut [u8]) {
        assert_eq!(buf.len(), BLOCK_BYTES as usize, "block buffer size");
        let base = crate::block_of(addr);
        // A 64-byte block never straddles a 4 KB page.
        match self.page(base) {
            Some(p) => {
                let off = (base & PAGE_MASK) as usize;
                buf.copy_from_slice(&p[off..off + BLOCK_BYTES as usize]);
            }
            None => buf.fill(0),
        }
    }

    /// Reads the 16 pointer-sized little-endian words of the cache block
    /// containing `addr`.
    ///
    /// This is the view of a fetched block that the content-directed
    /// prefetcher scans for candidate virtual addresses.
    pub fn read_block_words(&self, addr: Addr) -> [u32; crate::PTRS_PER_BLOCK] {
        let base = crate::block_of(addr);
        let mut words = [0u32; crate::PTRS_PER_BLOCK];
        if let Some(p) = self.page(base) {
            let off = (base & PAGE_MASK) as usize;
            for (i, w) in words.iter_mut().enumerate() {
                let o = off + i * 4;
                let bytes = p[o..o + 4].try_into().expect("4-byte slice");
                *w = u32::from_le_bytes(bytes);
            }
        }
        words
    }
}

impl Default for SimMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for SimMemory {
    /// Copy-on-write clone: shares every resident page with `self`.
    fn clone(&self) -> Self {
        SimMemory {
            leaves: self.leaves.clone(),
            resident: self.resident,
        }
    }

    /// Restores `self` to `source`'s contents, reusing `self`'s directory
    /// and every leaf both images have touched (the engine's rewind path
    /// calls this every multi-core replay).
    fn clone_from(&mut self, source: &Self) {
        self.leaves.clone_from(&source.leaves);
        self.resident = source.resident;
    }
}

impl std::fmt::Debug for SimMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimMemory")
            .field("resident_pages", &self.resident)
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// True if `a` and `b` hold the same physical page for `addr`.
    fn shares_page(a: &SimMemory, b: &SimMemory, addr: Addr) -> bool {
        Arc::ptr_eq(a.page(addr).unwrap(), b.page(addr).unwrap())
    }

    #[test]
    fn zero_initialised() {
        let mem = SimMemory::new();
        assert_eq!(mem.read_u8(0), 0);
        assert_eq!(mem.read_u32(0xFFFF_FFF0), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn rw_roundtrip_u8_u16_u32_u64() {
        let mut mem = SimMemory::new();
        mem.write_u8(0x100, 0xAB);
        assert_eq!(mem.read_u8(0x100), 0xAB);
        mem.write_u16(0x200, 0xBEEF);
        assert_eq!(mem.read_u16(0x200), 0xBEEF);
        mem.write_u32(0x300, 0xDEAD_BEEF);
        assert_eq!(mem.read_u32(0x300), 0xDEAD_BEEF);
        mem.write_u64(0x400, 0x0123_4567_89AB_CDEF);
        assert_eq!(mem.read_u64(0x400), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn unaligned_u32_crossing_page_boundary() {
        let mut mem = SimMemory::new();
        let addr = 0x1FFE; // straddles 0x1000..0x2000 page boundary
        mem.write_u32(addr, 0x1122_3344);
        assert_eq!(mem.read_u32(addr), 0x1122_3344);
        assert_eq!(mem.read_u8(0x1FFE), 0x44);
        assert_eq!(mem.read_u8(0x2001), 0x11);
    }

    #[test]
    fn little_endian_layout() {
        let mut mem = SimMemory::new();
        mem.write_u32(0x500, 0x0102_0304);
        assert_eq!(mem.read_u8(0x500), 0x04);
        assert_eq!(mem.read_u8(0x503), 0x01);
    }

    #[test]
    fn read_block_contents() {
        let mut mem = SimMemory::new();
        let base = 0x4000_0040;
        for i in 0..16u32 {
            mem.write_u32(base + i * 4, 0x4000_0000 + i);
        }
        let mut buf = [0u8; 64];
        mem.read_block(base + 20, &mut buf); // any addr in block
        assert_eq!(
            u32::from_le_bytes(buf[0..4].try_into().unwrap()),
            0x4000_0000
        );
        let words = mem.read_block_words(base + 63);
        assert_eq!(words[15], 0x4000_000F);
    }

    #[test]
    fn read_block_untouched_is_zero() {
        let mem = SimMemory::new();
        let words = mem.read_block_words(0x7000_0000);
        assert!(words.iter().all(|&w| w == 0));
    }

    #[test]
    fn clone_is_deep() {
        let mut a = SimMemory::new();
        a.write_u32(0x100, 7);
        let b = a.clone();
        a.write_u32(0x100, 9);
        assert_eq!(b.read_u32(0x100), 7);
        assert_eq!(a.read_u32(0x100), 9);
    }

    #[test]
    fn cow_clone_shares_pages_until_written() {
        let mut a = SimMemory::new();
        a.write_u32(0x100, 7);
        a.write_u32(0x2000, 8);
        let b = a.clone();
        // Pages are physically shared right after the clone.
        assert!(shares_page(&a, &b, 0x100));
        // A write un-shares only the touched page.
        let mut c = b.clone();
        c.write_u8(0x101, 9);
        assert!(!shares_page(&b, &c, 0x100));
        assert!(shares_page(&b, &c, 0x2000));
        assert_eq!(b.read_u8(0x101), 0);
        assert_eq!(c.read_u8(0x101), 9);
        assert_eq!(c.read_u32(0x2000), 8);
    }

    #[test]
    fn clone_from_restores_snapshot() {
        let mut snapshot = SimMemory::new();
        snapshot.write_u32(0x100, 7);
        let mut working = snapshot.clone();
        working.write_u32(0x100, 9);
        working.write_u32(0x9000, 1); // extra page beyond the snapshot
        working.clone_from(&snapshot);
        assert_eq!(working.read_u32(0x100), 7);
        assert_eq!(working.read_u32(0x9000), 0);
        assert_eq!(working.resident_pages(), snapshot.resident_pages());
    }

    #[test]
    fn resident_page_accounting() {
        let mut mem = SimMemory::new();
        mem.write_u8(0x0, 1);
        mem.write_u8(0x1, 1); // same page
        assert_eq!(mem.resident_pages(), 1);
        mem.write_u8(0x1000, 1);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn u32_straddling_a_leaf_boundary() {
        let mut mem = SimMemory::new();
        let boundary = (LEAF_PAGES * PAGE_BYTES) as Addr; // 4 MiB
        mem.write_u32(boundary - 2, 0xA1B2_C3D4);
        assert_eq!(mem.read_u32(boundary - 2), 0xA1B2_C3D4);
        assert_eq!(mem.read_u8(boundary - 2), 0xD4);
        assert_eq!(mem.read_u8(boundary + 1), 0xA1);
        assert_eq!(mem.resident_pages(), 2);
        assert_eq!(
            mem.resident_page_indices(),
            vec![LEAF_PAGES as u32 - 1, LEAF_PAGES as u32]
        );
    }

    #[test]
    fn top_page_is_addressable() {
        let mut mem = SimMemory::new();
        mem.write_u64(0xFFFF_FFF8, 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(0xFFFF_FFF8), 0x0102_0304_0506_0708);
        assert_eq!(mem.resident_page_indices(), vec![0xF_FFFF]);
        let page = mem.page_bytes(0xF_FFFF).unwrap();
        assert_eq!(page[PAGE_BYTES - 1], 0x01);
        let words = mem.read_block_words(0xFFFF_FFC0);
        assert_eq!(words[14], 0x0506_0708);
    }

    #[test]
    fn install_page_rejects_out_of_range_and_wrong_size() {
        let mut mem = SimMemory::new();
        let page = [7u8; PAGE_BYTES];
        assert!(!mem.install_page(1 << 20, &page));
        assert!(!mem.install_page(u32::MAX, &page));
        assert!(!mem.install_page(3, &page[..PAGE_BYTES - 1]));
        assert_eq!(mem.resident_pages(), 0);
        assert!(mem.page_bytes(1 << 20).is_none());
        assert!(mem.install_page(3, &page));
        assert!(mem.install_page(3, &page)); // replacing is not a new page
        assert_eq!(mem.resident_pages(), 1);
        assert_eq!(mem.read_u8(3 * PAGE_BYTES as Addr), 7);
    }

    #[test]
    fn resident_page_indices_ascend_across_leaves() {
        let mut mem = SimMemory::new();
        let addrs = [
            0xC000_0000u32,
            0x0040_1000,
            0x8000_0000,
            0x0000_2000,
            0x0040_0000,
        ];
        for a in addrs {
            mem.write_u8(a, 1);
        }
        let mut expected: Vec<u32> = addrs.iter().map(|a| a >> PAGE_SHIFT).collect();
        expected.sort_unstable();
        assert_eq!(mem.resident_page_indices(), expected);
        assert_eq!(mem.resident_pages(), addrs.len());
    }

    #[test]
    fn clone_from_a_smaller_image() {
        let mut small = SimMemory::new();
        small.write_u32(0x100, 1);
        let mut big = SimMemory::new();
        for leaf in 0..8u32 {
            big.write_u32(leaf << 22 | 0x100, 2);
        }
        big.write_u32(0x2000, 3);
        big.clone_from(&small);
        assert_eq!(big.resident_pages(), 1);
        assert_eq!(big.resident_page_indices(), vec![0]);
        assert_eq!(big.read_u32(0x100), 1);
        assert_eq!(big.read_u32(0x2000), 0);
        assert_eq!(big.read_u32(5 << 22 | 0x100), 0);
        // The restored image still un-shares on write.
        big.write_u32(0x100, 4);
        assert_eq!(small.read_u32(0x100), 1);
    }
}
