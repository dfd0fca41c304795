//! The interface between the timing engine and pluggable prefetchers.
//!
//! The engine raises two kinds of events: demand accesses at the last-level
//! cache ([`DemandAccess`]) and block fills ([`FillEvent`]). Prefetchers
//! react by pushing [`PrefetchRequest`]s into the per-core prefetch request
//! queue through [`PrefetchCtx`]. The content-directed prefetcher uses the
//! context's view of simulated memory to scan fetched blocks for pointers.

use sim_mem::{Addr, SimMemory, PTRS_PER_BLOCK};

/// Identifies a prefetcher registered with a machine (its registration
/// index). The paper's hybrid system has two: stream = 0, CDP = 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrefetcherId(pub u8);

impl std::fmt::Display for PrefetcherId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pf{}", self.0)
    }
}

/// Broad family of a prefetcher, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetcherKind {
    /// Stream/stride prefetcher.
    Stream,
    /// Content-directed (pointer-scanning) prefetcher, including ECDP.
    ContentDirected,
    /// Address-correlation prefetcher (Markov, GHB).
    Correlation,
    /// Dependence-based LDS prefetcher.
    Dependence,
    /// Anything else.
    Other,
}

/// The four aggressiveness levels of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Aggressiveness {
    /// Stream: distance 4, degree 1. CDP: max recursion depth 1.
    VeryConservative,
    /// Stream: distance 8, degree 1. CDP: max recursion depth 2.
    Conservative,
    /// Stream: distance 16, degree 2. CDP: max recursion depth 3.
    Moderate,
    /// Stream: distance 32, degree 4. CDP: max recursion depth 4.
    Aggressive,
}

impl Aggressiveness {
    /// All levels, least to most aggressive.
    pub const ALL: [Aggressiveness; 4] = [
        Aggressiveness::VeryConservative,
        Aggressiveness::Conservative,
        Aggressiveness::Moderate,
        Aggressiveness::Aggressive,
    ];

    /// Index of this level (0..=3).
    pub fn index(self) -> usize {
        match self {
            Aggressiveness::VeryConservative => 0,
            Aggressiveness::Conservative => 1,
            Aggressiveness::Moderate => 2,
            Aggressiveness::Aggressive => 3,
        }
    }

    /// One level more aggressive (saturating).
    pub fn up(self) -> Aggressiveness {
        Self::ALL[(self.index() + 1).min(3)]
    }

    /// One level less aggressive (saturating).
    pub fn down(self) -> Aggressiveness {
        Self::ALL[self.index().saturating_sub(1)]
    }
}

/// Pointer-group attribution tag: `PG(L, X)` is identified by the static
/// load `L` (its PC) and the byte offset `X` of the pointer from the byte the
/// load accessed (paper §3). Negative offsets are real: a pointer earlier in
/// the block than the accessed byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PgTag {
    /// PC of the demand load whose miss triggered the (root) prefetch.
    pub pc: u32,
    /// Byte offset of the pointer from the accessed byte, word-aligned.
    pub offset: i16,
}

/// What caused a block to be fetched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A demand load miss.
    DemandLoad,
    /// A demand store miss (write allocate).
    DemandStore,
    /// A prefetch from the given prefetcher.
    Prefetch(PrefetcherId),
}

impl AccessKind {
    /// True for demand (non-prefetch) accesses.
    pub fn is_demand(self) -> bool {
        !matches!(self, AccessKind::Prefetch(_))
    }
}

/// A demand access observed at the last-level cache.
#[derive(Debug, Clone, Copy)]
pub struct DemandAccess {
    /// PC of the load/store.
    pub pc: u32,
    /// Byte address accessed.
    pub addr: Addr,
    /// Functional value (loads: the loaded word; stores: the stored word).
    /// Used by dependence-based prefetchers that correlate produced pointer
    /// values with consumed addresses.
    pub value: u32,
    /// True if the access hit in the last-level cache.
    pub hit: bool,
    /// True for stores.
    pub is_store: bool,
    /// Cycle of the access.
    pub cycle: u64,
}

/// A block arriving at the last-level cache.
#[derive(Debug, Clone, Copy)]
pub struct FillEvent {
    /// Address of the filled block.
    pub block_addr: Addr,
    /// What fetched the block.
    pub kind: AccessKind,
    /// For demand-load fills: PC of the triggering load. For recursive
    /// content-directed fills: PC of the original (root) demand load.
    pub trigger_pc: u32,
    /// For demand-load fills: the exact byte address the load accessed
    /// (ECDP hint offsets are relative to this byte).
    pub trigger_addr: Addr,
    /// Recursion depth for content-directed prefetch fills (demand fills: 0).
    pub depth: u8,
    /// Pointer-group tag inherited from the root demand miss, if any.
    pub pg: Option<PgTag>,
    /// Cycle of the fill.
    pub cycle: u64,
}

/// A prefetch request emitted by a prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Target address (any byte of the desired block).
    pub addr: Addr,
    /// Issuing prefetcher.
    pub id: PrefetcherId,
    /// Recursion depth of this request (content-directed chains).
    pub depth: u8,
    /// Pointer-group attribution for ECDP profiling.
    pub pg: Option<PgTag>,
    /// PC of the root demand load (propagated through recursive chains).
    pub root_pc: u32,
}

/// Context handed to prefetcher callbacks: read-only memory for block
/// scanning plus a staging area for new prefetch requests.
pub struct PrefetchCtx<'a> {
    mem: &'a SimMemory,
    /// Current cycle.
    pub cycle: u64,
    requests: Vec<PrefetchRequest>,
}

impl<'a> PrefetchCtx<'a> {
    /// Creates a context over the core's memory image.
    pub fn new(mem: &'a SimMemory, cycle: u64) -> Self {
        PrefetchCtx {
            mem,
            cycle,
            requests: Vec::new(),
        }
    }

    /// The 16 pointer-sized words of the cache block containing `addr` —
    /// the view the content-directed prefetcher scans.
    pub fn block_words(&self, addr: Addr) -> [u32; PTRS_PER_BLOCK] {
        self.mem.read_block_words(addr)
    }

    /// Stages a prefetch request for the engine to enqueue.
    pub fn request(&mut self, req: PrefetchRequest) {
        self.requests.push(req);
    }

    /// Drains the staged requests (engine-side).
    pub fn take_requests(&mut self) -> Vec<PrefetchRequest> {
        std::mem::take(&mut self.requests)
    }

    /// Like [`PrefetchCtx::new`], staging into a caller-owned buffer so
    /// the engine's hot path reuses one allocation per core.
    pub(crate) fn with_buffer(
        mem: &'a SimMemory,
        cycle: u64,
        requests: Vec<PrefetchRequest>,
    ) -> Self {
        debug_assert!(requests.is_empty(), "staging buffer must start empty");
        PrefetchCtx {
            mem,
            cycle,
            requests,
        }
    }

    /// Returns the staging buffer (with any staged requests) to the
    /// caller, consuming the context.
    pub(crate) fn into_buffer(self) -> Vec<PrefetchRequest> {
        self.requests
    }
}

impl std::fmt::Debug for PrefetchCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefetchCtx")
            .field("cycle", &self.cycle)
            .field("staged_requests", &self.requests.len())
            .finish()
    }
}

/// A hardware prefetcher plugged into the machine.
///
/// Implementations react to last-level-cache events and stage requests into
/// the prefetch queue; the engine owns issue timing, MSHR allocation and
/// feedback accounting.
pub trait Prefetcher {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// The prefetcher family.
    fn kind(&self) -> PrefetcherKind;

    /// Called on every demand access at the last-level cache (hit or miss).
    fn on_demand_access(&mut self, _ctx: &mut PrefetchCtx<'_>, _ev: &DemandAccess) {}

    /// Called when a block fills into the last-level cache.
    fn on_fill(&mut self, _ctx: &mut PrefetchCtx<'_>, _ev: &FillEvent) {}

    /// Called when one of this prefetcher's own prefetched blocks resolves:
    /// used by a demand access (`used = true`) or evicted untouched
    /// (`used = false`). Hardware prefetch filters learn from this.
    fn on_prefetch_outcome(&mut self, _block_addr: Addr, _pg: Option<PgTag>, _used: bool) {}

    /// Sets the aggressiveness level (coordinated throttling, Table 2).
    fn set_aggressiveness(&mut self, _level: Aggressiveness) {}

    /// Current aggressiveness level.
    fn aggressiveness(&self) -> Aggressiveness {
        Aggressiveness::Aggressive
    }

    /// Serializes this prefetcher's learned state (tables, histories,
    /// LRU clocks) for a warm-state snapshot. The aggressiveness level is
    /// captured separately by the engine; stateless prefetchers keep the
    /// default no-op.
    fn save_state(&self, _w: &mut crate::frame::FrameWriter) {}

    /// Restores state written by [`Prefetcher::save_state`], fully
    /// overwriting any previously learned state.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::frame::FrameError`] on a malformed blob;
    /// the engine surfaces it as a snapshot rejection.
    fn load_state(
        &mut self,
        _r: &mut crate::frame::FrameReader<'_>,
    ) -> Result<(), crate::frame::FrameError> {
        Ok(())
    }
}

/// Observes per-prefetch outcomes; used by the ECDP profiling pass to
/// measure pointer-group usefulness, and by experiments that need raw
/// prefetch event streams.
pub trait PrefetchObserver {
    /// A prefetch request was issued past the L2 probe (it will consume
    /// memory bandwidth).
    fn prefetch_issued(&mut self, _req: &PrefetchRequest) {}

    /// A previously prefetched block was used by a demand access (including
    /// late prefetches merged in the MSHRs).
    fn prefetch_used(&mut self, _block_addr: Addr, _id: PrefetcherId, _pg: Option<PgTag>) {}

    /// A prefetched block was evicted without ever being used.
    fn prefetch_unused(&mut self, _block_addr: Addr, _id: PrefetcherId, _pg: Option<PgTag>) {}
}

/// A no-op observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl PrefetchObserver for NullObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggressiveness_ladder() {
        use Aggressiveness::*;
        assert_eq!(VeryConservative.up(), Conservative);
        assert_eq!(Aggressive.up(), Aggressive);
        assert_eq!(VeryConservative.down(), VeryConservative);
        assert_eq!(Aggressive.down(), Moderate);
        assert_eq!(Moderate.index(), 2);
    }

    #[test]
    fn ctx_stages_requests() {
        let mem = SimMemory::new();
        let mut ctx = PrefetchCtx::new(&mem, 7);
        ctx.request(PrefetchRequest {
            addr: 0x40,
            id: PrefetcherId(1),
            depth: 1,
            pg: None,
            root_pc: 0,
        });
        assert_eq!(ctx.take_requests().len(), 1);
        assert!(ctx.take_requests().is_empty());
    }

    #[test]
    fn access_kind_demand() {
        assert!(AccessKind::DemandLoad.is_demand());
        assert!(AccessKind::DemandStore.is_demand());
        assert!(!AccessKind::Prefetch(PrefetcherId(0)).is_demand());
    }
}
