//! Zhuang & Lee's hardware prefetch pollution filter (ICPP 2003) — the
//! purely hardware alternative to ECDP's compiler-guided filtering that the
//! paper compares against in §6.4.
//!
//! The filter remembers, per block (hashed into a table of 2-bit counters),
//! whether the last prefetch of that block was useless. A prefetch request
//! whose target's counter is saturated is suppressed. Counters move toward
//! "useless" when a prefetched block is evicted untouched and toward
//! "useful" when a prefetched block is used. As the paper observes, this
//! history-based scheme is aggressive: it also kills prefetches that would
//! have been useful this time around.

use sim_core::{
    Addr, Aggressiveness, DemandAccess, FillEvent, FrameError, FrameReader, FrameWriter, PgTag,
    PrefetchCtx, Prefetcher, PrefetcherKind,
};
use sim_mem::block_of;

/// Pollution-filter parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterConfig {
    /// Number of 2-bit counters. 32768 counters = 8 KB table, the size the
    /// paper found to perform best for CDP.
    pub counters: usize,
    /// Counter value at or above which prefetches are suppressed (0..=3).
    pub threshold: u8,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            counters: 32768,
            threshold: 2,
        }
    }
}

impl FilterConfig {
    /// Table storage in bytes (2 bits per counter).
    pub fn storage_bytes(&self) -> usize {
        self.counters / 4
    }
}

/// A prefetcher wrapper that drops requests the pollution filter predicts
/// to be useless.
///
/// # Example
///
/// ```
/// use prefetch::{AllowAll, CdpConfig, ContentDirectedPrefetcher};
/// use prefetch::{FilterConfig, PollutionFilteredPrefetcher};
/// use sim_core::{Prefetcher, PrefetcherId};
///
/// let cdp = ContentDirectedPrefetcher::new(
///     PrefetcherId(1),
///     CdpConfig::default(),
///     Box::new(AllowAll),
/// );
/// let filtered = PollutionFilteredPrefetcher::new(Box::new(cdp), FilterConfig::default());
/// assert_eq!(filtered.name(), "cdp+hwfilter");
/// ```
pub struct PollutionFilteredPrefetcher {
    inner: Box<dyn Prefetcher>,
    config: FilterConfig,
    table: Vec<u8>,
}

impl PollutionFilteredPrefetcher {
    /// Wraps `inner` with a pollution filter.
    pub fn new(inner: Box<dyn Prefetcher>, config: FilterConfig) -> Self {
        PollutionFilteredPrefetcher {
            inner,
            config,
            table: vec![0; config.counters],
        }
    }

    fn slot(&self, block: Addr) -> usize {
        // Multiplicative hash over the block index.
        let idx = (block / sim_mem::BLOCK_BYTES).wrapping_mul(2654435761);
        (idx as usize) % self.config.counters
    }

    fn suppressed(&self, addr: Addr) -> bool {
        self.table[self.slot(block_of(addr))] >= self.config.threshold
    }

    fn filter_staged(&self, ctx: &mut PrefetchCtx<'_>) {
        let staged = ctx.take_requests();
        for req in staged {
            if !self.suppressed(req.addr) {
                ctx.request(req);
            }
        }
    }

    /// Number of table counters currently saturated at or above threshold.
    pub fn suppressed_blocks(&self) -> usize {
        self.table
            .iter()
            .filter(|&&c| c >= self.config.threshold)
            .count()
    }
}

impl std::fmt::Debug for PollutionFilteredPrefetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PollutionFilteredPrefetcher")
            .field("inner", &self.inner.name())
            .field("suppressed_blocks", &self.suppressed_blocks())
            .finish()
    }
}

impl Prefetcher for PollutionFilteredPrefetcher {
    fn name(&self) -> &'static str {
        // Report a composite name; the inner prefetcher is always CDP in the
        // paper's comparison.
        "cdp+hwfilter"
    }

    fn kind(&self) -> PrefetcherKind {
        self.inner.kind()
    }

    fn on_demand_access(&mut self, ctx: &mut PrefetchCtx<'_>, ev: &DemandAccess) {
        self.inner.on_demand_access(ctx, ev);
        self.filter_staged(ctx);
    }

    fn on_fill(&mut self, ctx: &mut PrefetchCtx<'_>, ev: &FillEvent) {
        self.inner.on_fill(ctx, ev);
        self.filter_staged(ctx);
    }

    fn on_prefetch_outcome(&mut self, block_addr: Addr, pg: Option<PgTag>, used: bool) {
        let slot = self.slot(block_addr);
        if used {
            self.table[slot] = self.table[slot].saturating_sub(1);
        } else {
            self.table[slot] = (self.table[slot] + 1).min(3);
        }
        self.inner.on_prefetch_outcome(block_addr, pg, used);
    }

    fn set_aggressiveness(&mut self, level: Aggressiveness) {
        self.inner.set_aggressiveness(level);
    }

    fn aggressiveness(&self) -> Aggressiveness {
        self.inner.aggressiveness()
    }

    fn save_state(&self, w: &mut FrameWriter) {
        // Counters are mostly zero: store (slot, value) pairs, then
        // delegate to the wrapped prefetcher in the same stream.
        let filled = self.table.iter().filter(|&&c| c != 0).count();
        w.u64(filled as u64);
        for (slot, &c) in self.table.iter().enumerate() {
            if c != 0 {
                w.u32(slot as u32);
                w.u8(c);
            }
        }
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut FrameReader<'_>) -> Result<(), FrameError> {
        self.table.fill(0);
        let n = r.len_prefix()?;
        for _ in 0..n {
            let slot = r.u32()? as usize;
            if slot >= self.table.len() {
                return Err(FrameError::Malformed(format!(
                    "filter counter slot {slot} out of range"
                )));
            }
            self.table[slot] = r.u8()?;
        }
        self.inner.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdp::{AllowAll, CdpConfig, ContentDirectedPrefetcher};
    use sim_core::{AccessKind, PrefetcherId};
    use sim_mem::SimMemory;

    fn filtered() -> PollutionFilteredPrefetcher {
        let cdp = ContentDirectedPrefetcher::new(
            PrefetcherId(1),
            CdpConfig::default(),
            Box::new(AllowAll),
        );
        PollutionFilteredPrefetcher::new(Box::new(cdp), FilterConfig::default())
    }

    fn fill(pf: &mut PollutionFilteredPrefetcher, mem: &SimMemory, block: Addr) -> Vec<Addr> {
        let mut ctx = PrefetchCtx::new(mem, 0);
        pf.on_fill(
            &mut ctx,
            &FillEvent {
                block_addr: block,
                kind: AccessKind::DemandLoad,
                trigger_pc: 0x100,
                trigger_addr: block,
                depth: 0,
                pg: None,
                cycle: 0,
            },
        );
        ctx.take_requests().iter().map(|r| r.addr).collect()
    }

    #[test]
    fn passes_through_until_trained() {
        let mut mem = SimMemory::new();
        let block = 0x4000_0040;
        mem.write_u32(block, 0x4000_2000);
        let mut pf = filtered();
        assert_eq!(fill(&mut pf, &mem, block), vec![0x4000_2000]);
    }

    #[test]
    fn repeated_useless_outcomes_suppress() {
        let mut mem = SimMemory::new();
        let block = 0x4000_0040;
        let target = 0x4000_2000;
        mem.write_u32(block, target);
        let mut pf = filtered();
        // Two useless outcomes saturate to threshold 2.
        pf.on_prefetch_outcome(sim_mem::block_of(target), None, false);
        pf.on_prefetch_outcome(sim_mem::block_of(target), None, false);
        assert!(fill(&mut pf, &mem, block).is_empty(), "suppressed");
    }

    #[test]
    fn useful_outcomes_rehabilitate() {
        let mut mem = SimMemory::new();
        let block = 0x4000_0040;
        let target = 0x4000_2000;
        mem.write_u32(block, target);
        let mut pf = filtered();
        pf.on_prefetch_outcome(sim_mem::block_of(target), None, false);
        pf.on_prefetch_outcome(sim_mem::block_of(target), None, false);
        assert!(fill(&mut pf, &mem, block).is_empty());
        pf.on_prefetch_outcome(sim_mem::block_of(target), None, true);
        assert_eq!(fill(&mut pf, &mem, block), vec![target]);
    }

    #[test]
    fn table_is_8kb_by_default() {
        assert_eq!(FilterConfig::default().storage_bytes(), 8192);
    }

    #[test]
    fn aggressiveness_delegates_to_inner() {
        let mut pf = filtered();
        pf.set_aggressiveness(Aggressiveness::Conservative);
        assert_eq!(pf.aggressiveness(), Aggressiveness::Conservative);
    }
}
