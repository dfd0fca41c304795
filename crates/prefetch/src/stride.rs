//! Classic PC-based stride prefetching (Chen & Baer style) — the per-load
//! complement to the region-based stream prefetcher. Each static load gets a
//! reference-prediction-table entry tracking its last address and stride;
//! two confirmations arm the entry and prefetches are issued `degree` strides
//! ahead.

use std::collections::HashMap;

use sim_core::{
    Aggressiveness, DemandAccess, FrameError, FrameReader, FrameWriter, PrefetchCtx,
    PrefetchRequest, Prefetcher, PrefetcherId, PrefetcherKind,
};
use sim_mem::Addr;

/// Stride prefetcher parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideConfig {
    /// Reference prediction table entries (per static load).
    pub table_entries: usize,
    /// Confirmations required before prefetching.
    pub confirmations: u8,
}

impl Default for StrideConfig {
    fn default() -> Self {
        StrideConfig {
            table_entries: 256,
            confirmations: 2,
        }
    }
}

/// Prefetch-ahead degree per aggressiveness level.
const DEGREE_LEVELS: [i64; 4] = [1, 2, 4, 8];

#[derive(Debug, Clone, Copy)]
struct RptEntry {
    last_addr: Addr,
    stride: i64,
    confidence: u8,
    lru: u64,
}

/// A per-PC stride prefetcher with a reference prediction table.
///
/// # Example
///
/// ```
/// use prefetch::{StrideConfig, StridePrefetcher};
/// use sim_core::{Prefetcher, PrefetcherId};
///
/// let pf = StridePrefetcher::new(PrefetcherId(0), StrideConfig::default());
/// assert_eq!(pf.name(), "stride");
/// ```
#[derive(Debug)]
pub struct StridePrefetcher {
    id: PrefetcherId,
    config: StrideConfig,
    level: Aggressiveness,
    table: HashMap<u32, RptEntry>,
    tick: u64,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher registered as `id`.
    pub fn new(id: PrefetcherId, config: StrideConfig) -> Self {
        StridePrefetcher {
            id,
            config,
            level: Aggressiveness::Aggressive,
            table: HashMap::new(),
            tick: 0,
        }
    }

    fn evict_if_full(&mut self) {
        if self.table.len() < self.config.table_entries {
            return;
        }
        if let Some((&pc, _)) = self.table.iter().min_by_key(|(_, e)| e.lru) {
            self.table.remove(&pc);
        }
    }
}

impl Prefetcher for StridePrefetcher {
    fn name(&self) -> &'static str {
        "stride"
    }

    fn kind(&self) -> PrefetcherKind {
        PrefetcherKind::Stream
    }

    fn on_demand_access(&mut self, ctx: &mut PrefetchCtx<'_>, ev: &DemandAccess) {
        self.tick += 1;
        let tick = self.tick;
        let confirmations = self.config.confirmations;
        let degree = DEGREE_LEVELS[self.level.index()];

        let entry = match self.table.get_mut(&ev.pc) {
            Some(e) => e,
            None => {
                self.evict_if_full();
                self.table.insert(
                    ev.pc,
                    RptEntry {
                        last_addr: ev.addr,
                        stride: 0,
                        confidence: 0,
                        lru: tick,
                    },
                );
                return;
            }
        };
        entry.lru = tick;
        let stride = i64::from(ev.addr) - i64::from(entry.last_addr);
        if stride == 0 {
            return;
        }
        if stride == entry.stride {
            entry.confidence = entry.confidence.saturating_add(1);
        } else {
            entry.stride = stride;
            entry.confidence = 0;
        }
        entry.last_addr = ev.addr;
        if entry.confidence >= confirmations {
            let stride = entry.stride;
            for k in 1..=degree {
                let target = i64::from(ev.addr) + stride * k;
                if target <= 0 || target > i64::from(Addr::MAX) {
                    break;
                }
                ctx.request(PrefetchRequest {
                    addr: target as Addr,
                    id: self.id,
                    depth: 0,
                    pg: None,
                    root_pc: ev.pc,
                });
            }
        }
    }

    fn set_aggressiveness(&mut self, level: Aggressiveness) {
        self.level = level;
    }

    fn aggressiveness(&self) -> Aggressiveness {
        self.level
    }

    fn save_state(&self, w: &mut FrameWriter) {
        w.u64(self.tick);
        // Sort by PC for a deterministic blob (LRU stamps are unique, so
        // eviction order does not depend on map iteration order).
        let mut entries: Vec<(&u32, &RptEntry)> = self.table.iter().collect();
        entries.sort_by_key(|(&pc, _)| pc);
        w.u32(entries.len() as u32);
        for (&pc, e) in entries {
            w.u32(pc);
            w.u32(e.last_addr);
            w.i64(e.stride);
            w.u8(e.confidence);
            w.u64(e.lru);
        }
    }

    fn load_state(&mut self, r: &mut FrameReader<'_>) -> Result<(), FrameError> {
        self.tick = r.u64()?;
        let n = r.u32()? as usize;
        if n > self.config.table_entries {
            return Err(FrameError::Malformed(format!(
                "snapshot has {n} RPT entries, table holds {}",
                self.config.table_entries
            )));
        }
        self.table.clear();
        for _ in 0..n {
            let pc = r.u32()?;
            self.table.insert(
                pc,
                RptEntry {
                    last_addr: r.u32()?,
                    stride: r.i64()?,
                    confidence: r.u8()?,
                    lru: r.u64()?,
                },
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::SimMemory;

    fn access(pf: &mut StridePrefetcher, pc: u32, addr: Addr) -> Vec<Addr> {
        let mem = SimMemory::new();
        let mut ctx = PrefetchCtx::new(&mem, 0);
        pf.on_demand_access(
            &mut ctx,
            &DemandAccess {
                pc,
                addr,
                value: 0,
                hit: false,
                is_store: false,
                cycle: 0,
            },
        );
        ctx.take_requests().iter().map(|r| r.addr).collect()
    }

    #[test]
    fn constant_stride_is_learned_per_pc() {
        let mut pf = StridePrefetcher::new(PrefetcherId(0), StrideConfig::default());
        let base = 0x4000_0000;
        assert!(access(&mut pf, 0x10, base).is_empty());
        assert!(access(&mut pf, 0x10, base + 256).is_empty()); // stride set
        assert!(access(&mut pf, 0x10, base + 512).is_empty()); // conf 1
        let reqs = access(&mut pf, 0x10, base + 768); // conf 2: fire
        assert!(!reqs.is_empty());
        assert_eq!(reqs[0], base + 1024);
    }

    #[test]
    fn interleaved_pcs_do_not_interfere() {
        let mut pf = StridePrefetcher::new(PrefetcherId(0), StrideConfig::default());
        let a = 0x4000_0000;
        let b = 0x4800_0000;
        for i in 0..4u32 {
            let ra = access(&mut pf, 0x10, a + i * 64);
            let rb = access(&mut pf, 0x20, b + i * 4096);
            if i == 3 {
                assert_eq!(ra[0], a + 4 * 64);
                assert_eq!(rb[0], b + 4 * 4096);
            }
        }
    }

    #[test]
    fn changing_stride_resets_confidence() {
        let mut pf = StridePrefetcher::new(PrefetcherId(0), StrideConfig::default());
        let base = 0x4000_0000;
        access(&mut pf, 0x10, base);
        access(&mut pf, 0x10, base + 64);
        access(&mut pf, 0x10, base + 128);
        // Break the pattern.
        assert!(access(&mut pf, 0x10, base + 1000).is_empty());
        assert!(access(&mut pf, 0x10, base + 1100).is_empty());
    }

    #[test]
    fn table_is_bounded() {
        let mut pf = StridePrefetcher::new(
            PrefetcherId(0),
            StrideConfig {
                table_entries: 8,
                confirmations: 2,
            },
        );
        for pc in 0..100u32 {
            access(&mut pf, pc, 0x4000_0000 + pc * 4);
        }
        assert!(pf.table.len() <= 8);
    }

    #[test]
    fn degree_follows_aggressiveness() {
        let mut pf = StridePrefetcher::new(PrefetcherId(0), StrideConfig::default());
        pf.set_aggressiveness(Aggressiveness::VeryConservative);
        let base = 0x4000_0000;
        for i in 0..3u32 {
            access(&mut pf, 0x10, base + i * 64);
        }
        assert_eq!(access(&mut pf, 0x10, base + 3 * 64).len(), 1);
    }
}
