//! Dependence-based prefetching (DBP) — Roth, Moshovos & Sohi, ASPLOS 1998.
//!
//! DBP learns *producer → consumer* relations between static loads: a load
//! that produces a pointer value and a later load whose address equals that
//! value (plus a small field offset). The hardware keeps a
//! **potential-producer window** (PPW) of recently loaded values and a
//! **correlation table** (CT) mapping a producer PC to the consumer's
//! (PC, offset). At run time, when a correlated producer loads a value, the
//! consumer's future address is prefetched.
//!
//! The paper's §6.3 configuration: 256-entry CT + 128-entry PPW ≈ 3 KB.
//! DBP's structural weakness — it runs only one dependence step ahead of
//! the program — is visible in the reproduction exactly as in the paper.

use sim_core::{
    Aggressiveness, DemandAccess, FrameError, FrameReader, FrameWriter, PrefetchCtx,
    PrefetchRequest, Prefetcher, PrefetcherId, PrefetcherKind,
};
use sim_mem::layout;

/// DBP parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbpConfig {
    /// Potential-producer window entries (paper: 128).
    pub ppw_entries: usize,
    /// Correlation-table entries (paper: 256).
    pub ct_entries: usize,
    /// Maximum |offset| between produced value and consumed address for a
    /// correlation to be recorded, in bytes.
    pub max_offset: u32,
}

impl Default for DbpConfig {
    fn default() -> Self {
        DbpConfig {
            ppw_entries: 128,
            ct_entries: 256,
            max_offset: 64,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PpwEntry {
    value: u32,
    pc: u32,
}

#[derive(Debug, Clone, Copy)]
struct CtEntry {
    producer_pc: u32,
    offset: i32,
    lru: u64,
}

/// Consumers prefetched per producer for the four aggressiveness levels.
const FANOUT_LEVELS: [usize; 4] = [1, 1, 2, 4];

/// The dependence-based LDS prefetcher. See the module docs.
#[derive(Debug)]
pub struct DependenceBasedPrefetcher {
    id: PrefetcherId,
    config: DbpConfig,
    level: Aggressiveness,
    ppw: Vec<PpwEntry>,
    ct: Vec<CtEntry>,
    tick: u64,
}

impl DependenceBasedPrefetcher {
    /// Creates a DBP registered as `id`.
    pub fn new(id: PrefetcherId, config: DbpConfig) -> Self {
        DependenceBasedPrefetcher {
            id,
            config,
            level: Aggressiveness::Aggressive,
            ppw: Vec::new(),
            ct: Vec::new(),
            tick: 0,
        }
    }

    /// Approximate storage in bytes (PPW: value+pc; CT: pcs+offset).
    pub fn storage_bytes(&self) -> usize {
        self.config.ppw_entries * 8 + self.config.ct_entries * 12
    }

    fn record_correlation(&mut self, producer_pc: u32, offset: i32) {
        if let Some(e) = self
            .ct
            .iter_mut()
            .find(|e| e.producer_pc == producer_pc && e.offset == offset)
        {
            e.lru = self.tick;
            return;
        }
        if self.ct.len() >= self.config.ct_entries {
            if let Some(victim) = self
                .ct
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
            {
                self.ct.swap_remove(victim);
            }
        }
        self.ct.push(CtEntry {
            producer_pc,
            offset,
            lru: self.tick,
        });
    }
}

impl Prefetcher for DependenceBasedPrefetcher {
    fn name(&self) -> &'static str {
        "dbp"
    }

    fn kind(&self) -> PrefetcherKind {
        PrefetcherKind::Dependence
    }

    fn on_demand_access(&mut self, ctx: &mut PrefetchCtx<'_>, ev: &DemandAccess) {
        if ev.is_store {
            return;
        }
        self.tick += 1;

        // Consumer detection: does this load's address match a recently
        // produced value (within max_offset)?
        let addr = i64::from(ev.addr);
        let max_off = i64::from(self.config.max_offset);
        let mut found: Option<(u32, i32)> = None;
        for p in self.ppw.iter().rev() {
            let off = addr - i64::from(p.value);
            if off.abs() <= max_off && p.pc != ev.pc {
                found = Some((p.pc, off as i32));
                break;
            }
        }
        if let Some((producer_pc, offset)) = found {
            self.record_correlation(producer_pc, offset);
        }

        // Producer side: if this load produced a pointer-looking value,
        // remember it and fire any known consumers.
        if layout::in_heap(ev.value) {
            self.ppw.push(PpwEntry {
                value: ev.value,
                pc: ev.pc,
            });
            if self.ppw.len() > self.config.ppw_entries {
                self.ppw.remove(0);
            }

            let fanout = FANOUT_LEVELS[self.level.index()];
            let targets: Vec<i64> = self
                .ct
                .iter()
                .filter(|e| e.producer_pc == ev.pc)
                .take(fanout)
                .map(|e| i64::from(ev.value) + i64::from(e.offset))
                .collect();
            for t in targets {
                if t <= 0 || t > i64::from(u32::MAX) {
                    continue;
                }
                ctx.request(PrefetchRequest {
                    addr: t as u32,
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
        // Both tables are position-sensitive (PPW scan order, CT
        // swap_remove eviction): store them in order.
        w.u32(self.ppw.len() as u32);
        for p in &self.ppw {
            w.u32(p.value);
            w.u32(p.pc);
        }
        w.u32(self.ct.len() as u32);
        for e in &self.ct {
            w.u32(e.producer_pc);
            w.i32(e.offset);
            w.u64(e.lru);
        }
    }

    fn load_state(&mut self, r: &mut FrameReader<'_>) -> Result<(), FrameError> {
        self.tick = r.u64()?;
        let n = r.u32()? as usize;
        if n > self.config.ppw_entries {
            return Err(FrameError::Malformed(format!(
                "snapshot has {n} PPW entries, window holds {}",
                self.config.ppw_entries
            )));
        }
        self.ppw.clear();
        for _ in 0..n {
            self.ppw.push(PpwEntry {
                value: r.u32()?,
                pc: r.u32()?,
            });
        }
        let n = r.u32()? as usize;
        if n > self.config.ct_entries {
            return Err(FrameError::Malformed(format!(
                "snapshot has {n} CT entries, table holds {}",
                self.config.ct_entries
            )));
        }
        self.ct.clear();
        for _ in 0..n {
            self.ct.push(CtEntry {
                producer_pc: r.u32()?,
                offset: r.i32()?,
                lru: r.u64()?,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Addr;
    use sim_mem::SimMemory;

    fn load(
        pf: &mut DependenceBasedPrefetcher,
        mem: &SimMemory,
        pc: u32,
        addr: Addr,
        value: u32,
    ) -> Vec<Addr> {
        let mut ctx = PrefetchCtx::new(mem, 0);
        pf.on_demand_access(
            &mut ctx,
            &DemandAccess {
                pc,
                addr,
                value,
                hit: false,
                is_store: false,
                cycle: 0,
            },
        );
        ctx.take_requests().iter().map(|r| r.addr).collect()
    }

    const PRODUCER: u32 = 0x100;
    const CONSUMER: u32 = 0x200;

    #[test]
    fn learns_producer_consumer_and_prefetches() {
        let mem = SimMemory::new();
        let mut pf = DependenceBasedPrefetcher::new(PrefetcherId(0), DbpConfig::default());
        let n1 = layout::HEAP_BASE + 0x100;
        let n2 = layout::HEAP_BASE + 0x900;
        // Producer loads pointer n1; consumer dereferences n1+8.
        assert!(load(&mut pf, &mem, PRODUCER, layout::HEAP_BASE, n1).is_empty());
        assert!(load(&mut pf, &mem, CONSUMER, n1 + 8, n2).is_empty());
        // Next time the producer fires, the consumer address is prefetched.
        let n3 = layout::HEAP_BASE + 0x2000;
        let reqs = load(&mut pf, &mem, PRODUCER, layout::HEAP_BASE + 4, n3);
        assert_eq!(reqs, vec![n3 + 8]);
    }

    #[test]
    fn non_pointer_values_produce_nothing() {
        let mem = SimMemory::new();
        let mut pf = DependenceBasedPrefetcher::new(PrefetcherId(0), DbpConfig::default());
        // Value 42 is not a heap address: no PPW entry, no prefetch.
        assert!(load(&mut pf, &mem, PRODUCER, layout::HEAP_BASE, 42).is_empty());
        assert!(pf.ppw.is_empty());
    }

    #[test]
    fn correlation_requires_offset_within_bound() {
        let mem = SimMemory::new();
        let mut pf = DependenceBasedPrefetcher::new(PrefetcherId(0), DbpConfig::default());
        let n1 = layout::HEAP_BASE + 0x100;
        load(&mut pf, &mem, PRODUCER, layout::HEAP_BASE, n1);
        // Consumer accesses far from the produced value: no correlation.
        load(&mut pf, &mem, CONSUMER, n1 + 0x4000, layout::HEAP_BASE);
        assert!(pf.ct.is_empty());
    }

    #[test]
    fn ppw_is_bounded() {
        let mem = SimMemory::new();
        let mut pf = DependenceBasedPrefetcher::new(
            PrefetcherId(0),
            DbpConfig {
                ppw_entries: 4,
                ..Default::default()
            },
        );
        for i in 0..10u32 {
            load(
                &mut pf,
                &mem,
                PRODUCER,
                layout::HEAP_BASE + i * 4,
                layout::HEAP_BASE + 0x1000 + i,
            );
        }
        assert_eq!(pf.ppw.len(), 4);
    }

    #[test]
    fn ct_evicts_lru() {
        let mem = SimMemory::new();
        let mut pf = DependenceBasedPrefetcher::new(
            PrefetcherId(0),
            DbpConfig {
                ct_entries: 2,
                ..Default::default()
            },
        );
        // Create three distinct correlations.
        for k in 0..3u32 {
            let ptr = layout::HEAP_BASE + 0x1000 * (k + 1);
            load(&mut pf, &mem, 0x100 + k, layout::HEAP_BASE + k * 4, ptr);
            load(&mut pf, &mem, 0x900 + k, ptr + 8, 1);
        }
        assert_eq!(pf.ct.len(), 2);
    }

    #[test]
    fn storage_is_about_3kb() {
        let pf = DependenceBasedPrefetcher::new(PrefetcherId(0), DbpConfig::default());
        let kb = pf.storage_bytes() as f64 / 1024.0;
        assert!((2.0..=4.0).contains(&kb), "storage {kb} KB");
    }
}
