//! Address-Value Delta (AVD) prediction used as a prefetcher (after Mutlu
//! et al., MICRO 2005 — the paper's §7.3 notes AVD is "less effective when
//! employed for prefetching instead of value prediction").
//!
//! For each *pointer load* (a load whose loaded value is itself an address),
//! the predictor tracks the delta `address − value`. Many allocators place
//! linked nodes at stable relative distances, so a stable delta predicts the
//! value of the next instance of the load: `predicted_value = next_address −
//! delta`. Used as a prefetcher, a confident entry prefetches
//! `current_address − delta` — the block the pointer it is *about to load*
//! most likely names.

use std::collections::HashMap;

use sim_core::{
    Aggressiveness, DemandAccess, FrameError, FrameReader, FrameWriter, PrefetchCtx,
    PrefetchRequest, Prefetcher, PrefetcherId, PrefetcherKind,
};
use sim_mem::{layout, Addr};

/// AVD predictor parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvdConfig {
    /// Predictor entries (one per static pointer load, LRU).
    pub entries: usize,
    /// Maximum |delta| tracked, in bytes (paper: small deltas only).
    pub max_delta: i64,
    /// Confidence required to prefetch.
    pub confidence: u8,
}

impl Default for AvdConfig {
    fn default() -> Self {
        AvdConfig {
            entries: 64,
            max_delta: 64 * 1024,
            confidence: 2,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct AvdEntry {
    delta: i64,
    confidence: u8,
    lru: u64,
}

/// The AVD-prediction prefetcher. See the module docs.
#[derive(Debug)]
pub struct AvdPrefetcher {
    id: PrefetcherId,
    config: AvdConfig,
    level: Aggressiveness,
    table: HashMap<u32, AvdEntry>,
    tick: u64,
}

impl AvdPrefetcher {
    /// Creates an AVD prefetcher registered as `id`.
    pub fn new(id: PrefetcherId, config: AvdConfig) -> Self {
        AvdPrefetcher {
            id,
            config,
            level: Aggressiveness::Aggressive,
            table: HashMap::new(),
            tick: 0,
        }
    }
}

impl Prefetcher for AvdPrefetcher {
    fn name(&self) -> &'static str {
        "avd"
    }

    fn kind(&self) -> PrefetcherKind {
        PrefetcherKind::Dependence
    }

    fn on_demand_access(&mut self, ctx: &mut PrefetchCtx<'_>, ev: &DemandAccess) {
        // AVD tracks pointer loads only: value must look like an address.
        if ev.is_store || !layout::in_heap(ev.value) {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        let delta = i64::from(ev.addr) - i64::from(ev.value);
        if delta.abs() > self.config.max_delta {
            return;
        }

        // Prefetch from the *previous* confident delta before updating.
        if let Some(e) = self.table.get(&ev.pc) {
            if e.confidence >= self.config.confidence {
                // With a stable delta d = addr - value, the next instance of
                // this load will execute at address ~value (+ field offset)
                // and load ~value - d: prefetch one step ahead of the chase.
                let target = i64::from(ev.value) - e.delta;
                if target > 0 && target <= i64::from(Addr::MAX) {
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

        // Train.
        let entry = self.table.entry(ev.pc).or_insert(AvdEntry {
            delta,
            confidence: 0,
            lru: tick,
        });
        if entry.delta == delta {
            entry.confidence = entry.confidence.saturating_add(1);
        } else {
            entry.delta = delta;
            entry.confidence = 0;
        }
        entry.lru = tick;

        if self.table.len() > self.config.entries {
            if let Some((&victim, _)) = self.table.iter().min_by_key(|(_, e)| e.lru) {
                self.table.remove(&victim);
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
        // Sort by PC for a deterministic blob (LRU stamps are unique).
        let mut entries: Vec<(&u32, &AvdEntry)> = self.table.iter().collect();
        entries.sort_by_key(|(&pc, _)| pc);
        w.u32(entries.len() as u32);
        for (&pc, e) in entries {
            w.u32(pc);
            w.i64(e.delta);
            w.u8(e.confidence);
            w.u64(e.lru);
        }
    }

    fn load_state(&mut self, r: &mut FrameReader<'_>) -> Result<(), FrameError> {
        self.tick = r.u64()?;
        let n = r.u32()? as usize;
        if n > self.config.entries + 1 {
            return Err(FrameError::Malformed(format!(
                "snapshot has {n} AVD entries, table holds {}",
                self.config.entries
            )));
        }
        self.table.clear();
        for _ in 0..n {
            let pc = r.u32()?;
            self.table.insert(
                pc,
                AvdEntry {
                    delta: r.i64()?,
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

    fn access(pf: &mut AvdPrefetcher, pc: u32, addr: Addr, value: u32) -> Vec<Addr> {
        let mem = SimMemory::new();
        let mut ctx = PrefetchCtx::new(&mem, 0);
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

    #[test]
    fn stable_delta_predicts() {
        let mut pf = AvdPrefetcher::new(PrefetcherId(0), AvdConfig::default());
        // Chain with constant addr-value delta of -32 (next node 32 ahead).
        let base = layout::HEAP_BASE;
        let mut got = Vec::new();
        for i in 0..5u32 {
            let addr = base + i * 32;
            let value = base + (i + 1) * 32;
            got = access(&mut pf, 0x10, addr, value);
        }
        assert!(!got.is_empty(), "confident delta must prefetch");
        // delta = addr - value = -32; target = value - delta = value + 32.
        assert!(got.contains(&(base + 6 * 32)));
    }

    #[test]
    fn non_pointer_values_are_ignored() {
        let mut pf = AvdPrefetcher::new(PrefetcherId(0), AvdConfig::default());
        for i in 0..5u32 {
            assert!(access(&mut pf, 0x10, layout::HEAP_BASE + i * 32, 12345).is_empty());
        }
        assert!(pf.table.is_empty());
    }

    #[test]
    fn unstable_deltas_never_gain_confidence() {
        let mut pf = AvdPrefetcher::new(PrefetcherId(0), AvdConfig::default());
        let base = layout::HEAP_BASE;
        for i in 0..8u32 {
            // Random-ish values: delta changes every time.
            let got = access(&mut pf, 0x10, base + i * 32, base + (i * 7919) % 60000);
            assert!(got.is_empty());
        }
    }

    #[test]
    fn table_is_bounded() {
        let mut pf = AvdPrefetcher::new(
            PrefetcherId(0),
            AvdConfig {
                entries: 4,
                ..Default::default()
            },
        );
        for pc in 0..50u32 {
            access(
                &mut pf,
                pc,
                layout::HEAP_BASE + pc * 64,
                layout::HEAP_BASE + pc * 64 + 32,
            );
        }
        assert!(pf.table.len() <= 5);
    }
}
