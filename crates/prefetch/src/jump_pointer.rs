//! Hardware jump-pointer prefetching (after Roth & Sohi, ISCA 1999) — one
//! of the storage-heavy LDS prefetchers the paper's introduction argues
//! against (≥64 KB of pointer state versus ECDP's 2.11 KB).
//!
//! The jump-pointer table remembers, for each recently traversed LDS node
//! (keyed by its block address), the node the traversal reached `interval`
//! hops later. When the traversal revisits a node, the stored jump target is
//! prefetched, hiding `interval` serialised hops of latency. The table only
//! helps on *repeat* traversals of stable structures, which is exactly its
//! structural weakness relative to content-directed prefetching.

use std::collections::VecDeque;

use sim_core::{
    Aggressiveness, DemandAccess, FrameError, FrameReader, FrameWriter, PrefetchCtx,
    PrefetchRequest, Prefetcher, PrefetcherId, PrefetcherKind,
};
use sim_mem::{block_of, layout, Addr};

/// Jump-pointer prefetcher parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JumpPointerConfig {
    /// Jump-pointer table entries (direct mapped on block address).
    pub entries: usize,
    /// Hops between a node and its recorded jump target.
    pub interval: usize,
}

impl JumpPointerConfig {
    /// A 64 KB table: 8192 entries x (4 B tag + 4 B target).
    pub fn paper_64kb() -> Self {
        JumpPointerConfig {
            entries: 8192,
            interval: 4,
        }
    }

    /// Storage in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.entries * 8
    }
}

impl Default for JumpPointerConfig {
    fn default() -> Self {
        Self::paper_64kb()
    }
}

/// The jump-pointer prefetcher. See the module docs.
#[derive(Debug)]
pub struct JumpPointerPrefetcher {
    id: PrefetcherId,
    config: JumpPointerConfig,
    level: Aggressiveness,
    /// tag -> jump target, direct mapped.
    table: Vec<Option<(Addr, Addr)>>,
    /// Recent pointer-load history (the traversal window).
    history: VecDeque<Addr>,
}

impl JumpPointerPrefetcher {
    /// Creates a jump-pointer prefetcher registered as `id`.
    pub fn new(id: PrefetcherId, config: JumpPointerConfig) -> Self {
        JumpPointerPrefetcher {
            id,
            config,
            level: Aggressiveness::Aggressive,
            table: vec![None; config.entries],
            history: VecDeque::new(),
        }
    }

    fn slot(&self, block: Addr) -> usize {
        ((block / sim_mem::BLOCK_BYTES) as usize) % self.config.entries
    }

    /// Number of traversal-window entries currently held (bounded at
    /// `interval + 1` — exposed for the storage property tests).
    pub fn history_len(&self) -> usize {
        self.history.len()
    }
}

impl Prefetcher for JumpPointerPrefetcher {
    fn name(&self) -> &'static str {
        "jump-pointer"
    }

    fn kind(&self) -> PrefetcherKind {
        PrefetcherKind::Dependence
    }

    fn on_demand_access(&mut self, ctx: &mut PrefetchCtx<'_>, ev: &DemandAccess) {
        // Only pointer-chase traffic trains the table: loads whose target
        // lives in the heap and whose value is itself heap-like.
        if ev.is_store || !layout::in_heap(ev.addr) {
            return;
        }
        let block = block_of(ev.addr);

        // Record: the node visited `interval` hops ago jumps to this node.
        self.history.push_back(block);
        if self.history.len() > self.config.interval {
            if let Some(past) = self.history.pop_front() {
                let slot = self.slot(past);
                self.table[slot] = Some((past, block));
            }
        }

        // Fire: if this node has a recorded jump target, prefetch it
        // (and, at higher aggressiveness, chase the table transitively).
        let hops = match self.level {
            Aggressiveness::VeryConservative => 1,
            Aggressiveness::Conservative => 1,
            Aggressiveness::Moderate => 2,
            Aggressiveness::Aggressive => 3,
        };
        let mut cur = block;
        for _ in 0..hops {
            let slot = self.slot(cur);
            match self.table[slot] {
                Some((tag, target)) if tag == cur && target != cur => {
                    ctx.request(PrefetchRequest {
                        addr: target,
                        id: self.id,
                        depth: 0,
                        pg: None,
                        root_pc: ev.pc,
                    });
                    cur = target;
                }
                _ => break,
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
        w.u32(self.history.len() as u32);
        for &h in &self.history {
            w.u32(h);
        }
        let filled = self.table.iter().filter(|e| e.is_some()).count();
        w.u64(filled as u64);
        for (slot, e) in self.table.iter().enumerate() {
            let Some((tag, target)) = e else { continue };
            w.u32(slot as u32);
            w.u32(*tag);
            w.u32(*target);
        }
    }

    fn load_state(&mut self, r: &mut FrameReader<'_>) -> Result<(), FrameError> {
        let n = r.u32()? as usize;
        if n > self.config.interval + 1 {
            return Err(FrameError::Malformed(format!(
                "snapshot has {n} traversal-window entries, window holds {}",
                self.config.interval
            )));
        }
        self.history.clear();
        for _ in 0..n {
            self.history.push_back(r.u32()?);
        }
        for e in &mut self.table {
            *e = None;
        }
        let n = r.len_prefix()?;
        for _ in 0..n {
            let slot = r.u32()? as usize;
            if slot >= self.table.len() {
                return Err(FrameError::Malformed(format!(
                    "jump-pointer slot {slot} out of range"
                )));
            }
            let tag = r.u32()?;
            let target = r.u32()?;
            self.table[slot] = Some((tag, target));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::SimMemory;

    fn access(pf: &mut JumpPointerPrefetcher, addr: Addr) -> Vec<Addr> {
        let mem = SimMemory::new();
        let mut ctx = PrefetchCtx::new(&mem, 0);
        pf.on_demand_access(
            &mut ctx,
            &DemandAccess {
                pc: 1,
                addr,
                value: 0,
                hit: false,
                is_store: false,
                cycle: 0,
            },
        );
        ctx.take_requests().iter().map(|r| r.addr).collect()
    }

    /// A scattered traversal path (distinct blocks).
    fn path(n: usize) -> Vec<Addr> {
        (0..n as u32)
            .map(|i| layout::HEAP_BASE + i * 4096)
            .collect()
    }

    #[test]
    fn second_traversal_fires_jump_pointers() {
        let mut pf = JumpPointerPrefetcher::new(PrefetcherId(0), JumpPointerConfig::default());
        let nodes = path(12);
        // First traversal: trains, nothing to fire.
        for &n in &nodes {
            assert!(access(&mut pf, n).is_empty());
        }
        // Second traversal: each node jumps `interval` ahead.
        let got = access(&mut pf, nodes[0]);
        assert!(!got.is_empty(), "revisit must fire");
        assert_eq!(got[0], block_of(nodes[4]), "jump interval of 4 hops");
    }

    #[test]
    fn non_heap_accesses_are_ignored() {
        let mut pf = JumpPointerPrefetcher::new(PrefetcherId(0), JumpPointerConfig::default());
        for i in 0..20u32 {
            assert!(access(&mut pf, 0x0800_0000 + i * 4096).is_empty());
        }
        assert!(pf.history.is_empty());
    }

    #[test]
    fn aggressive_mode_chases_transitively() {
        let mut pf = JumpPointerPrefetcher::new(PrefetcherId(0), JumpPointerConfig::default());
        let nodes = path(16);
        for &n in &nodes {
            access(&mut pf, n);
        }
        let got = access(&mut pf, nodes[0]);
        // Aggressive: up to 3 transitive jumps -> nodes[4], nodes[8], nodes[12].
        assert_eq!(got.len(), 3);
        assert_eq!(got[1], block_of(nodes[8]));
    }

    #[test]
    fn storage_matches_headline() {
        assert_eq!(JumpPointerConfig::paper_64kb().storage_bytes(), 64 * 1024);
    }
}
