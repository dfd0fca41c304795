//! Markov (address-correlation) prefetching — Joseph & Grunwald, ISCA 1997.
//!
//! A correlation table maps a miss block address to the block addresses that
//! followed it in the miss stream. On a demand miss, the predicted
//! successors of the missing block are prefetched. The paper's comparison
//! configuration (§6.3) uses a 1 MB table with 4 successor addresses per
//! entry; being correlation-based, it can only prefetch addresses it has
//! *already observed* — one of the structural disadvantages relative to
//! ECDP called out in the paper.

use sim_core::{
    Aggressiveness, DemandAccess, FrameError, FrameReader, FrameWriter, PrefetchCtx,
    PrefetchRequest, Prefetcher, PrefetcherId, PrefetcherKind,
};
use sim_mem::{block_of, Addr};

/// Markov prefetcher parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkovConfig {
    /// Number of correlation-table entries (direct mapped on block address).
    pub entries: usize,
    /// Successor addresses stored per entry.
    pub ways: usize,
}

impl MarkovConfig {
    /// The paper's 1 MB configuration: each entry holds a 4-byte tag and
    /// four 4-byte successors (20 B); 1 MB / 20 B ≈ 52k entries, rounded to
    /// the nearest power of two.
    pub fn paper_1mb() -> Self {
        MarkovConfig {
            entries: 65536,
            ways: 4,
        }
    }

    /// Approximate storage cost in bytes (tag + successors per entry).
    pub fn storage_bytes(&self) -> usize {
        self.entries * (4 + 4 * self.ways)
    }
}

impl Default for MarkovConfig {
    fn default() -> Self {
        Self::paper_1mb()
    }
}

#[derive(Debug, Clone)]
struct Entry {
    tag: Addr,
    /// Successors, most recent first.
    successors: Vec<Addr>,
}

/// The Markov correlation prefetcher. See the module docs.
#[derive(Debug)]
pub struct MarkovPrefetcher {
    id: PrefetcherId,
    config: MarkovConfig,
    level: Aggressiveness,
    table: Vec<Option<Entry>>,
    last_miss: Option<Addr>,
}

/// Successors prefetched per miss for the four aggressiveness levels.
const DEGREE_LEVELS: [usize; 4] = [1, 2, 3, 4];

impl MarkovPrefetcher {
    /// Creates a Markov prefetcher registered as `id`.
    pub fn new(id: PrefetcherId, config: MarkovConfig) -> Self {
        MarkovPrefetcher {
            id,
            config,
            level: Aggressiveness::Aggressive,
            table: vec![None; config.entries],
            last_miss: None,
        }
    }

    fn slot(&self, block: Addr) -> usize {
        ((block / sim_mem::BLOCK_BYTES) as usize) % self.config.entries
    }

    fn record(&mut self, from: Addr, to: Addr) {
        let ways = self.config.ways;
        let slot = self.slot(from);
        match &mut self.table[slot] {
            Some(e) if e.tag == from => {
                e.successors.retain(|&s| s != to);
                e.successors.insert(0, to);
                e.successors.truncate(ways);
            }
            _ => {
                self.table[slot] = Some(Entry {
                    tag: from,
                    successors: vec![to],
                });
            }
        }
    }

    fn predict(&self, block: Addr) -> &[Addr] {
        let slot = self.slot(block);
        match &self.table[slot] {
            Some(e) if e.tag == block => &e.successors,
            _ => &[],
        }
    }
}

impl Prefetcher for MarkovPrefetcher {
    fn name(&self) -> &'static str {
        "markov"
    }

    fn kind(&self) -> PrefetcherKind {
        PrefetcherKind::Correlation
    }

    fn on_demand_access(&mut self, ctx: &mut PrefetchCtx<'_>, ev: &DemandAccess) {
        if ev.hit {
            return;
        }
        let block = block_of(ev.addr);
        if let Some(prev) = self.last_miss {
            if prev != block {
                self.record(prev, block);
            }
        }
        self.last_miss = Some(block);
        let degree = DEGREE_LEVELS[self.level.index()];
        let preds: Vec<Addr> = self.predict(block).iter().take(degree).copied().collect();
        for addr in preds {
            ctx.request(PrefetchRequest {
                addr,
                id: self.id,
                depth: 0,
                pg: None,
                root_pc: ev.pc,
            });
        }
    }

    fn set_aggressiveness(&mut self, level: Aggressiveness) {
        self.level = level;
    }

    fn aggressiveness(&self) -> Aggressiveness {
        self.level
    }

    fn save_state(&self, w: &mut FrameWriter) {
        match self.last_miss {
            None => w.bool(false),
            Some(a) => {
                w.bool(true);
                w.u32(a);
            }
        }
        // The table is direct mapped and mostly empty: store filled slots.
        let filled = self.table.iter().filter(|e| e.is_some()).count();
        w.u64(filled as u64);
        for (slot, e) in self.table.iter().enumerate() {
            let Some(e) = e else { continue };
            w.u32(slot as u32);
            w.u32(e.tag);
            w.u32(e.successors.len() as u32);
            for &s in &e.successors {
                w.u32(s);
            }
        }
    }

    fn load_state(&mut self, r: &mut FrameReader<'_>) -> Result<(), FrameError> {
        self.last_miss = if r.bool()? { Some(r.u32()?) } else { None };
        for e in &mut self.table {
            *e = None;
        }
        let n = r.len_prefix()?;
        for _ in 0..n {
            let slot = r.u32()? as usize;
            if slot >= self.table.len() {
                return Err(FrameError::Malformed(format!(
                    "markov slot {slot} out of range"
                )));
            }
            let tag = r.u32()?;
            let ways = r.u32()? as usize;
            if ways > self.config.ways {
                return Err(FrameError::Malformed(format!(
                    "markov entry holds {ways} successors, table ways {}",
                    self.config.ways
                )));
            }
            let mut successors = Vec::with_capacity(ways);
            for _ in 0..ways {
                successors.push(r.u32()?);
            }
            self.table[slot] = Some(Entry { tag, successors });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::SimMemory;

    fn miss(pf: &mut MarkovPrefetcher, mem: &SimMemory, addr: Addr) -> Vec<Addr> {
        let mut ctx = PrefetchCtx::new(mem, 0);
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

    #[test]
    fn repeated_sequence_is_predicted() {
        let mem = SimMemory::new();
        let mut pf = MarkovPrefetcher::new(PrefetcherId(0), MarkovConfig::default());
        let a = 0x4000_0000;
        let b = 0x4000_4000;
        let c = 0x4000_8000;
        // First pass trains: a -> b -> c.
        assert!(miss(&mut pf, &mem, a).is_empty());
        assert!(miss(&mut pf, &mem, b).is_empty());
        assert!(miss(&mut pf, &mem, c).is_empty());
        // Second pass predicts.
        let p = miss(&mut pf, &mem, a);
        assert_eq!(p, vec![b]);
        let p = miss(&mut pf, &mem, b);
        assert_eq!(p, vec![c]);
    }

    #[test]
    fn unseen_addresses_have_no_prediction() {
        let mem = SimMemory::new();
        let mut pf = MarkovPrefetcher::new(PrefetcherId(0), MarkovConfig::default());
        assert!(miss(&mut pf, &mem, 0x4000_0000).is_empty());
        assert!(miss(&mut pf, &mem, 0x4F00_0000).is_empty());
    }

    #[test]
    fn multiple_successors_mru_ordered() {
        let mem = SimMemory::new();
        let mut pf = MarkovPrefetcher::new(PrefetcherId(0), MarkovConfig::default());
        let a = 0x4000_0000;
        let b = 0x4000_4000;
        let c = 0x4000_8000;
        // a -> b, then a -> c (more recent).
        miss(&mut pf, &mem, a);
        miss(&mut pf, &mem, b);
        miss(&mut pf, &mem, a);
        miss(&mut pf, &mem, c);
        let p = miss(&mut pf, &mem, a);
        assert_eq!(p[0], c, "most recent successor first");
        assert!(p.contains(&b));
    }

    #[test]
    fn aggressiveness_limits_degree() {
        let mem = SimMemory::new();
        let mut pf = MarkovPrefetcher::new(PrefetcherId(0), MarkovConfig::default());
        let a = 0x4000_0000;
        for i in 1..=4u32 {
            miss(&mut pf, &mem, a);
            miss(&mut pf, &mem, a + i * 0x1000);
        }
        pf.set_aggressiveness(Aggressiveness::VeryConservative);
        assert_eq!(miss(&mut pf, &mem, a).len(), 1);
        pf.set_aggressiveness(Aggressiveness::Aggressive);
        assert_eq!(miss(&mut pf, &mem, a).len(), 4);
    }

    #[test]
    fn hits_do_not_train() {
        let mem = SimMemory::new();
        let mut pf = MarkovPrefetcher::new(PrefetcherId(0), MarkovConfig::default());
        let mut ctx = PrefetchCtx::new(&mem, 0);
        pf.on_demand_access(
            &mut ctx,
            &DemandAccess {
                pc: 1,
                addr: 0x4000_0000,
                value: 0,
                hit: true,
                is_store: false,
                cycle: 0,
            },
        );
        assert!(ctx.take_requests().is_empty());
        assert!(pf.last_miss.is_none());
    }

    #[test]
    fn paper_config_is_about_1mb() {
        let c = MarkovConfig::paper_1mb();
        let mb = c.storage_bytes() as f64 / (1024.0 * 1024.0);
        assert!((1.0..=1.5).contains(&mb), "storage {mb} MB");
    }
}
