//! Global History Buffer prefetching with global delta correlation (G/DC) —
//! Nesbit & Smith, HPCA 2004.
//!
//! The GHB is a circular buffer of recent miss addresses; an index table
//! keyed by the last pair of address deltas points at the most recent
//! occurrence of that delta pair. On a miss, the prefetcher looks up the
//! current delta pair, walks forward from the previous occurrence, and
//! prefetches along the replayed delta sequence. G/DC captures both
//! streaming (constant-delta) and correlated irregular patterns, which is
//! why the paper evaluates it *alone* rather than with the stream
//! prefetcher (§6.3).

use std::collections::HashMap;

use sim_core::{
    Aggressiveness, DemandAccess, FrameError, FrameReader, FrameWriter, PrefetchCtx,
    PrefetchRequest, Prefetcher, PrefetcherId, PrefetcherKind,
};
use sim_mem::{block_of, Addr};

/// GHB prefetcher parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhbConfig {
    /// History buffer length (paper: 1k entries, ≈12 KB total storage).
    pub buffer_entries: usize,
    /// Maximum index-table entries (bounds storage like real hardware).
    pub index_entries: usize,
}

impl Default for GhbConfig {
    fn default() -> Self {
        GhbConfig {
            buffer_entries: 1024,
            index_entries: 1024,
        }
    }
}

/// Prefetch degree per aggressiveness level.
const DEGREE_LEVELS: [usize; 4] = [1, 2, 4, 8];

/// The GHB G/DC prefetcher. See the module docs.
#[derive(Debug)]
pub struct GhbPrefetcher {
    id: PrefetcherId,
    config: GhbConfig,
    level: Aggressiveness,
    /// The tail of the miss-block history. Positions are *absolute*
    /// (monotonically growing across the whole run); `base` is the
    /// absolute position of `history[0]`, and entries older than the
    /// buffer window are periodically compacted away so the vector
    /// stays O(`buffer_entries`) instead of growing with the run.
    history: Vec<Addr>,
    /// Absolute position of `history[0]`.
    base: usize,
    /// (delta1, delta2) -> last absolute position at which that pair
    /// ended. Stale positions (outside the buffer window) are rejected
    /// at lookup time.
    index: HashMap<(i64, i64), usize>,
}

impl GhbPrefetcher {
    /// Creates a GHB prefetcher registered as `id`.
    pub fn new(id: PrefetcherId, config: GhbConfig) -> Self {
        GhbPrefetcher {
            id,
            config,
            level: Aggressiveness::Aggressive,
            history: Vec::new(),
            base: 0,
            index: HashMap::new(),
        }
    }

    fn degree(&self) -> usize {
        DEGREE_LEVELS[self.level.index()]
    }

    /// Total misses recorded, i.e. the absolute position one past the
    /// newest history entry.
    fn total(&self) -> usize {
        self.base + self.history.len()
    }

    /// The address delta ending at absolute position `pos`, if both
    /// endpoints are still in the retained window.
    fn delta(&self, pos: usize) -> Option<i64> {
        if pos <= self.base || pos >= self.total() {
            return None;
        }
        let i = pos - self.base;
        Some(i64::from(self.history[i]) - i64::from(self.history[i - 1]))
    }

    /// Number of history entries currently retained (bounded at
    /// `4 * buffer_entries` by compaction — exposed for the storage
    /// property tests).
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// Number of index-table entries (bounded at `index_entries`).
    pub fn index_len(&self) -> usize {
        self.index.len()
    }

    /// Drops history entries that can no longer be reached by any walk.
    ///
    /// A walk starting from an index match accesses positions no older
    /// than `pos - buffer_entries` (older matches are rejected before
    /// walking), so retaining the last `buffer_entries + 2` entries is
    /// behavior-identical. Compacting only once the vector reaches 4x
    /// the window keeps the amortized cost at O(1) per miss.
    fn maybe_compact(&mut self) {
        let keep = self.config.buffer_entries + 2;
        if self.history.len() > (4 * self.config.buffer_entries).max(keep) {
            let drop = self.history.len() - keep;
            self.history.drain(..drop);
            self.base += drop;
        }
    }
}

impl Prefetcher for GhbPrefetcher {
    fn name(&self) -> &'static str {
        "ghb-gdc"
    }

    fn kind(&self) -> PrefetcherKind {
        PrefetcherKind::Correlation
    }

    fn on_demand_access(&mut self, ctx: &mut PrefetchCtx<'_>, ev: &DemandAccess) {
        if ev.hit {
            return;
        }
        let block = block_of(ev.addr);
        self.history.push(block);
        self.maybe_compact();
        let pos = self.total() - 1;

        // Current delta pair (d_{n-1}, d_n).
        let (Some(d2), Some(d1)) = (
            self.delta(pos),
            pos.checked_sub(1).and_then(|p| self.delta(p)),
        ) else {
            return;
        };

        let key = (d1, d2);
        let prev = self.index.get(&key).copied();
        if self.index.len() < self.config.index_entries || self.index.contains_key(&key) {
            self.index.insert(key, pos);
        }

        let Some(mut walk) = prev else { return };
        // The match must still be within the buffer window.
        if pos - walk > self.config.buffer_entries {
            return;
        }

        // Collect the deltas that followed the previous occurrence. If the
        // history runs out before `degree` deltas (common for constant
        // strides, where the match is the immediately preceding position),
        // extrapolate by replaying the collected sequence cyclically.
        let degree = self.degree();
        let mut deltas = Vec::with_capacity(degree);
        while deltas.len() < degree {
            walk += 1;
            if walk >= pos {
                break;
            }
            match self.delta(walk) {
                Some(d) => deltas.push(d),
                None => break,
            }
        }
        if deltas.is_empty() {
            deltas.push(d2);
        }

        let mut addr = i64::from(block);
        for k in 0..degree {
            addr += deltas[k % deltas.len()];
            if addr <= 0 || addr > i64::from(Addr::MAX) {
                break;
            }
            ctx.request(PrefetchRequest {
                addr: addr as Addr,
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
        w.u64(self.base as u64);
        w.u64(self.history.len() as u64);
        for &a in &self.history {
            w.u32(a);
        }
        // The index is a HashMap: emit entries sorted by key so the blob
        // is deterministic for a given logical state.
        let mut entries: Vec<(&(i64, i64), &usize)> = self.index.iter().collect();
        entries.sort();
        w.u64(entries.len() as u64);
        for (&(d1, d2), &pos) in entries {
            w.i64(d1);
            w.i64(d2);
            w.u64(pos as u64);
        }
    }

    fn load_state(&mut self, r: &mut FrameReader<'_>) -> Result<(), FrameError> {
        self.base = r.u64()? as usize;
        let n = r.len_prefix()?;
        self.history.clear();
        for _ in 0..n {
            self.history.push(r.u32()?);
        }
        let n = r.len_prefix()?;
        self.index.clear();
        for _ in 0..n {
            let d1 = r.i64()?;
            let d2 = r.i64()?;
            let pos = r.u64()? as usize;
            self.index.insert((d1, d2), pos);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::SimMemory;

    fn miss(pf: &mut GhbPrefetcher, mem: &SimMemory, addr: Addr) -> Vec<Addr> {
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
    fn constant_stride_is_prefetched() {
        let mem = SimMemory::new();
        let mut pf = GhbPrefetcher::new(PrefetcherId(0), GhbConfig::default());
        let base = 0x4000_0000;
        // Strided misses: after the delta pair repeats, prefetches follow
        // the stride.
        let mut got = Vec::new();
        for i in 0..6u32 {
            got = miss(&mut pf, &mem, base + i * 128);
        }
        assert!(!got.is_empty(), "stride should be recognised");
        assert_eq!(got[0], base + 6 * 128);
    }

    #[test]
    fn repeated_irregular_delta_sequence_is_replayed() {
        let mem = SimMemory::new();
        let mut pf = GhbPrefetcher::new(PrefetcherId(0), GhbConfig::default());
        let base: Addr = 0x4000_0000;
        let deltas: [i64; 6] = [0x40, 0x1000, 0x40, 0x200, 0x40, 0x1000];
        let mut addr = i64::from(base);
        let mut seq = vec![base];
        for d in deltas {
            addr += d;
            seq.push(addr as Addr);
        }
        // Train on the sequence twice; second pass should predict.
        let mut predicted_any = false;
        for _ in 0..2 {
            for &a in &seq {
                if !miss(&mut pf, &mem, a).is_empty() {
                    predicted_any = true;
                }
            }
        }
        assert!(predicted_any, "repeated delta pairs should predict");
    }

    #[test]
    fn first_misses_never_predict() {
        let mem = SimMemory::new();
        let mut pf = GhbPrefetcher::new(PrefetcherId(0), GhbConfig::default());
        assert!(miss(&mut pf, &mem, 0x4000_0000).is_empty());
        assert!(miss(&mut pf, &mem, 0x4000_1000).is_empty());
    }

    #[test]
    fn degree_scales_with_aggressiveness() {
        let mem = SimMemory::new();
        let mut pf = GhbPrefetcher::new(PrefetcherId(0), GhbConfig::default());
        pf.set_aggressiveness(Aggressiveness::VeryConservative);
        let base = 0x4000_0000;
        let mut got = Vec::new();
        for i in 0..8u32 {
            got = miss(&mut pf, &mem, base + i * 128);
        }
        assert_eq!(got.len(), 1);
        let mut pf = GhbPrefetcher::new(PrefetcherId(0), GhbConfig::default());
        pf.set_aggressiveness(Aggressiveness::Aggressive);
        let mut got = Vec::new();
        for i in 0..8u32 {
            got = miss(&mut pf, &mem, base + i * 128);
        }
        assert!(got.len() > 1);
    }

    #[test]
    fn stale_matches_outside_window_are_ignored() {
        let mem = SimMemory::new();
        let mut pf = GhbPrefetcher::new(
            PrefetcherId(0),
            GhbConfig {
                buffer_entries: 4,
                index_entries: 1024,
            },
        );
        let base = 0x4000_0000;
        for i in 0..3u32 {
            miss(&mut pf, &mem, base + i * 128);
        }
        // Flood the window with unrelated misses.
        for i in 0..8u32 {
            miss(&mut pf, &mem, 0x4800_0000 + i * 0x10_0000);
        }
        // The old stride pair is now outside the 4-entry window.
        let got = miss(&mut pf, &mem, base + 3 * 128);
        let _ = got; // prediction may be empty or fresh; must not panic
    }
}
