//! Set-associative, LRU-replacement cache model with per-line prefetch
//! metadata (the paper's `prefetched-CDP` / `prefetched-stream` bits live in
//! the metadata attached to each line).

use crate::frame::{FrameError, FrameReader, FrameWriter};
use crate::prefetcher::PgTag;
use crate::prefetcher::PrefetcherId;
use sim_mem::{Addr, BLOCK_BYTES};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: u32,
    /// Associativity.
    pub ways: u32,
    /// Hit latency in core cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u32 {
        self.bytes / BLOCK_BYTES / self.ways
    }
}

/// Metadata carried by every resident cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineState {
    /// True if the line has been written and must be written back on evict.
    pub dirty: bool,
    /// Which prefetcher fetched this line, if any (`prefetched-*` bit).
    /// Cleared when a demand request uses the line, per the paper's feedback
    /// scheme.
    pub prefetched_by: Option<PrefetcherId>,
    /// Pointer-group attribution of the prefetch that fetched the line
    /// (ECDP profiling only; no hardware analogue is required at run time).
    pub pg_tag: Option<PgTag>,
    /// True once any demand request has hit this line.
    pub used: bool,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u32,
    valid: bool,
    last_used: u64,
    state: LineState,
}

const INVALID: Line = Line {
    tag: 0,
    valid: false,
    last_used: 0,
    state: LineState {
        dirty: false,
        prefetched_by: None,
        pg_tag: None,
        used: false,
    },
};

/// Information about a line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Block address of the victim.
    pub block_addr: Addr,
    /// Metadata of the victim at eviction time.
    pub state: LineState,
}

/// A set-associative, true-LRU cache.
///
/// # Example
///
/// ```
/// use sim_core::cache::{Cache, CacheConfig, LineState};
///
/// let mut c = Cache::new(CacheConfig { bytes: 4096, ways: 2, hit_latency: 2 });
/// assert!(c.access(0x1000).is_none());           // cold miss
/// c.fill(0x1000, LineState::default());
/// assert!(c.access(0x1000).is_some());           // now a hit
/// ```
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    sets: u32,
    lines: Vec<Line>,
    tick: u64,
    /// Demand evictions since last reset (drives the feedback interval).
    evictions: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or ways, or a
    /// non-power-of-two set count).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(config.ways > 0, "cache must have at least one way");
        assert!(sets > 0, "cache must have at least one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            config,
            sets,
            lines: vec![INVALID; (sets * config.ways) as usize],
            tick: 0,
            evictions: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Total evictions of valid lines since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    #[inline]
    fn set_index(&self, addr: Addr) -> u32 {
        (addr / BLOCK_BYTES) & (self.sets - 1)
    }

    #[inline]
    fn tag(&self, addr: Addr) -> u32 {
        addr / BLOCK_BYTES / self.sets
    }

    #[inline]
    fn set_range(&self, addr: Addr) -> std::ops::Range<usize> {
        let set = self.set_index(addr) as usize;
        let ways = self.config.ways as usize;
        set * ways..(set + 1) * ways
    }

    /// Looks up `addr` without touching LRU state (a tag probe).
    pub fn probe(&self, addr: Addr) -> Option<&LineState> {
        let tag = self.tag(addr);
        self.lines[self.set_range(addr)]
            .iter()
            .find(|l| l.valid && l.tag == tag)
            .map(|l| &l.state)
    }

    /// Looks up `addr`, updating LRU state on a hit. Returns the line's
    /// metadata for the caller to inspect and mutate.
    pub fn access(&mut self, addr: Addr) -> Option<&mut LineState> {
        self.tick += 1;
        let tag = self.tag(addr);
        let tick = self.tick;
        let range = self.set_range(addr);
        self.lines[range]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
            .map(|l| {
                l.last_used = tick;
                &mut l.state
            })
    }

    /// Inserts the block containing `addr` with metadata `state`, evicting
    /// the LRU line of the set if necessary. Returns the victim, if any.
    ///
    /// Filling an already-resident block replaces its metadata in place and
    /// evicts nothing.
    pub fn fill(&mut self, addr: Addr, state: LineState) -> Option<Evicted> {
        self.tick += 1;
        let tag = self.tag(addr);
        let set = self.set_index(addr);
        let tick = self.tick;
        let range = self.set_range(addr);

        // Already resident: refresh metadata.
        if let Some(l) = self.lines[range.clone()]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
        {
            l.state = state;
            l.last_used = tick;
            return None;
        }

        // Choose victim: an invalid way, else true LRU.
        let ways = &mut self.lines[range];
        let victim = match ways.iter_mut().find(|l| !l.valid) {
            Some(l) => l,
            None => ways
                .iter_mut()
                .min_by_key(|l| l.last_used)
                .expect("cache sets have at least one way"),
        };

        let evicted = victim.valid.then(|| Evicted {
            block_addr: (victim.tag * self.sets + set) * BLOCK_BYTES,
            state: victim.state,
        });
        if evicted.is_some() {
            self.evictions += 1;
        }
        *victim = Line {
            tag,
            valid: true,
            last_used: tick,
            state,
        };
        evicted
    }

    /// Invalidates the block containing `addr`, returning its metadata if it
    /// was resident.
    pub fn invalidate(&mut self, addr: Addr) -> Option<LineState> {
        let tag = self.tag(addr);
        let range = self.set_range(addr);
        self.lines[range]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
            .map(|l| {
                l.valid = false;
                l.state
            })
    }

    /// Iterates over all valid lines as `(block_addr, state)` pairs.
    pub fn iter_valid(&self) -> impl Iterator<Item = (Addr, &LineState)> + '_ {
        let ways = self.config.ways as usize;
        self.lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.valid)
            .map(move |(i, l)| {
                let set = (i / ways) as u32;
                ((l.tag * self.sets + set) * BLOCK_BYTES, &l.state)
            })
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Total number of lines (capacity / block size).
    pub fn total_lines(&self) -> usize {
        self.lines.len()
    }

    /// Serializes tags, LRU clocks and line metadata (valid lines only).
    /// Geometry is not stored — it is implied by the machine
    /// configuration, which the snapshot layer fingerprints separately.
    pub(crate) fn save_state(&self, w: &mut FrameWriter) {
        w.u64(self.tick);
        w.u64(self.evictions);
        w.u32(self.lines.len() as u32);
        let valid: Vec<(u32, &Line)> = self
            .lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.valid)
            .map(|(i, l)| (i as u32, l))
            .collect();
        w.u32(valid.len() as u32);
        for (i, l) in valid {
            w.u32(i);
            w.u32(l.tag);
            w.u64(l.last_used);
            write_line_state(w, &l.state);
        }
    }

    /// Restores state saved by [`Cache::save_state`] into a cache of the
    /// same geometry.
    pub(crate) fn restore_state(&mut self, r: &mut FrameReader<'_>) -> Result<(), FrameError> {
        self.tick = r.u64()?;
        self.evictions = r.u64()?;
        let total = r.u32()? as usize;
        if total != self.lines.len() {
            return Err(FrameError::Malformed(format!(
                "snapshot cache has {total} lines, this cache has {}",
                self.lines.len()
            )));
        }
        for l in &mut self.lines {
            *l = INVALID;
        }
        let n = r.u32()? as usize;
        if n > total {
            return Err(FrameError::Malformed(format!(
                "{n} valid lines exceed capacity {total}"
            )));
        }
        for _ in 0..n {
            let i = r.u32()? as usize;
            if i >= total {
                return Err(FrameError::Malformed(format!("line index {i}")));
            }
            let tag = r.u32()?;
            let last_used = r.u64()?;
            let state = read_line_state(r)?;
            self.lines[i] = Line {
                tag,
                valid: true,
                last_used,
                state,
            };
        }
        Ok(())
    }
}

fn write_line_state(w: &mut FrameWriter, s: &LineState) {
    w.bool(s.dirty);
    match s.prefetched_by {
        None => w.bool(false),
        Some(id) => {
            w.bool(true);
            w.u8(id.0);
        }
    }
    match s.pg_tag {
        None => w.bool(false),
        Some(pg) => {
            w.bool(true);
            w.u32(pg.pc);
            w.i16(pg.offset);
        }
    }
    w.bool(s.used);
}

fn read_line_state(r: &mut FrameReader<'_>) -> Result<LineState, FrameError> {
    let dirty = r.bool()?;
    let prefetched_by = if r.bool()? {
        Some(PrefetcherId(r.u8()?))
    } else {
        None
    };
    let pg_tag = if r.bool()? {
        let pc = r.u32()?;
        let offset = r.i16()?;
        Some(PgTag { pc, offset })
    } else {
        None
    };
    let used = r.bool()?;
    Ok(LineState {
        dirty,
        prefetched_by,
        pg_tag,
        used,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B = 256B.
        Cache::new(CacheConfig {
            bytes: 256,
            ways: 2,
            hit_latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(c.access(0x1000).is_none());
        c.fill(0x1000, LineState::default());
        assert!(c.access(0x1000).is_some());
        assert!(c.access(0x1004).is_some(), "same block hits");
        assert!(c.access(0x1040).is_none(), "next block misses");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 blocks (sets=2): block addresses with even block index.
        let a = 0x0000; // set 0
        let b = 0x0080; // set 0
        let d = 0x0100; // set 0
        c.fill(a, LineState::default());
        c.fill(b, LineState::default());
        assert!(c.access(a).is_some()); // a is now MRU
        let ev = c.fill(d, LineState::default()).expect("must evict");
        assert_eq!(ev.block_addr, b, "LRU victim is b");
        assert!(c.access(a).is_some());
        assert!(c.access(b).is_none());
        assert!(c.access(d).is_some());
    }

    #[test]
    fn refill_resident_block_does_not_evict() {
        let mut c = tiny();
        c.fill(0x0, LineState::default());
        let st = LineState {
            dirty: true,
            ..Default::default()
        };
        assert!(c.fill(0x0, st).is_none());
        assert!(c.access(0x0).unwrap().dirty);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn eviction_reports_metadata() {
        let mut c = tiny();
        let pf = LineState {
            prefetched_by: Some(PrefetcherId(1)),
            ..Default::default()
        };
        c.fill(0x0000, pf);
        c.fill(0x0080, LineState::default());
        let ev = c.fill(0x0100, LineState::default()).unwrap();
        assert_eq!(ev.state.prefetched_by, Some(PrefetcherId(1)));
        assert_eq!(ev.block_addr, 0x0000);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(0x40, LineState::default());
        assert!(c.invalidate(0x40).is_some());
        assert!(c.access(0x40).is_none());
        assert!(c.invalidate(0x40).is_none());
    }

    #[test]
    fn probe_does_not_perturb_lru() {
        let mut c = tiny();
        let a = 0x0000;
        let b = 0x0080;
        let d = 0x0100;
        c.fill(a, LineState::default());
        c.fill(b, LineState::default());
        // Probing a must NOT make it MRU.
        assert!(c.probe(a).is_some());
        let ev = c.fill(d, LineState::default()).unwrap();
        assert_eq!(ev.block_addr, a, "probe must not refresh LRU");
    }

    #[test]
    fn set_geometry() {
        let c = Cache::new(CacheConfig {
            bytes: 1024 * 1024,
            ways: 8,
            hit_latency: 15,
        });
        assert_eq!(c.config().sets(), 2048);
        assert_eq!(c.total_lines(), 16384);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        c.fill(0x0000, LineState::default()); // set 0
        c.fill(0x0040, LineState::default()); // set 1
        c.fill(0x0080, LineState::default()); // set 0
        c.fill(0x00C0, LineState::default()); // set 1
        assert_eq!(c.valid_lines(), 4);
        assert_eq!(c.evictions(), 0);
    }
}
