//! The baseline stream prefetcher (IBM POWER4/POWER5 style, as described in
//! the paper's §2.1 and in Srinath et al., HPCA 2007).
//!
//! The prefetcher tracks up to 32 independent streams. A stream is allocated
//! on an L2 demand miss, trains on nearby misses to establish a direction,
//! and then monitors a region of the address space: demand accesses inside
//! the monitor region advance it and trigger `degree` prefetches, keeping
//! the prefetched frontier up to `distance` blocks ahead of the demand
//! stream. *Prefetch Distance* and *Prefetch Degree* are set by the
//! aggressiveness level (paper Table 2).

use sim_core::{
    Addr, Aggressiveness, DemandAccess, FrameError, FrameReader, FrameWriter, PrefetchCtx,
    PrefetchRequest, Prefetcher, PrefetcherId, PrefetcherKind,
};
use sim_mem::{block_of, BLOCK_BYTES};

/// Stream prefetcher parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Number of concurrently tracked streams (paper: 32).
    pub num_streams: usize,
    /// Blocks within which a second miss trains a new stream's direction.
    pub train_window_blocks: u32,
    /// Misses required to move from training to monitoring.
    pub train_count: u32,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            num_streams: 32,
            train_window_blocks: 16,
            train_count: 2,
        }
    }
}

/// Distance/degree pairs for the four aggressiveness levels (Table 2).
const LEVELS: [(u32, u32); 4] = [(4, 1), (8, 1), (16, 2), (32, 4)];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamState {
    Training { first_block: u32, hits: u32 },
    Monitoring,
}

#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    state: StreamState,
    /// +1 or -1 block direction.
    dir: i64,
    /// Last demand block index that advanced the stream.
    last_demand: u32,
    /// Next block index to prefetch (the frontier).
    frontier: u32,
    /// LRU stamp.
    last_touch: u64,
    valid: bool,
}

/// The baseline stream prefetcher. See the module docs.
///
/// # Example
///
/// ```
/// use prefetch::StreamPrefetcher;
/// use sim_core::{Machine, MachineConfig, PrefetcherId};
///
/// let mut machine = Machine::new(MachineConfig::default());
/// let id = machine.add_prefetcher(Box::new(StreamPrefetcher::new(
///     PrefetcherId(0),
///     Default::default(),
/// )));
/// assert_eq!(id, PrefetcherId(0));
/// ```
#[derive(Debug)]
pub struct StreamPrefetcher {
    id: PrefetcherId,
    config: StreamConfig,
    level: Aggressiveness,
    streams: Vec<StreamEntry>,
    tick: u64,
}

impl StreamPrefetcher {
    /// Creates a stream prefetcher that will be registered as `id`.
    pub fn new(id: PrefetcherId, config: StreamConfig) -> Self {
        StreamPrefetcher {
            id,
            config,
            level: Aggressiveness::Aggressive,
            streams: vec![
                StreamEntry {
                    state: StreamState::Training {
                        first_block: 0,
                        hits: 0
                    },
                    dir: 1,
                    last_demand: 0,
                    frontier: 0,
                    last_touch: 0,
                    valid: false,
                };
                config.num_streams
            ],
            tick: 0,
        }
    }

    fn distance(&self) -> u32 {
        LEVELS[self.level.index()].0
    }

    fn degree(&self) -> u32 {
        LEVELS[self.level.index()].1
    }

    /// Finds a stream whose monitor region covers `block` (within
    /// `distance` blocks behind the frontier, in stream direction).
    fn find_stream(&mut self, block: u32) -> Option<usize> {
        let train_window = self.config.train_window_blocks;
        let distance = self.distance();
        self.streams.iter().position(|s| {
            if !s.valid {
                return false;
            }
            match s.state {
                StreamState::Training { first_block, .. } => {
                    block.abs_diff(first_block) <= train_window
                }
                StreamState::Monitoring => {
                    // The monitor region spans from a little behind the last
                    // demand to the frontier.
                    let b = i64::from(block);
                    let lo;
                    let hi;
                    if s.dir > 0 {
                        lo = i64::from(s.last_demand) - 4;
                        hi = i64::from(s.frontier) + i64::from(distance);
                    } else {
                        lo = i64::from(s.frontier) - i64::from(distance);
                        hi = i64::from(s.last_demand) + 4;
                    }
                    b >= lo && b <= hi
                }
            }
        })
    }

    fn allocate(&mut self, block: u32) {
        let slot = self
            .streams
            .iter()
            .position(|s| !s.valid)
            .or_else(|| {
                self.streams
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.last_touch)
                    .map(|(i, _)| i)
            })
            .expect("stream table is never empty");
        self.streams[slot] = StreamEntry {
            state: StreamState::Training {
                first_block: block,
                hits: 0,
            },
            dir: 1,
            last_demand: block,
            frontier: block,
            last_touch: self.tick,
            valid: true,
        };
    }

    fn emit(&self, ctx: &mut PrefetchCtx<'_>, block: u32) {
        let addr = (block as u64 * u64::from(BLOCK_BYTES)) as Addr;
        ctx.request(PrefetchRequest {
            addr,
            id: self.id,
            depth: 0,
            pg: None,
            root_pc: 0,
        });
    }
}

impl Prefetcher for StreamPrefetcher {
    fn name(&self) -> &'static str {
        "stream"
    }

    fn kind(&self) -> PrefetcherKind {
        PrefetcherKind::Stream
    }

    fn on_demand_access(&mut self, ctx: &mut PrefetchCtx<'_>, ev: &DemandAccess) {
        self.tick += 1;
        let block = block_of(ev.addr) / BLOCK_BYTES;
        let distance = self.distance();
        let degree = self.degree();
        let train_count = self.config.train_count;

        if let Some(i) = self.find_stream(block) {
            self.streams[i].last_touch = self.tick;
            match self.streams[i].state {
                StreamState::Training { first_block, hits } => {
                    if block == first_block {
                        return;
                    }
                    let hits = hits + 1;
                    // (blocks farther than the training window never match
                    // this stream, so reaching here implies a near miss.)
                    if hits >= train_count {
                        let dir: i64 = if block >= first_block { 1 } else { -1 };
                        let s = &mut self.streams[i];
                        s.state = StreamState::Monitoring;
                        s.dir = dir;
                        s.last_demand = block;
                        s.frontier = block;
                        // Kick off the stream: prefetch `degree` blocks.
                        for k in 1..=degree {
                            let b = i64::from(block) + dir * i64::from(k);
                            if b >= 0 {
                                let b = b as u32;
                                self.streams[i].frontier = b;
                                self.emit(ctx, b);
                            }
                        }
                    } else {
                        let s = &mut self.streams[i];
                        s.state = StreamState::Training { first_block, hits };
                    }
                }
                StreamState::Monitoring => {
                    let s = self.streams[i];
                    // Advance only on *near-monotonic* forward progress:
                    // genuine streams move a few blocks at a time in one
                    // direction. Random-order accesses inside a dense
                    // region must not keep a stream alive (real stream
                    // engines confirm sequential progress).
                    let step = (i64::from(block) - i64::from(s.last_demand)) * s.dir;
                    let progressed = (1..=8).contains(&step);
                    if progressed {
                        self.streams[i].last_demand = block;
                        // Issue up to `degree` prefetches while the frontier
                        // is within `distance` of the demand stream.
                        let mut issued = 0;
                        while issued < degree {
                            let next = i64::from(self.streams[i].frontier) + self.streams[i].dir;
                            let lead = (next - i64::from(block)) * self.streams[i].dir;
                            if next < 0 || lead > i64::from(distance) {
                                break;
                            }
                            self.streams[i].frontier = next as u32;
                            self.emit(ctx, next as u32);
                            issued += 1;
                        }
                    }
                }
            }
        } else if !ev.hit {
            self.allocate(block);
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
        w.u32(self.streams.len() as u32);
        for s in &self.streams {
            match s.state {
                StreamState::Training { first_block, hits } => {
                    w.u8(0);
                    w.u32(first_block);
                    w.u32(hits);
                }
                StreamState::Monitoring => w.u8(1),
            }
            w.i64(s.dir);
            w.u32(s.last_demand);
            w.u32(s.frontier);
            w.u64(s.last_touch);
            w.bool(s.valid);
        }
    }

    fn load_state(&mut self, r: &mut FrameReader<'_>) -> Result<(), FrameError> {
        self.tick = r.u64()?;
        let n = r.u32()? as usize;
        if n != self.streams.len() {
            return Err(FrameError::Malformed(format!(
                "snapshot has {n} streams, this prefetcher tracks {}",
                self.streams.len()
            )));
        }
        for s in &mut self.streams {
            s.state = match r.u8()? {
                0 => StreamState::Training {
                    first_block: r.u32()?,
                    hits: r.u32()?,
                },
                1 => StreamState::Monitoring,
                t => return Err(FrameError::Malformed(format!("stream state tag {t}"))),
            };
            s.dir = r.i64()?;
            s.last_demand = r.u32()?;
            s.frontier = r.u32()?;
            s.last_touch = r.u64()?;
            s.valid = r.bool()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::SimMemory;

    fn access(pf: &mut StreamPrefetcher, mem: &SimMemory, addr: Addr, hit: bool) -> Vec<Addr> {
        let mut ctx = PrefetchCtx::new(mem, 0);
        pf.on_demand_access(
            &mut ctx,
            &DemandAccess {
                pc: 0x10,
                addr,
                value: 0,
                hit,
                is_store: false,
                cycle: 0,
            },
        );
        ctx.take_requests().iter().map(|r| r.addr).collect()
    }

    #[test]
    fn ascending_miss_stream_triggers_prefetches() {
        let mem = SimMemory::new();
        let mut pf = StreamPrefetcher::new(PrefetcherId(0), StreamConfig::default());
        let base = 0x4000_0000;
        assert!(access(&mut pf, &mem, base, false).is_empty()); // allocate
        assert!(access(&mut pf, &mem, base + 64, false).is_empty()); // train
        let reqs = access(&mut pf, &mem, base + 128, false); // direction set
        assert!(!reqs.is_empty(), "stream should start prefetching");
        assert!(reqs.iter().all(|&a| a > base + 128), "prefetch ahead");
    }

    #[test]
    fn monitoring_stream_advances_with_demand() {
        let mem = SimMemory::new();
        let mut pf = StreamPrefetcher::new(PrefetcherId(0), StreamConfig::default());
        let base = 0x4000_0000;
        access(&mut pf, &mem, base, false);
        access(&mut pf, &mem, base + 64, false);
        access(&mut pf, &mem, base + 128, false);
        let mut total = 0;
        for i in 3..20u32 {
            total += access(&mut pf, &mem, base + i * 64, true).len();
        }
        assert!(
            total > 10,
            "advancing stream should keep prefetching: {total}"
        );
    }

    #[test]
    fn descending_stream_is_detected() {
        let mem = SimMemory::new();
        let mut pf = StreamPrefetcher::new(PrefetcherId(0), StreamConfig::default());
        let base = 0x4000_8000;
        access(&mut pf, &mem, base, false);
        access(&mut pf, &mem, base - 64, false);
        let reqs = access(&mut pf, &mem, base - 128, false);
        assert!(!reqs.is_empty());
        assert!(reqs.iter().all(|&a| a < base - 128), "prefetch downward");
    }

    #[test]
    fn aggressiveness_scales_degree() {
        let mem = SimMemory::new();
        for (level, (_, degree)) in Aggressiveness::ALL.iter().zip(LEVELS) {
            let mut pf = StreamPrefetcher::new(PrefetcherId(0), StreamConfig::default());
            pf.set_aggressiveness(*level);
            let base = 0x4000_0000;
            access(&mut pf, &mem, base, false);
            access(&mut pf, &mem, base + 64, false);
            let reqs = access(&mut pf, &mem, base + 128, false);
            assert_eq!(reqs.len(), degree as usize, "level {level:?}");
        }
    }

    #[test]
    fn random_misses_do_not_stream() {
        let mem = SimMemory::new();
        let mut pf = StreamPrefetcher::new(PrefetcherId(0), StreamConfig::default());
        // Far-apart misses never train any stream.
        let mut total = 0;
        for i in 0..32u32 {
            total += access(&mut pf, &mem, 0x4000_0000 + i * 0x10_0000, false).len();
        }
        assert_eq!(total, 0);
    }

    #[test]
    fn stream_table_replaces_lru() {
        let mem = SimMemory::new();
        let mut pf = StreamPrefetcher::new(
            PrefetcherId(0),
            StreamConfig {
                num_streams: 2,
                ..Default::default()
            },
        );
        // Allocate three streams; the first should be evicted.
        access(&mut pf, &mem, 0x4000_0000, false);
        access(&mut pf, &mem, 0x4100_0000, false);
        access(&mut pf, &mem, 0x4200_0000, false);
        let valid = pf.streams.iter().filter(|s| s.valid).count();
        assert_eq!(valid, 2);
    }
}
