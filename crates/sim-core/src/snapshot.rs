//! Warm-state checkpointing: capture a mid-run [`crate::Machine`] (every
//! core plus the shared DRAM system) into a [`Snapshot`] and fork new runs
//! from it without re-simulating warmup.
//!
//! A sweep re-runs every (workload, input) pair under several system
//! variants; each variant re-simulates an identical warmup phase. A
//! [`Snapshot`] captures the *complete* architectural and micro-
//! architectural state at a chosen warm cycle — clock, CoW memory pages
//! (`Arc`-shared, never deep-copied), the out-of-order window and its
//! completion state, cache tags, MSHRs, DRAM bank/queue/bus state, the
//! observability collector, the runtime validator, and every
//! prefetcher's learned tables — so a forked run is **bit-identical** to
//! the cold run it replaces. `bench::difftest` proves that equivalence
//! over randomized (workload, config, system) triples.
//!
//! # Wire format
//!
//! [`Snapshot::to_bytes`] produces a CRC-framed binary image behind the
//! [`crate::frame`] header [`SNAPSHOT_HEADER`]:
//!
//! ```text
//! header    16 bytes b"ECDPSNAP", version u32 LE, schema u32 LE
//! length    u64 LE   payload length in bytes
//! payload   length bytes
//! crc32     u32 LE   CRC-32 (IEEE) of the payload
//! ```
//!
//! The payload is written with [`FrameWriter`] and read back with the
//! bounded [`FrameReader`]. [`Snapshot::from_bytes`] rejects bad magic,
//! unknown versions/schemas, truncation and CRC mismatches with a
//! structured [`FrameError`] — callers degrade gracefully to a cold run
//! instead of panicking (see `bench`'s sweep fallback path).

use crate::frame::{crc32, FrameError, FrameReader, FrameWriter, Header};
use crate::prefetcher::Aggressiveness;
use crate::stats::{LatencyStats, PrefetcherStats, RunStats};
use sim_mem::SimMemory;

/// The ECDPSNAP file header. The version is bumped when the framing
/// itself changes, the schema when any serialized structure changes.
pub const SNAPSHOT_HEADER: Header = Header {
    magic: *b"ECDPSNAP",
    version: 1,
    schema: Some(2),
};

/// Saved state of one registered prefetcher: display name (validated at
/// fork time), current aggressiveness level, and its opaque learned-table
/// blob from [`crate::Prefetcher::save_state`].
#[derive(Debug, Clone)]
pub(crate) struct PrefetcherState {
    pub(crate) name: String,
    pub(crate) level: Aggressiveness,
    pub(crate) data: Vec<u8>,
}

/// Saved state of one simulated core.
#[derive(Debug, Clone)]
pub(crate) struct CoreState {
    /// Warmed memory image. A CoW clone behind an `Arc`: pages stay
    /// `Arc`-shared with the running machine, and cloning the snapshot
    /// itself (e.g. arming a fork) is a reference-count bump instead of
    /// a copy of the full page table.
    pub(crate) mem: std::sync::Arc<SimMemory>,
    /// Serialized `CoreSim` micro-architectural state (window, completion
    /// wheel, caches, MSHRs, queues, counters, stats, obs, validator).
    pub(crate) core: Vec<u8>,
    pub(crate) prefetchers: Vec<PrefetcherState>,
    pub(crate) throttle: PrefetcherState,
}

/// A complete warm-state checkpoint of a machine mid-run.
///
/// Produced by [`crate::Machine::take_snapshot`] (after a run with
/// [`crate::Machine::set_warm_checkpoint`]) and consumed by
/// [`crate::Machine::fork_from`]. Cloning is cheap where it matters:
/// memory pages are `Arc`-shared CoW.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) cycle: u64,
    pub(crate) config_fp: u64,
    pub(crate) cores: Vec<CoreState>,
    pub(crate) dram: Vec<u8>,
    /// Per-core first-completion stats captured so far (one entry per
    /// core; always `None` on a one-core machine, which reports at the
    /// end of the run instead).
    pub(crate) finished: Vec<Option<RunStats>>,
}

impl Snapshot {
    /// Simulated cycle at which the state was captured.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of cores captured.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Configuration fingerprint recorded at capture time.
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fp
    }

    /// Serializes into the framed wire format described in the module docs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = FrameWriter::new();
        w.u64(self.cycle);
        w.u64(self.config_fp);
        w.u32(self.cores.len() as u32);
        for core in &self.cores {
            write_memory(&mut w, &core.mem);
            w.bytes(&core.core);
            w.u32(core.prefetchers.len() as u32);
            for p in &core.prefetchers {
                w.str(&p.name);
                w.aggressiveness(p.level);
                w.bytes(&p.data);
            }
            w.str(&core.throttle.name);
            w.aggressiveness(core.throttle.level);
            w.bytes(&core.throttle.data);
        }
        w.bytes(&self.dram);
        w.u32(self.finished.len() as u32);
        for f in &self.finished {
            match f {
                None => w.bool(false),
                Some(stats) => {
                    w.bool(true);
                    write_run_stats(&mut w, stats);
                }
            }
        }
        let payload = w.into_bytes();

        let mut out = FrameWriter::new();
        out.raw(&SNAPSHOT_HEADER.to_bytes());
        out.bytes(&payload);
        out.u32(crc32(&payload));
        out.into_bytes()
    }

    /// Parses and validates a framed snapshot image.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] on bad magic, an unknown version or
    /// schema, truncation, a CRC mismatch, or a malformed payload —
    /// callers are expected to fall back to cold simulation.
    pub fn from_bytes(data: &[u8]) -> Result<Self, FrameError> {
        let mut r = FrameReader::new(data);
        SNAPSHOT_HEADER.check(&mut r)?;
        let payload_len = r.len_prefix()?;
        let payload = r.take(payload_len)?;
        let stored_crc = r.u32()?;
        r.finish()?;
        if crc32(payload) != stored_crc {
            return Err(FrameError::CrcMismatch);
        }

        let mut p = FrameReader::new(payload);
        let cycle = p.u64()?;
        let config_fp = p.u64()?;
        let num_cores = p.u32()? as usize;
        if num_cores == 0 || num_cores > 1024 {
            return Err(FrameError::Malformed(format!("{num_cores} cores")));
        }
        let mut cores = Vec::with_capacity(num_cores);
        for _ in 0..num_cores {
            let mem = std::sync::Arc::new(read_memory(&mut p)?);
            let core = p.bytes()?;
            let num_pf = p.u32()? as usize;
            if num_pf > 256 {
                return Err(FrameError::Malformed(format!("{num_pf} prefetchers")));
            }
            let mut prefetchers = Vec::with_capacity(num_pf);
            for _ in 0..num_pf {
                prefetchers.push(PrefetcherState {
                    name: p.str()?,
                    level: p.aggressiveness()?,
                    data: p.bytes()?,
                });
            }
            let throttle = PrefetcherState {
                name: p.str()?,
                level: p.aggressiveness()?,
                data: p.bytes()?,
            };
            cores.push(CoreState {
                mem,
                core,
                prefetchers,
                throttle,
            });
        }
        let dram = p.bytes()?;
        let num_finished = p.u32()? as usize;
        if num_finished > 1024 {
            return Err(FrameError::Malformed(format!(
                "{num_finished} finished entries"
            )));
        }
        let mut finished = Vec::with_capacity(num_finished);
        for _ in 0..num_finished {
            finished.push(if p.bool()? {
                Some(read_run_stats(&mut p)?)
            } else {
                None
            });
        }
        p.finish()?;
        Ok(Snapshot {
            cycle,
            config_fp,
            cores,
            dram,
            finished,
        })
    }
}

fn write_memory(w: &mut FrameWriter, mem: &SimMemory) {
    let indices = mem.resident_page_indices();
    w.u32(indices.len() as u32);
    for idx in indices {
        w.u32(idx);
        // Unwrap-free by construction: the index came from the resident set.
        if let Some(page) = mem.page_bytes(idx) {
            w.bytes(page);
        } else {
            w.bytes(&[]);
        }
    }
}

fn read_memory(r: &mut FrameReader<'_>) -> Result<SimMemory, FrameError> {
    let count = r.u32()? as usize;
    let mut mem = SimMemory::new();
    for _ in 0..count {
        let idx = r.u32()?;
        let data = r.bytes()?;
        if data.len() != sim_mem::memory::PAGE_BYTES {
            return Err(FrameError::Malformed(format!(
                "page {idx} has {} bytes",
                data.len()
            )));
        }
        if !mem.install_page(idx, &data) {
            return Err(FrameError::Malformed(format!("page index {idx}")));
        }
    }
    Ok(mem)
}

/// Serializes a [`RunStats`] field-by-field (exact, including latency
/// aggregates and per-prefetcher outcome counters).
pub(crate) fn write_run_stats(w: &mut FrameWriter, s: &RunStats) {
    w.u64(s.cycles);
    w.u64(s.retired_instructions);
    w.u64(s.l2_demand_accesses);
    w.u64(s.l2_demand_misses);
    w.u64(s.l2_lds_misses);
    w.u64(s.l2_merged_into_prefetch);
    w.u64(s.l1_hits);
    w.u64(s.l1_misses);
    w.u64(s.bus_transfers);
    w.u64(s.bus_busy_cycles);
    w.u64(s.writebacks);
    w.u64(s.dram_row_hits);
    w.u64(s.dram_row_conflicts);
    w.u64(s.intervals);
    w.u64(s.useful_prefetch_wait_cycles);
    write_latency(w, &s.demand_service);
    write_latency(w, &s.prefetch_service);
    w.u32(s.prefetchers.len() as u32);
    for p in &s.prefetchers {
        w.str(&p.name);
        w.u64(p.issued);
        w.u64(p.used);
        w.u64(p.late);
        w.u64(p.pollution);
        w.u64(p.unused_evicted);
    }
}

/// Inverse of [`write_run_stats`].
pub(crate) fn read_run_stats(r: &mut FrameReader<'_>) -> Result<RunStats, FrameError> {
    let mut s = RunStats {
        cycles: r.u64()?,
        retired_instructions: r.u64()?,
        l2_demand_accesses: r.u64()?,
        l2_demand_misses: r.u64()?,
        l2_lds_misses: r.u64()?,
        l2_merged_into_prefetch: r.u64()?,
        l1_hits: r.u64()?,
        l1_misses: r.u64()?,
        bus_transfers: r.u64()?,
        bus_busy_cycles: r.u64()?,
        writebacks: r.u64()?,
        dram_row_hits: r.u64()?,
        dram_row_conflicts: r.u64()?,
        intervals: r.u64()?,
        useful_prefetch_wait_cycles: r.u64()?,
        ..RunStats::default()
    };
    s.demand_service = read_latency(r)?;
    s.prefetch_service = read_latency(r)?;
    let n = r.u32()? as usize;
    if n > 256 {
        return Err(FrameError::Malformed(format!("{n} prefetcher stats")));
    }
    for _ in 0..n {
        s.prefetchers.push(PrefetcherStats {
            name: r.str()?,
            issued: r.u64()?,
            used: r.u64()?,
            late: r.u64()?,
            pollution: r.u64()?,
            unused_evicted: r.u64()?,
        });
    }
    Ok(s)
}

fn write_latency(w: &mut FrameWriter, l: &LatencyStats) {
    w.u64(l.count);
    w.u64(l.total_cycles);
    w.u64(l.max_cycles);
}

fn read_latency(r: &mut FrameReader<'_>) -> Result<LatencyStats, FrameError> {
    Ok(LatencyStats {
        count: r.u64()?,
        total_cycles: r.u64()?,
        max_cycles: r.u64()?,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::frame::config_fingerprint;
    use crate::MachineConfig;

    fn tiny_snapshot() -> Snapshot {
        let mut mem = SimMemory::new();
        mem.write_u32(0x4000_0000, 0xdead_beef);
        mem.write_u32(0x5000_0008, 42);
        Snapshot {
            cycle: 12_345,
            config_fp: config_fingerprint(&MachineConfig::default()),
            cores: vec![CoreState {
                mem: std::sync::Arc::new(mem),
                core: vec![1, 2, 3, 4, 5],
                prefetchers: vec![
                    PrefetcherState {
                        name: "stream".into(),
                        level: Aggressiveness::Conservative,
                        data: vec![9, 9],
                    },
                    PrefetcherState {
                        name: "cdp".into(),
                        level: Aggressiveness::Aggressive,
                        data: vec![],
                    },
                ],
                throttle: PrefetcherState {
                    name: "coordinated".into(),
                    level: Aggressiveness::Aggressive,
                    data: vec![7],
                },
            }],
            dram: vec![0xAA, 0xBB],
            finished: vec![None, Some(RunStats::default())],
        }
    }

    #[test]
    fn round_trips_through_bytes() {
        let snap = tiny_snapshot();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.cycle, snap.cycle);
        assert_eq!(back.config_fp, snap.config_fp);
        assert_eq!(back.cores.len(), 1);
        assert_eq!(back.cores[0].core, snap.cores[0].core);
        assert_eq!(back.cores[0].prefetchers.len(), 2);
        assert_eq!(back.cores[0].prefetchers[0].name, "stream");
        assert_eq!(
            back.cores[0].prefetchers[0].level,
            Aggressiveness::Conservative
        );
        assert_eq!(back.cores[0].throttle.name, "coordinated");
        assert_eq!(back.dram, snap.dram);
        assert_eq!(back.finished, snap.finished);
        assert_eq!(back.cores[0].mem.read_u32(0x4000_0000), 0xdead_beef);
        assert_eq!(back.cores[0].mem.read_u32(0x5000_0008), 42);
        // Re-encoding the decoded snapshot is byte-stable.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = tiny_snapshot().to_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            FrameError::BadMagic
        );
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = tiny_snapshot().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            FrameError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn schema_skew_is_rejected() {
        let mut bytes = tiny_snapshot().to_bytes();
        bytes[12..16].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            FrameError::SchemaMismatch {
                expected: 2,
                found: 3,
            }
        );
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let bytes = tiny_snapshot().to_bytes();
        // Every strict prefix must fail cleanly (never panic).
        for n in 0..bytes.len() {
            assert!(
                Snapshot::from_bytes(&bytes[..n]).is_err(),
                "prefix of {n} bytes decoded"
            );
        }
    }

    #[test]
    fn payload_bit_flip_fails_crc() {
        let snap = tiny_snapshot();
        let bytes = snap.to_bytes();
        // Flip one bit in every payload byte position; each must be caught
        // by the CRC (or, rarely, rejected as malformed downstream —
        // but the frame check runs first, so CRC it is).
        for pos in (28..bytes.len() - 4).step_by(97) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            assert_eq!(
                Snapshot::from_bytes(&corrupt).unwrap_err(),
                FrameError::CrcMismatch,
                "flip at {pos}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = tiny_snapshot().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            FrameError::Malformed(_)
        ));
    }

    #[test]
    fn run_stats_round_trip() {
        let stats = RunStats {
            cycles: 100,
            retired_instructions: 200,
            l2_demand_misses: 30,
            prefetchers: vec![PrefetcherStats {
                name: "stream".into(),
                issued: 10,
                used: 4,
                late: 1,
                pollution: 2,
                unused_evicted: 3,
            }],
            ..RunStats::default()
        };
        let mut w = FrameWriter::new();
        write_run_stats(&mut w, &stats);
        let bytes = w.into_bytes();
        let mut r = FrameReader::new(&bytes);
        assert_eq!(read_run_stats(&mut r).unwrap(), stats);
        r.finish().unwrap();
    }
}
